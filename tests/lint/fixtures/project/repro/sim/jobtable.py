"""PERF002 fixture: this module's name is in the per-job round scope."""


def remaining(total, work):
    return max(0.0, total - work)  # PERF002


def capped(rate, cap):
    return min(rate, cap)  # PERF002


def clamp(hit):
    return min(1.0, max(0.0, hit))  # PERF002 twice


def allowed(rates, sizes, key, pair, hit):
    low = min(rates)  # n-ary form
    high = max(1.0, 2.0, hit)  # three arguments
    first = min(sizes, key=abs)  # key=
    last = max(rates, default=0.0)  # default=
    spread = min(*pair)  # starred
    exact = hit if hit < 1.0 else 1.0  # the comparison form
    # A deliberate exception, with its reason.
    # lint: disable=PERF002
    kept = min(low, high)
    return first, last, spread, exact, kept, sorted(rates, key=key)

"""Test-side references for the common ratio of Eq. 9's max-min programme.

* :func:`bisect_ratio` is the 40-step bisection the joint solver and
  het-max-min's scorer ran before the closed form. Over a monotone
  predicate it ends within ``hi * 2**-40`` below the largest feasible
  ratio, and its answer is always feasible (or ``0.0``).
* :func:`lp_ratio` is Gavel's LP (Narayanan et al., OSDI 2020) over time
  fractions ``X[job, generation]``, with the cache term dropped, solved
  by ``scipy.optimize.linprog``. Every budget gets the programme's
  ``1 + 1e-9`` slack, so the LP relaxes the programme and bounds its
  ratio from above.
"""

import math

import pytest

from repro.core.policies.gavel import _EPS

#: Bisection steps; relative precision ``2**-40`` (about 1e-12).
ITERS = 40


def bisect_ratio(feasible, hi):
    """``hi`` when it is feasible, else the last feasible midpoint of 40
    halvings of ``[0, hi]`` (``0.0`` when none is)."""
    if feasible(hi):
        return hi
    lo = 0.0
    for _ in range(ITERS):
        mid = (lo + hi) / 2.0
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def lp_ratio(norms, f_star, gpus, pools, io_mbps=math.inf, fixed=None):
    """The largest ``r`` of Gavel's LP.

    ``f_star[j]`` maps each generation job ``j`` may run on to its
    ``f*`` there, and ``X[j, g]`` is the share of time it runs on ``g``
    (at most 1 over all ``g``). Job ``j`` needs throughput
    ``sum_g X[j, g] * f*[j][g]`` of at least ``r * norms[j]``, or of
    ``fixed[j]`` when that is not ``None``. ``pools`` lists
    ``(capacity, members)``, each member a ``(job, generation)`` pair
    whose ``X * gpus[job]`` counts against the capacity. With the cache
    off every byte is read remotely, so total throughput is at most
    ``io_mbps``. Returns ``0.0`` when no ``r`` is feasible.
    """
    linprog = pytest.importorskip("scipy.optimize").linprog
    fixed = fixed or [None] * len(norms)
    keys = [(j, g) for j, by_gen in enumerate(f_star) for g in by_gen]
    column = {key: 1 + i for i, key in enumerate(keys)}
    width = 1 + len(keys)
    rows, rhs = [], []

    def row(entries, bound):
        line = [0.0] * width
        for col, coef in entries:
            line[col] += coef
        rows.append(line)
        rhs.append(bound)

    slack = 1.0 + _EPS
    for j, by_gen in enumerate(f_star):
        rate = [(column[j, g], -f) for g, f in by_gen.items()]
        if fixed[j] is None:
            row([(0, norms[j])] + rate, 0.0)
        else:
            row(rate, -fixed[j])
        row([(column[j, g], 1.0) for g in by_gen], slack)
    for capacity, members in pools:
        row([(column[key], gpus[key[0]]) for key in members],
            capacity * slack)
    if math.isfinite(io_mbps):
        row([(column[j, g], f) for j, by_gen in enumerate(f_star)
             for g, f in by_gen.items()], io_mbps * slack)
    result = linprog(
        [-1.0] + [0.0] * len(keys),
        A_ub=rows,
        b_ub=rhs,
        bounds=[(0.0, None)] * width,
        method="highs",
    )
    if result.status == 2:  # infeasible: the frozen jobs alone overflow
        return 0.0
    assert result.status == 0, result.message
    return result.x[0]

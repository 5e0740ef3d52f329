"""POL fixture: subclasses of a policy from the sibling ``polbase``."""

from repro.polbase import ArrivalPolicy


class QuietHetPolicy(ArrivalPolicy):  # POL004: no gen_scores in chain
    """Claims heterogeneity awareness, publishes nothing."""

    name = "quiet-het"
    heterogeneity_aware = True


class RenamedPolicy(ArrivalPolicy):
    """Inherits schedule() and name from the imported base: clean."""

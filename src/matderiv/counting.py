"""Nominal operation counters.

Cost-model checks (linear tridiagonal solves, quadratic Sherman-Morrison,
Kronecker materialization vs. direct evaluation, solve/integration budgets)
are asserted against *nominal* counts: each instrumented routine reports the
textbook operation count for its input size through the one hook ``add``.
Tallies are process-wide: every open tally, nested or not, counts every
``add`` call; when no tally is open the hook does nothing.

Usage::

    with tally() as c:
        thomas_solve(t, b)
    assert c.solves == 1
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Counter:
    flops: int = 0              # nominal scalar multiply/add/div count
    solves: int = 0             # linear-system solve events
    rhs_components: int = 0     # ODE right-hand-side component evaluations
    integrations: int = 0       # full ODE integration passes


_open: list[Counter] = []


@contextmanager
def tally():
    c = Counter()
    _open.append(c)
    try:
        yield c
    finally:
        # by identity: Counters compare by value, so list.remove could pop
        # an equal (e.g. still empty) outer tally instead
        del _open[next(i for i, x in enumerate(_open) if x is c)]


def add(*, flops=0, solves=0, rhs_components=0, integrations=0) -> None:
    """Add the given counts to every open tally."""
    for c in _open:
        c.flops += flops
        c.solves += solves
        c.rhs_components += rhs_components
        c.integrations += integrations

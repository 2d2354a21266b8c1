"""Nominal operation counters.

Cost-model checks (linear tridiagonal solves, quadratic Sherman-Morrison,
Kronecker materialization vs. direct evaluation, solve/integration budgets)
are asserted against *nominal* counts: each instrumented routine reports the
textbook operation count for its input size.  Counters are kept on a
thread-local stack so nested tallies each see their own slice; when no tally
is active the hooks are no-ops.

Usage::

    with tally() as c:
        thomas_solve(t, b)
    assert c.solves == 1
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Counter:
    flops: int = 0              # nominal scalar multiply/add/div count
    solves: int = 0             # linear-system solve events
    rhs_components: int = 0     # ODE right-hand-side component evaluations
    integrations: int = 0       # full ODE integration passes


_local = threading.local()


def _stack() -> list[Counter]:
    if not hasattr(_local, "stack"):
        _local.stack = []
    return _local.stack


@contextmanager
def tally():
    c = Counter()
    stack = _stack()
    stack.append(c)
    try:
        yield c
    finally:
        # by identity: Counters compare by value, so list.remove could pop
        # an equal (e.g. still empty) outer tally instead
        del stack[next(i for i, x in enumerate(stack) if x is c)]


def add_flops(n: int) -> None:
    for c in _stack():
        c.flops += n


def add_solve(n: int = 1) -> None:
    for c in _stack():
        c.solves += n


def add_rhs_components(n: int) -> None:
    for c in _stack():
        c.rhs_components += n


def add_integration(n: int = 1) -> None:
    for c in _stack():
        c.integrations += n

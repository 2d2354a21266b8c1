"""Seeded random scalar-program generator over the package's primitive set.

Programs are expression trees over +, -, *, neg, guarded division, sin,
cos, exp, integer powers, and guarded log/sqrt compositions.  The guards
(log(c + u*u), sqrt(c + u*u), a / (c + b*b) with c >= 0.5) keep every
tree well defined for *any* real input, so the same program can be fed
floats, dual numbers, tape variables, or tape variables holding duals
without domain failures -- which is exactly what the cross-mode and
second-order tests need.

Generation is deterministic given the seed.  Trees whose value, Jacobian,
or (optionally) Hessian are non-finite or badly scaled at the base point
are discarded and regenerated, so downstream finite-difference
comparisons run in a sane numeric regime.  The filter looks only at
magnitudes, never at agreement between differentiation routes.
"""

from __future__ import annotations

import numpy as np

from matderiv import forward, scalarfn as sf, second_order
from matderiv.errors import MatDerivError

_UNARY = ("sin", "cos", "exp", "log", "sqrt", "powi", "neg")
_BINARY = ("add", "sub", "mul", "div")

MAX_DEPTH = 8
MAX_INPUTS = 6
_MAGNITUDE_CAP = 100.0


def _tree(rng, n_inputs: int, depth: int):
    if depth == 0 or rng.random() < 0.28:
        if rng.random() < 0.75:
            return ("x", int(rng.integers(n_inputs)))
        return ("c", float(rng.uniform(-2.0, 2.0)))
    if rng.random() < 0.45:
        kind = str(rng.choice(_BINARY))
        a = _tree(rng, n_inputs, depth - 1)
        b = _tree(rng, n_inputs, depth - 1)
        if kind == "div":
            return ("div", a, b, float(rng.uniform(0.5, 2.5)))
        return (kind, a, b)
    kind = str(rng.choice(_UNARY))
    a = _tree(rng, n_inputs, depth - 1)
    if kind in ("log", "sqrt"):
        return (kind, a, float(rng.uniform(0.5, 2.5)))
    if kind == "powi":
        return ("powi", a, int(rng.integers(2, 4)))
    return (kind, a)


def _same(c):
    return c


def _eval(node, xs, const=_same):
    """The tree's value at xs; each constant c enters as ``const(c)``."""
    kind = node[0]
    if kind == "x":
        return xs[node[1]]
    if kind == "c":
        return const(node[1])
    if kind == "neg":
        return -_eval(node[1], xs, const)
    if kind in ("sin", "cos", "exp"):
        return getattr(sf, kind)(_eval(node[1], xs, const))
    if kind in ("log", "sqrt"):
        u = _eval(node[1], xs, const)
        return getattr(sf, kind)(const(node[2]) + u * u)
    if kind == "powi":
        return sf.powi(_eval(node[1], xs, const), node[2])
    a = _eval(node[1], xs, const)
    b = _eval(node[2], xs, const)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if kind == "div":
        return a / (const(node[3]) + b * b)
    raise ValueError(f"unknown node kind {kind!r}")


def _refs(node) -> set[int]:
    """Indices of the inputs the tree actually reads."""
    kind = node[0]
    if kind == "x":
        return {node[1]}
    if kind == "c":
        return set()
    out = _refs(node[1])
    if kind in _BINARY:
        out = out | _refs(node[2])
    return out


class Program:
    """A generated scalar program: callable on a list of scalar-likes."""

    __slots__ = ("tree", "n_inputs", "x0")

    def __init__(self, tree, n_inputs: int, x0: np.ndarray):
        self.tree = tree
        self.n_inputs = n_inputs
        self.x0 = np.asarray(x0, dtype=float)

    def __call__(self, xs, const=_same):
        """The program at xs; ``const`` maps each constant before use
        (``Tape.lift`` records it as its own node)."""
        return _eval(self.tree, xs, const)


class VectorProgram:
    """A generated vector program: one tree per output component."""

    __slots__ = ("trees", "n_inputs", "x0")

    def __init__(self, trees, n_inputs: int, x0: np.ndarray):
        self.trees = trees
        self.n_inputs = n_inputs
        self.x0 = np.asarray(x0, dtype=float)

    @property
    def n_outputs(self) -> int:
        return len(self.trees)

    def __call__(self, xs):
        return [_eval(t, xs) for t in self.trees]


def _bounded(arr) -> bool:
    arr = np.asarray(arr, dtype=float)
    return bool(np.all(np.isfinite(arr)) and np.max(np.abs(arr), initial=0.0) <= _MAGNITUDE_CAP)


def _scales_ok(prog: Program, need_hessian: bool) -> bool:
    try:
        y = prog([float(v) for v in prog.x0])
        if not _bounded([forward.primal(y)]):
            return False
        jac = forward.jacobian_forward(prog, prog.x0)
        if not _bounded(jac):
            return False
        if need_hessian:
            hess = second_order.hessian(prog, prog.x0)
            if not _bounded(hess):
                return False
    except (MatDerivError, OverflowError, ZeroDivisionError):
        return False
    return True


def make_scalar_program(seed: int, need_hessian: bool = False) -> Program:
    """A domain-safe scalar program with a well-scaled base point.

    Deterministic in the seed: the internal retry loop consumes the same
    generator stream, so repeated calls reproduce the same tree.
    """
    rng = np.random.default_rng(seed)
    for _ in range(500):
        n = int(rng.integers(2, MAX_INPUTS + 1))
        depth = int(rng.integers(2, MAX_DEPTH + 1))
        tree = _tree(rng, n, depth)
        if not _refs(tree):
            continue
        prog = Program(tree, n, rng.uniform(-1.5, 1.5, size=n))
        if _scales_ok(prog, need_hessian):
            return prog
    raise RuntimeError(f"no usable program for seed {seed}")


def make_vector_program(seed: int) -> VectorProgram:
    """A domain-safe vector program (1-4 outputs) for vjp/Jacobian tests."""
    rng = np.random.default_rng(seed)
    for _ in range(500):
        n = int(rng.integers(2, MAX_INPUTS + 1))
        m = int(rng.integers(1, 5))
        trees = [_tree(rng, n, int(rng.integers(2, 6))) for _ in range(m)]
        if not set().union(*(_refs(t) for t in trees)):
            continue
        prog = VectorProgram(trees, n, rng.uniform(-1.5, 1.5, size=n))
        ok = True
        try:
            jac = forward.jacobian_forward(prog, prog.x0)
            ok = _bounded(jac) and _bounded(
                [forward.primal(v) for v in prog([float(x) for x in prog.x0])]
            )
        except (MatDerivError, OverflowError, ZeroDivisionError):
            ok = False
        if ok:
            return prog
    raise RuntimeError(f"no usable vector program for seed {seed}")

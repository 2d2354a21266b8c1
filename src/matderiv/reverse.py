"""Tape-based reverse-mode automatic differentiation.

A :class:`Tape` records every primitive application as one node, stored
flat in parallel lists: the op kind, two parent indices (-1 where a parent
is absent), the local partial with respect to each parent (evaluated at the
recorded primals) and the primal value.  A constant operand of ``+ - * /``
folds into its consumer's node, which then has one parent, so ``const``
nodes come only from ``Tape.lift``.  A :class:`Var` is a handle to one
node that also keeps its primal.  Parents always precede children, so one
append-only forward pass followed by one reverse sweep over the lists with
``+=`` accumulation yields all adjoints.  ``Tape.nodes`` is a read-only
view serving each node as a :class:`TapeNode`.  The elementary primitives
of :mod:`matderiv.forward` record through ``Var._elem``.

Primal values are *scalar-like*: plain floats in ordinary use, or
:class:`~matderiv.forward.Dual` when a gradient program is itself being
differentiated in forward mode (the forward-over-reverse composition used
for Hessian-vector products).  All primal/partial arithmetic here goes
through operations both kinds support.

Tapes are single-owner and per-computation: drivers create one, record
through it, sweep it, and drop it.  Mixing variables from two tapes is a
contract violation.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import forward as fwd
from .core import as_vector
from .errors import ContractError, ShapeError
from .forward import Dual


@dataclass(frozen=True)
class TapeNode:
    """One recorded node as served by ``Tape.nodes``: parents and partials
    hold one entry per parent present."""

    kind: str
    parents: tuple[int, ...]
    partials: tuple
    val: object  # float or Dual


class Var:
    """Handle to one tape node and its primal; arithmetic on handles records
    new nodes.  Any other operand goes through ``_folds``; one that does not
    fold gives NotImplemented, so an ndarray broadcasts as on floats."""

    __slots__ = ("tape", "index", "val")

    def __init__(self, tape: "Tape", index: int, val):
        self.tape = tape
        self.index = index
        self.val = val

    def __repr__(self):
        return f"Var(#{self.index}={self.val!r})"

    # arithmetic: every op records exactly one node.  A constant operand c
    # folds into that node, which then has one parent: its partial and
    # primal are the ones the node would have with c lifted onto the tape,
    # formed by the same operations, and a constant's adjoint flows nowhere,
    # so every adjoint is that of the lifted form
    def __add__(self, other):
        tape = self.tape
        if other.__class__ is Var and other.tape is tape:
            return tape._push("add", self.index, other.index, 1.0, 1.0, self.val + other.val)
        if other.__class__ is float or _folds(other):
            return tape._push("add", self.index, -1, 1.0, None, self.val + other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        tape = self.tape
        if other.__class__ is Var and other.tape is tape:
            return tape._push("sub", self.index, other.index, 1.0, -1.0, self.val - other.val)
        if other.__class__ is float or _folds(other):
            return tape._push("sub", self.index, -1, 1.0, None, self.val - other)
        return NotImplemented

    def __rsub__(self, other):
        if other.__class__ is float or _folds(other):
            return self.tape._push("sub", self.index, -1, -1.0, None, other - self.val)
        return NotImplemented

    def __mul__(self, other):
        tape = self.tape
        a = self.val
        if other.__class__ is Var and other.tape is tape:
            b = other.val
            return tape._push("mul", self.index, other.index, b, a, a * b)
        if other.__class__ is float or _folds(other):
            return tape._push("mul", self.index, -1, other, None, a * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        tape = self.tape
        if other.__class__ is Var and other.tape is tape:
            b = other.val
            fwd.check_divisor(fwd.primal(b))
            q = self.val / b  # the partials 1/b and -q/b form no b*b (see Dual)
            return tape._push("div", self.index, other.index, 1.0 / b, -q / b, q)
        if other.__class__ is float or _folds(other):
            fwd.check_divisor(fwd.primal(other))
            q = self.val / other
            return tape._push("div", self.index, -1, 1.0 / other, None, q)
        return NotImplemented

    def __rtruediv__(self, other):
        if other.__class__ is float or _folds(other):
            b = self.val
            fwd.check_divisor(fwd.primal(b))
            q = other / b
            return self.tape._push("div", self.index, -1, -q / b, None, q)
        return NotImplemented

    def __neg__(self):
        return self.tape._push("neg", self.index, -1, -1.0, None, -self.val)

    __pow__ = fwd.powi

    def _elem(self, kind: str, val, partial) -> "Var":
        """Record one elementary primitive of this variable: its value and
        local derivative at this primal."""
        return self.tape._push(kind, self.index, -1, partial, None, val)

    # comparisons read the primal only ------------------------------------
    __eq__ = fwd.primal_cmp(operator.eq)
    __lt__ = fwd.primal_cmp(operator.lt)
    __le__ = fwd.primal_cmp(operator.le)
    __gt__ = fwd.primal_cmp(operator.gt)
    __ge__ = fwd.primal_cmp(operator.ge)


def _folds(x) -> bool:
    """Whether x folds into a node as a constant: a number or a Dual.  A
    variable (of another tape, where it reaches here) is a ContractError."""
    if x.__class__ is Dual or isinstance(x, fwd.REAL):
        return True
    if isinstance(x, Var):
        raise ContractError("cannot combine variables from different tapes")
    return False


class _NodeView(Sequence):
    """Read-only view of a tape's nodes; each item is built on access."""

    __slots__ = ("_tape",)

    def __init__(self, tape: "Tape"):
        self._tape = tape

    def __len__(self):
        return len(self._tape._val)

    def __getitem__(self, i):
        t = self._tape
        parents = tuple(p for p in (t._p0[i], t._p1[i]) if p >= 0)
        return TapeNode(t._kind[i], parents, (t._d0[i], t._d1[i])[:len(parents)], t._val[i])


class Tape:
    """Append-only record of primitive applications as parallel lists."""

    __slots__ = ("_kind", "_p0", "_p1", "_d0", "_d1", "_val")

    def __init__(self):
        self._kind: list[str] = []
        self._p0: list[int] = []
        self._p1: list[int] = []
        self._d0: list = []
        self._d1: list = []
        self._val: list = []

    @property
    def nodes(self) -> _NodeView:
        return _NodeView(self)

    def _push(self, kind: str, p0: int, p1: int, d0, d1, val) -> Var:
        """Append one node; parents -1 where absent, already validated."""
        i = len(self._val)
        self._kind.append(kind)
        self._p0.append(p0)
        self._p1.append(p1)
        self._d0.append(d0)
        self._d1.append(d1)
        self._val.append(val)
        return Var(self, i, val)

    def input(self, val) -> Var:
        return self._push("input", -1, -1, None, None, val)

    def lift(self, x) -> Var:
        """A Var on this tape: pass-through for own vars, a constant node
        otherwise (arithmetic folds its constants instead; ``powi(x, 0)``
        and the constant output of ``gradient_generic`` record one).  The
        drivers read each output variable through it, so one of another
        tape is a ContractError, not a seed of the wrong node."""
        if x.__class__ is Var and x.tape is self:
            return x
        if not _folds(x):
            raise TypeError(f"cannot lift {type(x).__name__} onto a tape")
        return self._push("const", -1, -1, None, None, x)

    @property
    def primitive_count(self) -> int:
        """Recorded primitive applications (inputs/constants excluded)."""
        k = self._kind
        return len(k) - k.count("input") - k.count("const")

    def backward(self, seeds: dict[int, object]) -> list:
        """Reverse accumulation sweep.

        ``seeds`` maps node index -> output adjoint.  Returns the adjoint of
        every node; each node is visited exactly once, children before
        parents, and parent 0 takes its share before parent 1.
        """
        n = len(self._val)
        adj: list = [0.0] * n
        for i, s in seeds.items():
            adj[i] = adj[i] + s
        for i, p0, p1, d0, d1 in zip(range(n - 1, -1, -1), reversed(self._p0),
                                     reversed(self._p1), reversed(self._d0),
                                     reversed(self._d1)):
            if p0 < 0:
                continue
            a = adj[i]
            if isinstance(a, float) and a == 0.0:
                continue
            adj[p0] = adj[p0] + d0 * a
            if p1 >= 0:
                adj[p1] = adj[p1] + d1 * a
        return adj


# drivers -------------------------------------------------------------------

def gradient_generic(f, xs: list) -> list:
    """Gradient of a scalar program at scalar-like inputs.

    Returns one adjoint per input, in order; adjoints are Duals when the
    inputs were (that is what forward-over-reverse consumes).  The output,
    read by ``forward.scalar_output`` and ``Tape.lift``, is seeded with 1;
    unused inputs get adjoint 0, as every input of a constant program does.
    """
    tape = Tape()
    in_vars = [tape.input(v) for v in xs]
    adj = tape.backward({tape.lift(fwd.scalar_output(f(in_vars))).index: 1.0})
    return [adj[v.index] for v in in_vars]


def gradient(f, x) -> np.ndarray:
    """grad f as a plain vector, for float inputs."""
    gs = gradient_generic(f, as_vector(x).tolist())
    return np.asarray([fwd.primal(g) for g in gs], dtype=float)


def _record_outputs(f, x):
    """Record a vector program at the point x: the tape, its input
    variables and the program's outputs as a list."""
    tape = Tape()
    in_vars = [tape.input(v) for v in as_vector(x).tolist()]
    return tape, in_vars, fwd.as_outputs(f(in_vars))


def _pullback(tape: Tape, in_vars: list, outs: list, w: np.ndarray) -> np.ndarray:
    """f'(x)^T w from one multi-seed sweep of a recording of f at x."""
    if not 1 <= w.ndim <= 2 or len(w) != len(outs):
        raise ShapeError(f"vjp: {len(outs)} outputs but w has shape {w.shape}")
    seeds: dict[int, object] = {}
    # a weight vector seeds plain floats, keeping the scalar sweep's cost
    for o, wi in zip(outs, w.tolist() if w.ndim == 1 else w):
        if isinstance(o, Var):
            i = tape.lift(o).index
            seeds[i] = seeds.get(i, 0.0) + wi
    adj = tape.backward(seeds)
    return fwd.stack_rows([adj[v.index] for v in in_vars], w.shape[1:])


def vjp(f, x, w) -> np.ndarray:
    """w^T f'(x) for a vector program: one recording, one multi-seed sweep.
    A weight block w of shape (m, k) seeds output i with the row w[i] and
    gives the (n, k) block f'(x)^T w, each adjoint a row of k components."""
    w = np.asarray(w, dtype=float)
    return _pullback(*_record_outputs(f, x), w)


def jacobian_reverse(f, x) -> np.ndarray:
    """m-by-n Jacobian from one recording, swept with the seed block I_m."""
    tape, in_vars, outs = _record_outputs(f, x)
    return _pullback(tape, in_vars, outs, np.eye(len(outs))).T

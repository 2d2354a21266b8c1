"""Tape-based reverse-mode automatic differentiation.

A :class:`Tape` records every primitive application as a node holding the
op kind, at most two parent indices, the local partial with respect to each
parent (evaluated at the recorded primals), and the primal value.  Parents
always precede children, so one append-only forward pass followed by one
reverse sweep with ``+=`` accumulation yields all adjoints.

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
from dataclasses import dataclass

import numpy as np

from . import forward as fwd
from .errors import ContractError, DomainError, ShapeError
from .forward import Dual

_SCALARLIKE = (int, float, np.integer, np.floating, Dual)


@dataclass
class TapeNode:
    kind: str
    parents: tuple[int, ...]
    partials: tuple
    val: object  # float or Dual


class Var:
    """Handle to one tape node; arithmetic on handles records new nodes."""

    __slots__ = ("tape", "index")

    def __init__(self, tape: "Tape", index: int):
        self.tape = tape
        self.index = index

    @property
    def val(self):
        return self.tape.nodes[self.index].val

    def __repr__(self):
        return f"Var(#{self.index}={self.val!r})"

    # arithmetic: every op records exactly one node -----------------------
    def __add__(self, other):
        o = self.tape.lift(other)
        return self.tape.record("add", (self, o), (1.0, 1.0), self.val + o.val)

    __radd__ = __add__

    def __sub__(self, other):
        o = self.tape.lift(other)
        return self.tape.record("sub", (self, o), (1.0, -1.0), self.val - o.val)

    def __rsub__(self, other):
        return self.tape.lift(other).__sub__(self)

    def __mul__(self, other):
        o = self.tape.lift(other)
        return self.tape.record("mul", (self, o), (o.val, self.val), self.val * o.val)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self.tape.lift(other)
        ov = o.val
        if fwd.primal(ov) == 0.0:
            raise DomainError("division by a zero primal")
        return self.tape.record(
            "div",
            (self, o),
            (1.0 / ov, -self.val / (ov * ov)),
            self.val / ov,
        )

    def __rtruediv__(self, other):
        return self.tape.lift(other).__truediv__(self)

    def __neg__(self):
        return self.tape.record("neg", (self,), (-1.0,), -self.val)

    def __pow__(self, k):
        if not isinstance(k, (int, np.integer)):
            raise ContractError(f"integer powers only, got exponent {k!r}")
        k = int(k)
        if fwd.primal(self.val) == 0.0 and k < 0:
            raise DomainError("negative power of a zero primal")
        if k == 0:
            return self.tape.lift(1.0)
        val = self.val**k
        part = k * self.val ** (k - 1)
        return self.tape.record("powi", (self,), (part,), val)

    # comparisons read the primal only ------------------------------------
    __eq__ = fwd.primal_cmp(operator.eq)
    __lt__ = fwd.primal_cmp(operator.lt)
    __le__ = fwd.primal_cmp(operator.le)
    __gt__ = fwd.primal_cmp(operator.gt)
    __ge__ = fwd.primal_cmp(operator.ge)


class Tape:
    def __init__(self):
        self.nodes: list[TapeNode] = []

    def _push(self, node: TapeNode) -> Var:
        self.nodes.append(node)
        return Var(self, len(self.nodes) - 1)

    def input(self, val) -> Var:
        return self._push(TapeNode("input", (), (), val))

    def lift(self, x) -> Var:
        """A Var on this tape: pass-through for own vars, a constant node
        otherwise.  Vars from another tape are rejected."""
        if isinstance(x, Var):
            if x.tape is not self:
                raise ContractError("cannot combine variables from different tapes")
            return x
        if isinstance(x, _SCALARLIKE):
            return self._push(TapeNode("const", (), (), x))
        raise TypeError(f"cannot lift {type(x).__name__} onto a tape")

    def record(self, kind: str, parents: tuple, partials: tuple, val) -> Var:
        """Append one primitive application.

        ``parents`` are Vars (at most two), ``partials`` the matching
        d(node)/d(parent) values at the recorded primals.
        """
        idx = []
        for p in parents:
            if not isinstance(p, Var) or p.tape is not self:
                raise ContractError("record: parents must be variables of this tape")
            idx.append(p.index)
        if len(idx) > 2:
            raise ContractError("primitives take at most two parents")
        return self._push(TapeNode(kind, tuple(idx), tuple(partials), val))

    @property
    def primitive_count(self) -> int:
        """Recorded primitive applications (inputs/constants excluded)."""
        return sum(1 for n in self.nodes if n.kind not in ("input", "const"))

    def backward(self, seeds: dict[int, object]) -> list:
        """Reverse accumulation sweep.

        ``seeds`` maps node index -> output adjoint.  Returns the adjoint of
        every node; each node is visited exactly once, children before
        parents.
        """
        adj: list = [0.0] * len(self.nodes)
        for i, s in seeds.items():
            adj[i] = adj[i] + s
        for i in range(len(self.nodes) - 1, -1, -1):
            a = adj[i]
            if isinstance(a, float) and a == 0.0:
                continue
            node = self.nodes[i]
            for p, d in zip(node.parents, node.partials):
                adj[p] = adj[p] + d * a
        return adj


# elementary functions on Vars ----------------------------------------------

def _elem_pair(kind: str, v):
    """(value, local partial) of a named elementary primitive at primal v."""
    if kind == "sin":
        return fwd.sin(v), fwd.cos(v)
    if kind == "cos":
        return fwd.cos(v), -fwd.sin(v)
    if kind == "exp":
        e = fwd.exp(v)
        return e, e
    if kind == "log":
        return fwd.log(v), 1.0 / v
    if kind == "sqrt":
        if fwd.primal(v) == 0.0:
            raise DomainError("sqrt is not differentiable at 0")
        r = fwd.sqrt(v)
        return r, 0.5 / r
    raise ContractError(f"unknown elementary primitive {kind!r}")


def elem(kind: str, x: Var) -> Var:
    val, part = _elem_pair(kind, x.val)
    return x.tape.record(kind, (x,), (part,), val)


# drivers -------------------------------------------------------------------

def gradient_generic(f, xs: list) -> list:
    """Gradient of a scalar program at scalar-like inputs.

    Returns one adjoint per input, in order; adjoints are Duals when the
    inputs were (that is what forward-over-reverse consumes).  The output
    adjoint is seeded with 1; unused inputs get adjoint 0.
    """
    tape = Tape()
    in_vars = [tape.input(v) for v in xs]
    out = f(in_vars)
    if isinstance(out, _SCALARLIKE):
        return [0.0] * len(xs)  # constant program
    if not isinstance(out, Var):
        raise ContractError("gradient needs a scalar-output program")
    adj = tape.backward({out.index: 1.0})
    return [adj[v.index] for v in in_vars]


def gradient(f, x) -> np.ndarray:
    """grad f as a plain vector, for float inputs."""
    x = np.asarray(x, dtype=float)
    gs = gradient_generic(f, [float(v) for v in x])
    return np.asarray([fwd.primal(g) if isinstance(g, Dual) else g for g in gs],
                      dtype=float)


def vjp(f, x, w) -> np.ndarray:
    """w^T f'(x) for a vector program: one recording, one multi-seed sweep.
    A weight block w of shape (m, k) seeds output i with the row w[i] and
    gives the (n, k) block f'(x)^T w, each adjoint a row of k components."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    tape = Tape()
    in_vars = [tape.input(float(v)) for v in x]
    out = f(in_vars)
    outs = [out] if isinstance(out, (Var, *_SCALARLIKE)) else list(out)
    if len(outs) != len(w):
        raise ShapeError(f"vjp: {len(outs)} outputs but len(w) == {len(w)}")
    seeds: dict[int, object] = {}
    # a weight vector seeds plain floats, keeping the scalar sweep's cost
    for o, wi in zip(outs, w.tolist() if w.ndim == 1 else w):
        if isinstance(o, Var):
            seeds[o.index] = seeds.get(o.index, 0.0) + wi
    adj = tape.backward(seeds)
    return fwd.stack_rows([adj[v.index] for v in in_vars], w.shape[1:])

"""Forward-mode automatic differentiation via dual numbers.

A :class:`Dual` carries (val, deriv) through a program; arithmetic follows
the calculus rules with ``eps**2 = 0``, and the primal value never depends
on the tangent.  A tangent is a float or a 1-D ndarray block holding one
component per seed direction, so one pass carries a block of directions
(``jacobian_forward`` seeds I_n).  The primitive set is fixed:
``+ - * /``, ``sin``, ``cos``, ``exp``, ``log``, ``sqrt``, integer powers,
and comparisons (which read only the primal).  The elementary functions
here accept plain numbers as well, so one program text runs both with and
without derivatives.

Program convention used by the drivers: a scalar program maps one
scalar-like to one scalar-like; a vector program maps a sequence of
scalar-likes to a sequence of scalar-likes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, ShapeError

_NUM = (int, float, np.integer, np.floating)
_TANGENT = (float, np.ndarray)  # kept as is; any other tangent goes through float()


def primal_cmp(op):
    """A comparison method for Dual and tape variables reading primals only;
    NotImplemented for an operand that is not a number, a Dual or of the
    receiver's class, so Python tries the mirrored method or raises."""
    def cmp(self, other):
        a = self.val
        if other.__class__ is Dual:
            b = other.val
        elif other.__class__ is float:
            b = other
        elif isinstance(other, (Dual, type(self))):
            b = other.val
        elif isinstance(other, _NUM):
            b = float(other)
        else:
            return NotImplemented
        # a Dual's primal is always a float; a tape variable's may be a Dual
        if a.__class__ is float and b.__class__ is float:
            return op(a, b)
        return op(primal(a), primal(b))
    return cmp


class Dual:
    """Dual number val + deriv*eps with eps**2 = 0.

    deriv is a float or an ndarray block of tangent components.  Promoting
    a constant r gives (r, 0).  Comparisons, equality included,
    read the primal value only, so branches behave exactly as they would on
    plain floats.
    """

    __slots__ = ("val", "deriv")

    def __init__(self, val, deriv=0.0):
        self.val = float(val)
        self.deriv = deriv if type(deriv) in _TANGENT else float(deriv)

    def __repr__(self):
        return f"Dual({self.val!r}, {self.deriv!r})"

    @staticmethod
    def lift(x) -> "Dual":
        if isinstance(x, Dual):
            return x
        if isinstance(x, _NUM):
            return Dual(float(x), 0.0)
        raise TypeError(f"cannot lift {type(x).__name__} to Dual")

    # arithmetic: NotImplemented for an operand lift rejects, so Python tries
    # its reflected method (a tape variable records the operation); the
    # reflected methods here have no such fallback and let lift raise
    def __add__(self, other):
        try:
            o = Dual.lift(other)
        except TypeError:
            return NotImplemented
        return Dual(self.val + o.val, self.deriv + o.deriv)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            o = Dual.lift(other)
        except TypeError:
            return NotImplemented
        return Dual(self.val - o.val, self.deriv - o.deriv)

    def __rsub__(self, other):
        o = Dual.lift(other)
        return Dual(o.val - self.val, o.deriv - self.deriv)

    def __mul__(self, other):
        try:
            o = Dual.lift(other)
        except TypeError:
            return NotImplemented
        return Dual(self.val * o.val, self.deriv * o.val + self.val * o.deriv)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            o = Dual.lift(other)
        except TypeError:
            return NotImplemented
        if o.val == 0.0:
            raise DomainError("dual division by a zero primal")
        return Dual(
            self.val / o.val,
            (self.deriv * o.val - self.val * o.deriv) / (o.val * o.val),
        )

    def __rtruediv__(self, other):
        return Dual.lift(other).__truediv__(self)

    def __neg__(self):
        return Dual(-self.val, -self.deriv)

    def __pow__(self, k):
        return powi(self, k)

    # comparisons read the primal only ------------------------------------
    __eq__ = primal_cmp(operator.eq)
    __lt__ = primal_cmp(operator.lt)
    __le__ = primal_cmp(operator.le)
    __gt__ = primal_cmp(operator.gt)
    __ge__ = primal_cmp(operator.ge)


def primal(x) -> float:
    """The value part of a scalar-like, unwrapped all the way down (a tape
    variable's value may itself be a dual)."""
    while type(x) is not float:
        if not hasattr(x, "val"):
            return float(x)
        x = x.val
    return x


# elementary functions, generic over float | Dual ---------------------------

def sin(x):
    if isinstance(x, Dual):
        return Dual(math.sin(x.val), math.cos(x.val) * x.deriv)
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(math.cos(x.val), -math.sin(x.val) * x.deriv)
    return math.cos(x)


def exp(x):
    if isinstance(x, Dual):
        e = math.exp(x.val)
        return Dual(e, e * x.deriv)
    return math.exp(x)


def log(x):
    if primal(x) <= 0.0:
        raise DomainError(f"log domain: need a positive primal, got {primal(x)}")
    if isinstance(x, Dual):
        return Dual(math.log(x.val), x.deriv / x.val)
    return math.log(x)


def sqrt(x):
    p = primal(x)
    if p < 0.0:
        raise DomainError(f"sqrt domain: need a nonnegative primal, got {p}")
    if isinstance(x, Dual):
        if p == 0.0:
            raise DomainError("sqrt is not differentiable at 0")
        r = math.sqrt(x.val)
        return Dual(r, 0.5 / r * x.deriv)
    return math.sqrt(x)


def powi(x, k):
    """Integer power x**k with the analytic k*x**(k-1) tangent rule."""
    if not isinstance(k, (int, np.integer)):
        raise ContractError(f"powi exponent must be an integer, got {k!r}")
    k = int(k)
    if primal(x) == 0.0 and k < 0:
        raise DomainError("negative power of a zero primal")
    if isinstance(x, Dual):
        if k == 0:
            return Dual(1.0, 0.0)
        return Dual(x.val**k, k * x.val ** (k - 1) * x.deriv)
    return float(x) ** k


@dataclass
class DualVector:
    """A vector of duals kept as parallel (vals, derivs) arrays; derivs of
    shape (n, k) give dual i the tangent block derivs[i]."""

    vals: np.ndarray
    derivs: np.ndarray

    def __post_init__(self):
        self.vals = np.asarray(self.vals, dtype=float)
        self.derivs = np.asarray(self.derivs, dtype=float)
        if (self.vals.ndim != 1 or self.derivs.ndim > 2
                or self.derivs.shape[:1] != self.vals.shape):
            raise ShapeError("DualVector needs 1-D vals and derivs of shape "
                             "(n,) or (n, k)")

    def seeds(self) -> list[Dual]:
        return [Dual(v, d) for v, d in zip(self.vals, self.derivs)]


def stack_rows(rows, shape=()) -> np.ndarray:
    """Array of shape (len(rows), *shape) with row i = rows[i], a block of
    that shape or a float filling the row (e.g. a plain number's 0.0)."""
    out = np.empty((len(rows), *shape))
    for i, r in enumerate(rows):
        out[i] = r
    return out


def derivative(f, x: float) -> float:
    """f'(x) for a scalar program, exact to roundoff (tangent seeded 1)."""
    out = f(Dual(float(x), 1.0))
    return out.deriv if isinstance(out, Dual) else 0.0


def babylonian(x, n_steps: int = 10):
    """Square-root iteration t <- (t + x/t)/2 starting from t = (1+x)/2.

    Accepts a plain number or a Dual; with a dual input the tangent
    converges to 0.5/sqrt(x).  Needs a positive primal.
    """
    if n_steps < 1:
        raise ContractError("babylonian needs n_steps >= 1")
    if primal(x) <= 0.0:
        raise DomainError("babylonian needs a positive input")
    t = (1.0 + x) / 2.0
    for _ in range(n_steps - 1):
        t = (t + x / t) / 2.0
    return t


def directional_derivative(f, x, v) -> np.ndarray:
    """f'(x) v from one dual pass seeded with x + eps*v.

    A direction v of shape (n,) gives the m output tangents; a block v of
    shape (n, k) carries k directions at once and gives the (m, k) block.
    An output that is a plain number has a zero row.
    """
    out = f(DualVector(x, v).seeds())
    outs = [out] if isinstance(out, (Dual, *_NUM)) else list(out)
    return stack_rows([o.deriv if isinstance(o, Dual) else 0.0 for o in outs],
                      np.shape(v)[1:])


def jacobian_forward(f, x) -> np.ndarray:
    """m-by-n Jacobian from one dual pass with the tangent block I_n."""
    return directional_derivative(f, x, np.eye(len(x)))

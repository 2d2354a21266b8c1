"""Forward-mode automatic differentiation via dual numbers.

A :class:`Dual` carries (val, deriv) through a program; arithmetic follows
the calculus rules with ``eps**2 = 0``, and the primal value never depends
on the tangent.  A tangent is a float or a 1-D ndarray block holding one
component per seed direction, so one pass carries a block of directions
(``jacobian_forward`` seeds I_n).  The primitive set is fixed:
``+ - * /``, ``sin``, ``cos``, ``exp``, ``log``, ``sqrt``, integer powers,
and comparisons (which read only the primal).  The elementary functions
are built at import from one rule table and serve plain numbers, Duals and
tape variables alike (a tape variable records through its ``_elem``
method, so this module does not import ``reverse``).

Program convention used by the drivers: a program maps a list of
scalar-likes to one scalar-like (a number, or a value with a primal
``val``) or to an iterable of them (a list, a tuple, a generator, an
ndarray), and :func:`as_outputs` is the one reader of its outputs.  The
drivers read their point through ``core.as_vector``: a point that is not
1-D is a ShapeError and a non-finite one a ContractError.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .core import as_vector
from .errors import ContractError, DivisionByZeroError, DomainError, ShapeError

_NUM = (int, float, np.integer, np.floating)


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
        # a float or an array with an axis is kept as is; anything else,
        # a 0-d array included, goes through float(), so arithmetic on
        # tangents never yields a numpy scalar
        t = type(deriv)
        self.deriv = deriv if t is float or (t is np.ndarray and deriv.ndim) else float(deriv)

    def __repr__(self):
        return f"Dual({self.val!r}, {self.deriv!r})"

    @staticmethod
    def lift(x) -> "Dual":
        if isinstance(x, Dual):
            return x
        if isinstance(x, _NUM):
            return Dual(float(x), 0.0)
        raise TypeError(f"cannot lift {type(x).__name__} to Dual")

    # arithmetic: a Dual or float operand takes a fast path, any other is
    # lifted first; an operand lift rejects gives NotImplemented, so Python
    # tries its reflected method (a tape variable records the operation),
    # while the reflected methods let lift raise.  Every path forms the
    # lifted form's expressions: a float c enters as (c, 0.0) with its 0.0
    # tangent kept, since deriv + 0.0 turns a -0.0 tangent into +0.0
    def __add__(self, other):
        if other.__class__ is not Dual:
            if other.__class__ is float:
                return _dual(self.val + other, self.deriv + 0.0)
            try:
                other = Dual.lift(other)
            except TypeError:
                return NotImplemented
        return _dual(self.val + other.val, self.deriv + other.deriv)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Dual:
            if other.__class__ is float:
                return _dual(self.val - other, self.deriv - 0.0)
            try:
                other = Dual.lift(other)
            except TypeError:
                return NotImplemented
        return _dual(self.val - other.val, self.deriv - other.deriv)

    def __rsub__(self, other):
        if other.__class__ is float:
            return _dual(other - self.val, 0.0 - self.deriv)
        return Dual.lift(other).__sub__(self)

    def __mul__(self, other):
        if other.__class__ is not Dual:
            if other.__class__ is float:
                return _dual(self.val * other, self.deriv * other + self.val * 0.0)
            try:
                other = Dual.lift(other)
            except TypeError:
                return NotImplemented
        return _dual(self.val * other.val, self.deriv * other.val + self.val * other.deriv)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not Dual:
            if other.__class__ is float:
                check_divisor(other)
                q = self.val / other
                return _dual(q, (self.deriv - q * 0.0) / other)
            try:
                other = Dual.lift(other)
            except TypeError:
                return NotImplemented
        b = other.val
        check_divisor(b)
        # w = a/b, w' = (a' - w b')/b: no b*b, which leaves the float range
        # long before the quotient or its derivative does
        q = self.val / b
        return _dual(q, (self.deriv - q * other.deriv) / b)

    def __rtruediv__(self, other):
        if other.__class__ is float:
            b = self.val
            check_divisor(b)
            q = other / b
            return _dual(q, (0.0 - q * self.deriv) / b)
        return Dual.lift(other).__truediv__(self)

    def __neg__(self):
        return _dual(-self.val, -self.deriv)

    def __pow__(self, k):
        return powi(self, k)

    # comparisons read the primal only ------------------------------------
    __eq__ = primal_cmp(operator.eq)
    __lt__ = primal_cmp(operator.lt)
    __le__ = primal_cmp(operator.le)
    __gt__ = primal_cmp(operator.gt)
    __ge__ = primal_cmp(operator.ge)


_new = object.__new__


def _dual(val: float, deriv) -> Dual:
    """A Dual from a float primal and a float or ndarray tangent, without
    ``__init__``'s conversions: arithmetic on Duals and floats yields no
    other kinds."""
    d = _new(Dual)
    d.val = val
    d.deriv = deriv
    return d


def check_divisor(p: float) -> None:
    """Reject a zero divisor primal, in every mode alike: the error is a
    DomainError and, as for float division, a ZeroDivisionError."""
    if p == 0.0:
        raise DivisionByZeroError("division by a zero primal")


def primal(x) -> float:
    """The value part of a scalar-like, unwrapped all the way down (a tape
    variable's value may itself be a dual)."""
    while type(x) is not float:
        if not hasattr(x, "val"):
            return float(x)
        x = x.val
    return x


# the rule table of the elementary primitives ------------------------------

def _number(x, kind: str) -> float:
    if isinstance(x, _NUM):
        return float(x)
    raise TypeError(f"{kind} needs a number, a Dual or a tape variable, "
                    f"got {type(x).__name__}")


def _elementary(kind: str, value, deriv, tangent=None):
    """The primitive ``kind`` on every scalar kind, built from its rule:
    ``value(v)`` at a float primal, raising DomainError outside the domain,
    and the local derivative ``deriv(v, y)`` at a float or Dual primal v of
    value y, checking the derivative's own domain (sqrt at 0).
    ``tangent(v, t)``, where given, is a Dual's tangent in place of
    deriv(v, y) * t."""
    def f(x):
        cls = x.__class__
        if cls is Dual:
            v, t = x.val, x.deriv
            y = value(v)
            return Dual(y, deriv(v, y) * t if tangent is None else tangent(v, t))
        if cls is not float:
            elem = getattr(x, "_elem", None)
            if elem is not None:
                v = x.val
                y = f(v)
                return elem(kind, y, deriv(v, y))
            x = _number(x, kind)
        return value(x)
    f.__name__ = f.__qualname__ = kind
    return f


def _log(v: float) -> float:
    if v <= 0.0:
        raise DomainError(f"log domain: need a positive primal, got {v}")
    return math.log(v)


def _sqrt(v: float) -> float:
    if v < 0.0:
        raise DomainError(f"sqrt domain: need a nonnegative primal, got {v}")
    return math.sqrt(v)


def _sqrt_deriv(v, y):
    if y == 0.0:
        raise DomainError("sqrt is not differentiable at 0")
    return 0.5 / y


sin = _elementary("sin", math.sin, lambda v, y: cos(v))
cos = _elementary("cos", math.cos, lambda v, y: -sin(v))
exp = _elementary("exp", math.exp, lambda v, y: y)
# a Dual's log tangent stays the quotient t / v, which rounds differently
# from (1 / v) * t
log = _elementary("log", _log, lambda v, y: 1.0 / v, lambda v, t: t / v)
sqrt = _elementary("sqrt", _sqrt, _sqrt_deriv)


def _powi(v: float, k: int) -> float:
    if k < 0 and v == 0.0:
        raise DomainError("negative power of a zero primal")
    return v**k


def _powi_deriv(v, k: int):
    return k * v ** (k - 1)


def powi(x, k):
    """Integer power x**k with the analytic k*x**(k-1) tangent rule; x**0 is
    the constant 1 in every mode (a const node on a tape)."""
    if not isinstance(k, (int, np.integer)):
        raise ContractError(f"powi exponent must be an integer, got {k!r}")
    k = int(k)
    cls = x.__class__
    if cls is Dual:
        v = x.val
        return Dual(_powi(v, k), _powi_deriv(v, k) * x.deriv) if k else Dual(1.0, 0.0)
    if cls is not float:
        elem = getattr(x, "_elem", None)
        if elem is not None:
            v = x.val
            return elem("powi", powi(v, k), _powi_deriv(v, k)) if k else x.tape.lift(1.0)
        x = _number(x, "powi")
    return _powi(x, k)


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


def as_outputs(out) -> list:
    """A program's outputs as a list: a scalar-like (a number, or a value
    with a primal ``val``) is one output; anything else is iterated."""
    if isinstance(out, _NUM) or hasattr(out, "val"):
        return [out]
    return list(out)


def directional_derivative(f, x, v) -> np.ndarray:
    """f'(x) v from one dual pass seeded with x + eps*v.

    A direction v of shape (n,) gives the m output tangents; a block v of
    shape (n, k) carries k directions at once and gives the (m, k) block.
    An output that is a plain number has a zero row.
    """
    x = as_vector(x)
    v = np.asarray(v, dtype=float)
    if not 1 <= v.ndim <= 2 or v.shape[0] != len(x):
        raise ShapeError(f"direction of shape {v.shape} at a point of {len(x)} entries; "
                         "need (n,) or (n, k)")
    outs = as_outputs(f([Dual(a, d) for a, d in zip(x.tolist(), v)]))
    return stack_rows([o.deriv if isinstance(o, Dual) else 0.0 for o in outs], v.shape[1:])


def jacobian_forward(f, x) -> np.ndarray:
    """m-by-n Jacobian from one dual pass with the tangent block I_n (the
    point is read by ``directional_derivative``)."""
    return directional_derivative(f, x, np.eye(np.size(x)))

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
ndarray); :func:`as_outputs` is the one reader of its outputs and alone
decides what an output may be, for every mode.
:func:`scalar_output`, built on it, reads the one output of a scalar
program for every mode.  The drivers read their point through
``core.as_vector``: a point that is not 1-D is a ShapeError and a
non-finite one a ContractError.  :func:`evaluate` is the one float
evaluation of a program, under the same contract.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .core import as_vector
from .errors import ContractError, DivisionByZeroError, DomainError, ShapeError

# the real number types: what folds into Dual and tape arithmetic as a constant
REAL = (int, float, np.integer, np.floating)


def primal_cmp(op):
    """A comparison method for Dual and tape variables reading primals only;
    NotImplemented for an operand that is not a number, a Dual or of the
    receiver's class, so Python tries the mirrored method or raises."""
    def cmp(self, other):
        if isinstance(other, (Dual, type(self))):
            other = other.val
        elif not isinstance(other, REAL):
            return NotImplemented
        return op(primal(self.val), primal(other))
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

    # arithmetic: a Dual or a float operand takes its own path; any other
    # number reaches the float path through float(), and anything else gives
    # NotImplemented, so Python tries the other operand's method (a tape
    # variable records the operation) or raises TypeError.  The float path
    # forms the expressions of the Dual (c, 0.0): its 0.0 tangent is kept,
    # since deriv + 0.0 turns a -0.0 tangent into +0.0
    def __add__(self, other):
        if other.__class__ is not Dual:
            if other.__class__ is float:
                return _dual(self.val + other, self.deriv + 0.0)
            return self.__add__(float(other)) if isinstance(other, REAL) else NotImplemented
        return _dual(self.val + other.val, self.deriv + other.deriv)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Dual:
            if other.__class__ is float:
                return _dual(self.val - other, self.deriv - 0.0)
            return self.__sub__(float(other)) if isinstance(other, REAL) else NotImplemented
        return _dual(self.val - other.val, self.deriv - other.deriv)

    def __rsub__(self, other):
        if other.__class__ is float:
            return _dual(other - self.val, 0.0 - self.deriv)
        return self.__rsub__(float(other)) if isinstance(other, REAL) else NotImplemented

    def __mul__(self, other):
        if other.__class__ is not Dual:
            if other.__class__ is float:
                return _dual(self.val * other, self.deriv * other + self.val * 0.0)
            return self.__mul__(float(other)) if isinstance(other, REAL) else NotImplemented
        return _dual(self.val * other.val, self.deriv * other.val + self.val * other.deriv)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not Dual:
            if other.__class__ is float:
                check_divisor(other)
                q = self.val / other
                return _dual(q, (self.deriv - q * 0.0) / other)
            return self.__truediv__(float(other)) if isinstance(other, REAL) else NotImplemented
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
        return self.__rtruediv__(float(other)) if isinstance(other, REAL) else NotImplemented

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
    if isinstance(x, REAL):
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
    """f'(x) for a scalar program of one variable, exact to roundoff: the
    directional derivative of xs -> f(xs[0]) at [x] along [1], so x is read
    as the point [x], and the output through :func:`scalar_output`."""
    return float(directional_derivative(lambda xs: scalar_output(f(xs[0])), [x], [1.0])[0])


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
    with a primal ``val``) is one output; anything else is iterated, and
    an item that is not a scalar-like is a TypeError naming its position,
    as is a bare output that cannot be iterated (naming its type)."""
    if isinstance(out, REAL) or hasattr(out, "val"):
        return [out]
    try:
        items = iter(out)
    except TypeError:
        raise TypeError(f"the output has type {type(out).__name__}; a program returns a "
                        "number, a scalar-like with a primal val or an iterable of them"
                        ) from None
    outs = list(items)
    for i, o in enumerate(outs):
        if not (hasattr(o, "val") or isinstance(o, REAL)):
            raise TypeError(f"output {i} has type {type(o).__name__}; an output is "
                            "a number or a scalar-like with a primal val")
    return outs


def scalar_output(out):
    """The one output of a scalar program, read through :func:`as_outputs`,
    so a one-element list, tuple, ndarray or generator is its element; any
    other number of outputs is a ContractError."""
    outs = as_outputs(out)
    if len(outs) != 1:
        raise ContractError(f"a scalar program has one output, got {len(outs)}")
    return outs[0]


def evaluate(f, x) -> np.ndarray:
    """A program's outputs at the point x as a float vector: the point is
    read through ``core.as_vector`` and the outputs through
    :func:`as_outputs`, as every derivative driver reads them."""
    return np.array([primal(o) for o in as_outputs(f(as_vector(x).tolist()))], dtype=float)


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

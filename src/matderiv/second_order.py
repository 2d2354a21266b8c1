"""Second-order machinery built on forward-over-reverse composition.

A Hessian-vector product costs one reverse pass whose arithmetic is carried
on dual numbers: seed the inputs with duals (value, direction), run the
taped gradient generically, and read the derivative part of each adjoint.
Seeding the block of directions I_n gives the Hessian from one recording.
No second-order dual type and no nested tapes are involved — the tape's
arithmetic is simply generic over the scalar type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import core, forward, reverse
from .core import frob
from .errors import ContractError, ShapeError

HESSIAN_MAX_N = 50


def hvp(f, x, v) -> np.ndarray:
    """(Hessian of f at x) @ v for a scalar program f over a list of
    scalar-likes.  A block v of shape (n, k) gives the (n, k) block H v,
    column j bitwise the product with v[:, j]."""
    return forward.directional_derivative(partial(reverse.gradient_generic, f), x, v)


def hessian(f, x, return_defect: bool = False):
    """Dense Hessian ``hvp(f, x, I_n)`` from one forward-over-reverse pass
    (column j is H e_j); the returned matrix is explicitly symmetrized and
    the pre-symmetrization defect ||H - H^T||_F / ||H||_F is available for
    diagnostics.  A point of more than HESSIAN_MAX_N entries is refused
    before it is read."""
    n = np.size(x)
    if n > HESSIAN_MAX_N:
        raise ContractError(
            f"dense Hessian capped at n = {HESSIAN_MAX_N}; got n = {n}"
        )
    cols = hvp(f, x, np.eye(n))
    norm = frob(cols)
    defect = 0.0 if norm == 0.0 else frob(cols - cols.T) / norm
    h = 0.5 * (cols + cols.T)
    if return_defect:
        return h, defect
    return h


def _scalar_eval(f, x) -> float:
    return float(forward.scalar_output(forward.evaluate(f, x)))


def _direction(d, x: np.ndarray) -> np.ndarray:
    """d as a float vector of the point's shape, or a ShapeError."""
    d = np.asarray(d, dtype=float)
    if d.shape != x.shape:
        raise ShapeError(f"direction of shape {d.shape} at a point of shape {x.shape}")
    return d


def bilinear_identity_check(f, x, dx1, dx2, h: float = 1e-4) -> float:
    """|second difference - dx1^T H dx2| for the four-corner second
    difference [f(x+h dx1+h dx2) - f(x+h dx1) - f(x+h dx2) + f(x)] / h^2."""
    x = core.as_vector(x)
    dx1 = _direction(dx1, x)
    dx2 = _direction(dx2, x)
    # the AD driver reads f at x first, so a zero divisor there is its
    # DivisionByZeroError (a DomainError), not float division's error
    exact = float(dx1 @ hvp(f, x, dx2))
    fx = _scalar_eval(f, x)
    f1 = _scalar_eval(f, x + h * dx1)
    f2 = _scalar_eval(f, x + h * dx2)
    f12 = _scalar_eval(f, x + h * dx1 + h * dx2)
    second = (f12 - f1 - f2 + fx) / (h * h)
    return abs(second - exact)


@dataclass
class QuadraticModelRow:
    direction_index: int
    scale: float
    remainder_over_s2: float


def quadratic_model_check(f, x, directions, scales=(1e-1, 1e-2, 1e-3)):
    """Remainder of the local quadratic model
    f(x) + s g.d + s^2/2 d^T H d along the given directions, divided by
    s^2; bounded remainders mean the model really is second-order
    accurate."""
    x = core.as_vector(x)
    g = reverse.gradient(f, x)  # first, as in bilinear_identity_check
    fx = _scalar_eval(f, x)
    rows = []
    for i, d in enumerate(directions):
        d = _direction(d, x)
        lin = float(g @ d)
        quad = 0.5 * float(d @ hvp(f, x, d))
        for s in scales:
            model = fx + s * lin + s * s * quad
            rem = abs(_scalar_eval(f, x + s * d) - model) / (s * s)
            rows.append(QuadraticModelRow(i, float(s), rem))
    return rows


@dataclass
class NewtonStep:
    step: np.ndarray
    eigenvalues: np.ndarray
    classification: str  # "minimum" | "maximum" | "saddle" | "indeterminate"


def newton_min_step(f, x) -> NewtonStep:
    """Full Newton step -H^{-1} g plus a curvature classification from the
    Hessian spectrum (eigenvalues within 1e-8 ||H||_F of zero make the
    verdict 'indeterminate')."""
    h = hessian(f, x)
    g = reverse.gradient(f, x)
    step = -core.lu_solve(h, g)
    lam = core.jacobi_eigen(h).lam
    thr = 1e-8 * max(frob(h), 1e-300)
    if np.any(np.abs(lam) < thr):
        kind = "indeterminate"
    elif np.all(lam > 0):
        kind = "minimum"
    elif np.all(lam < 0):
        kind = "maximum"
    else:
        kind = "saddle"
    return NewtonStep(step=step, eigenvalues=lam, classification=kind)


def grad_of_grad_function(f, g, x) -> np.ndarray:
    """Gradient of h(x) = g(grad f(x)): with z = grad f(x) and
    w = grad g(z), the chain rule gives grad h = H_f(x) w — two reverse
    passes and one forward-over-reverse pass, no Hessian materialized."""
    z = reverse.gradient(f, x)
    w = reverse.gradient(g, z)
    return hvp(f, x, w)

"""Gradients through parameterized linear systems by the adjoint method.

The featured instance: A(p) x = b with A symmetric tridiagonal (constant
diagonal ``a``, off-diagonal parameters ``p``), objective g(p) = (c^T x)^2.
The full gradient costs two tridiagonal solves — one for x, one for the
adjoint v from A^T v = dg/dx — independent of the number of parameters,
because each dA/dp_k has just two mirror entries:

    dg/dp_k = -v^T (dA/dp_k) x = -(v_k x_{k+1} + v_{k+1} x_k) ... sign folded
              into v by solving against the *negated* objective gradient.

Here v is defined by A v = -2 (c^T x) c, so dg/dp_k = +v_k x_{k+1} + v_{k+1} x_k.

A dense-matrix generalization (explicit dA/dp_k list) is included for
cross-checking and for non-tridiagonal parameterizations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import core, counting, fdcheck
from .core import TridiagSym, as_square, as_vector
from .errors import ShapeError


@dataclass
class TridiagProblem:
    """A(p) x = b, g = (c^T x)^2, with A = tridiag(p; diag=a)."""

    a: np.ndarray  # main diagonal, length n
    p: np.ndarray  # off-diagonal parameters, length n - 1
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.a = as_vector(self.a)
        self.p = as_vector(self.p)
        self.b = as_vector(self.b)
        self.c = as_vector(self.c)
        n = len(self.a)
        if len(self.p) != n - 1:
            raise ShapeError(f"need {n - 1} off-diagonal parameters, got {len(self.p)}")
        if len(self.b) != n or len(self.c) != n:
            raise ShapeError("b and c must match the system size")

    @property
    def n(self) -> int:
        return len(self.a)

    def matrix(self) -> TridiagSym:
        return TridiagSym(self.a, self.p)

    def with_p(self, p) -> "TridiagProblem":
        return replace(self, p=np.asarray(p, dtype=float))


def solve_state(prob: TridiagProblem) -> np.ndarray:
    return core.thomas_solve(prob.matrix(), prob.b)


def g_eval(prob: TridiagProblem) -> float:
    x = solve_state(prob)
    s = core.dot(prob.c, x)
    counting.add(flops=1)
    return s * s


def grad_g(prob: TridiagProblem) -> np.ndarray:
    """dg/dp via one state solve and one adjoint solve (A is symmetric, so
    the adjoint system reuses the same matrix)."""
    t = prob.matrix()
    x = core.thomas_solve(t, prob.b)
    s = core.dot(prob.c, x)
    rhs = (-2.0 * s) * prob.c
    counting.add(flops=prob.n + 1)
    v = core.thomas_solve(t, rhs)
    grad = v[:-1] * x[1:] + v[1:] * x[:-1]
    counting.add(flops=3 * (prob.n - 1))
    return grad


def partial_dA(prob: TridiagProblem, k: int):
    """Positions touched by dA/dp_k (0-based): ((k, k+1), (k+1, k)); the
    value at both positions is 1."""
    if not 0 <= k < prob.n - 1:
        raise IndexError(f"parameter index {k} out of range [0, {prob.n - 1})")
    return ((k, k + 1), (k + 1, k))


def fd_directional(prob: TridiagProblem, dp) -> float:
    """g(p + dp) - g(p): the forward-difference counterpart of grad . dp."""
    dp = as_vector(dp)
    if len(dp) != prob.n - 1:
        raise ShapeError("dp must match the parameter count")
    return fdcheck.forward_diff(lambda p: g_eval(prob.with_p(p)), prob.p, dp)


def dense_linear_adjoint(a, da_list, b, grad_f) -> np.ndarray:
    """Gradient of f(x(p)) with A(p) x = b for a dense A and explicit
    derivative matrices dA/dp_k:

        A^T v = grad_f(x),   df/dp_k = -v^T (dA/dp_k) x

    — exactly two LU solves regardless of len(da_list).
    """
    a = as_square(a)
    x = core.lu_solve(a, as_vector(b))
    gf = as_vector(grad_f(x) if callable(grad_f) else grad_f)
    if len(gf) != len(x):
        raise ShapeError("objective gradient size mismatch")
    v = core.lu_solve(a.T, gf)
    out = np.empty(len(da_list))
    for k, da in enumerate(da_list):
        da = as_square(da)
        if da.shape != a.shape:
            raise ShapeError("dA/dp_k shape mismatch")
        out[k] = -float(v @ (da @ x))
    return out


def random_instance(n: int, seed: int = 0) -> TridiagProblem:
    """A diagonally dominant instance (|p_k| <= 1/2, diagonal >= 5/2), so
    the no-pivoting tridiagonal solve is safe."""
    rng = np.random.default_rng(seed)
    return TridiagProblem(
        a=2.5 + rng.uniform(0.0, 1.0, size=n),
        p=0.5 * rng.uniform(-1.0, 1.0, size=n - 1),
        b=rng.standard_normal(n),
        c=rng.standard_normal(n),
    )

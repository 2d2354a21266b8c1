"""Catalog of analytic matrix derivative rules.

Each ``d_*`` operation is the derivative as a *linear operator*: it maps a
perturbation of the input to the first-order change of the output.  The
``grad_*`` operations return the gradient object whose Frobenius inner
product with the perturbation gives df (same shape as the input; the only
inner product used here is Frobenius).

Also houses the four plane-transform maps (rotation, hyperbolic rotation,
nonlinear shear, position-dependent rotation "warp") together with their
closed-form Jacobians, and the rank-1-update solve used to differentiate
x -> (A + y x^T)^{-1} b in quadratic time.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import core, counting, eigsens, kron, linsys_adjoint, second_order
from . import scalarfn as sf
from .core import as_matrix, as_square, as_vector, frob
from .errors import ContractError, DomainError, ShapeError, SingularMatrixError


def _check_same_shape(a, b, what: str):
    if a.shape != b.shape:
        raise ShapeError(f"{what}: shapes differ ({a.shape} vs {b.shape})")


def d_inverse(a, da) -> np.ndarray:
    """d(A^-1)[dA] = -A^-1 dA A^-1, via two LU solves (A^-1 never formed)."""
    a = as_square(a)
    da = as_square(da)
    _check_same_shape(a, da, "d_inverse")
    y = core.lu_solve(a, da)            # A^-1 dA
    z = core.lu_solve(a.T, y.T).T       # (A^-1 dA) A^-1
    return -z


def _cofactor_minors(a: np.ndarray) -> np.ndarray:
    """Cofactor matrix by Laplace minors; cost explodes, so n <= 4 only."""
    n = a.shape[0]
    if n == 1:
        return np.ones((1, 1))
    c = np.empty((n, n))
    for i in range(n):
        rows = [r for r in range(n) if r != i]
        for j in range(n):
            cols = [s for s in range(n) if s != j]
            minor = a[np.ix_(rows, cols)]
            c[i, j] = (-1) ** (i + j) * core.det(minor)
    return c


def grad_det(a) -> np.ndarray:
    """gradient of det: the cofactor matrix, det(A) * A^-T when A is
    invertible, with d(det A) = tr(G^T dA).

    Singular inputs fall back to Laplace minors for n <= 4 (the cofactor
    needs no inverse); larger singular inputs are rejected.
    """
    a = as_square(a)
    n = a.shape[0]
    try:
        inv, sign, piv = core.lu_solve_pivots(a, np.eye(n))
    except SingularMatrixError:
        if n <= 4:
            return _cofactor_minors(a)
        raise
    return core.det_times(sign, piv, inv.T)


def d_logdet(a, da) -> float:
    """d(log det A)[dA] = tr(A^-1 dA); requires det A > 0, whose sign comes
    from the solve's pivots (from ``slogdet`` only where the solve finds A
    singular, so that a det <= 0 is a ``DomainError`` there too)."""
    a = as_square(a)
    da = as_square(da)
    _check_same_shape(a, da, "d_logdet")
    try:
        x, sign, piv = core.lu_solve_pivots(a, da)
        sign = core.det_sign(sign, piv)
    except SingularMatrixError:
        sign = core.slogdet(a)[0]
        if sign > 0.0:
            raise
    if sign <= 0.0:
        raise DomainError("d_logdet needs det(A) > 0")
    return float(np.trace(x))


def d_charpoly(a, x: float) -> float:
    """p'(x) for p(x) = det(xI - A): det(xI - A) * tr((xI - A)^-1).

    ``x`` must stay away from the spectrum; for symmetric nonzero ``a`` the
    distance is checked explicitly (gap > 1e-10), otherwise the elimination
    pivot tolerance of xI - A is the guard.
    """
    a = as_square(a)
    n = a.shape[0]
    norm = frob(a)
    if (norm > 0 and core.is_symmetric(a, norm)
            and np.min(np.abs(core.jacobi_eigen(a).lam - x)) <= 1e-10):
        raise SingularMatrixError(f"x={x} is within 1e-10 of an eigenvalue")
    inv, sign, piv = core.lu_solve_pivots(x * np.eye(n) - a, np.eye(n))
    return float(core.det_times(sign, piv, np.trace(inv)))


def second_det(a, da, da2) -> float:
    """The symmetric bilinear second derivative of det:

    f''(A)[dA, dA'] = det A * [tr(A^-1 dA') tr(A^-1 dA) - tr(A^-1 dA' A^-1 dA)].
    """
    a = as_square(a)
    da = as_square(da)
    da2 = as_square(da2)
    _check_same_shape(a, da, "second_det")
    _check_same_shape(a, da2, "second_det")
    x, sign, piv = core.lu_solve_pivots(a, np.hstack([da, da2]))  # one block solve
    x1, x2 = np.hsplit(x, 2)
    return float(core.det_times(sign, piv, np.trace(x2) * np.trace(x1) - np.trace(x2 @ x1)))


def grad_quadform(a, x) -> np.ndarray:
    """gradient of x^T A x in x: (A + A^T) x."""
    a = as_square(a)
    x = as_vector(x)
    if a.shape[0] != len(x):
        raise ShapeError("grad_quadform: size mismatch")
    return (a + a.T) @ x


def grad_frobenius(a) -> np.ndarray:
    """gradient of ||A||_F: A / ||A||_F."""
    a = as_matrix(a)
    norm = frob(a)
    if norm == 0.0:
        raise DomainError("Frobenius norm is not differentiable at 0")
    return a / norm


def grad_bilinear_xay(x, y) -> np.ndarray:
    """gradient of A -> x^T A y: the outer product x y^T."""
    return np.outer(as_vector(x), as_vector(y))


def d_matpow(a, da, k: int) -> np.ndarray:
    """d(A^k)[dA] = sum_{j=0}^{k-1} A^j dA A^(k-1-j)."""
    a = as_square(a)
    da = as_square(da)
    _check_same_shape(a, da, "d_matpow")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ContractError(f"d_matpow needs an integer k >= 1, got {k!r}")
    n = a.shape[0]
    powers = [np.eye(n)]
    for _ in range(k - 1):
        powers.append(powers[-1] @ a)
    out = np.zeros_like(a)
    for j in range(k):
        out += powers[j] @ da @ powers[k - 1 - j]
    return out


def sherman_morrison_solve(a_inv, y, x, b) -> np.ndarray:
    """(A + y x^T)^{-1} b from a known A^{-1}, in Theta(n^2):

        A^{-1} b - A^{-1} y (x^T A^{-1} b) / (1 + x^T A^{-1} y)
    """
    a_inv = as_square(a_inv)
    y = as_vector(y)
    x = as_vector(x)
    b = as_vector(b)
    n = a_inv.shape[0]
    if not (len(y) == len(x) == len(b) == n):
        raise ShapeError("sherman_morrison_solve: size mismatch")
    u = core.matvec(a_inv, b)
    z = core.matvec(a_inv, y)
    denom = 1.0 + core.dot(x, z)
    if abs(denom) <= 1e-12:
        raise SingularMatrixError("rank-1 update is singular: 1 + x^T A^-1 y ~ 0")
    s = core.dot(x, u)
    counting.add(flops=2 * n + 2)
    return u - z * (s / denom)


def jacobian_rank1_resolvent(a_inv, y, x, b) -> np.ndarray:
    """Jacobian of f(x) = (A + y x^T)^{-1} b: the rank-1 matrix -c f(x)^T
    with c = (A + y x^T)^{-1} y, assembled from two rank-1-update solves and
    one outer product (quadratic total cost)."""
    c = sherman_morrison_solve(a_inv, y, x, y)
    fx = sherman_morrison_solve(a_inv, y, x, b)
    counting.add(flops=len(c) * len(fx))
    return -np.outer(c, fx)


def grad_diagm_quadratic(a, x) -> np.ndarray:
    """gradient of f(x) = x^T (A + diag(x))^2 x for symmetric A:

        2 (A + 2 diag(x)) (A + diag(x)) x
    """
    a = as_square(a)
    x = as_vector(x)
    if a.shape[0] != len(x):
        raise ShapeError("grad_diagm_quadratic: size mismatch")
    core.require_symmetric(a, "grad_diagm_quadratic")
    d = np.diag(x)
    return 2.0 * (a + 2.0 * d) @ ((a + d) @ x)


def d_projection(x, dx) -> np.ndarray:
    """Differential of the projector map f(x) = x x^T / (x^T x):

        (dx x^T + x dx^T)/(x^T x) - 2 x x^T (x^T dx)/(x^T x)^2
    """
    x = as_vector(x)
    dx = as_vector(dx)
    if x.shape != dx.shape:
        raise ShapeError("d_projection: size mismatch")
    xtx = float(x @ x)
    if xtx == 0.0:
        raise DomainError("projection map undefined at x = 0")
    sym = np.outer(dx, x) + np.outer(x, dx)
    return sym / xtx - 2.0 * np.outer(x, x) * float(x @ dx) / xtx**2


def jacobian_projection_b(x, b) -> np.ndarray:
    """Jacobian of g(x) = (x x^T / x^T x) b:

        [ (x^T b) I + x b^T - 2 x x^T b x^T/(x^T x) ] / (x^T x)
    """
    x = as_vector(x)
    b = as_vector(b)
    if x.shape != b.shape:
        raise ShapeError("jacobian_projection_b: size mismatch")
    xtx = float(x @ x)
    if xtx == 0.0:
        raise DomainError("projection map undefined at x = 0")
    xb = float(x @ b)
    n = len(x)
    return (xb * np.eye(n) + np.outer(x, b) - 2.0 * xb * np.outer(x, x) / xtx) / xtx


# plane transforms ----------------------------------------------------------

TRANSFORM_KINDS = ("rotate", "hyperbolic", "shear", "warp")


def transform_map(kind: str, theta: float, xs):
    """The transform itself, written over scalar-likes so the same text can
    be evaluated plainly, with duals, or on a tape.  ``xs`` is the 2-point
    (x, y)."""
    x, y = xs
    if kind == "rotate":
        c, s = math.cos(theta), math.sin(theta)
        return [c * x + s * y, -s * x + c * y]
    if kind == "hyperbolic":
        ch, sh = math.cosh(theta), math.sinh(theta)
        return [ch * x + sh * y, sh * x + ch * y]
    if kind == "shear":
        return [x, y + theta * x * x]
    if kind == "warp":
        phi = theta * sf.sqrt(x * x + y * y)
        c, s = sf.cos(phi), sf.sin(phi)
        return [c * x + s * y, -s * x + c * y]
    raise ContractError(f"unknown transform kind {kind!r}")


def analytic_transform_jacobians(kind: str, theta: float, point) -> np.ndarray:
    """Closed-form 2x2 Jacobian of ``transform_map`` at ``point``."""
    point = as_vector(point)
    if len(point) != 2:
        raise ShapeError("transforms act on points in the plane")
    x, y = point
    if kind == "rotate":
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, s], [-s, c]])
    if kind == "hyperbolic":
        ch, sh = math.cosh(theta), math.sinh(theta)
        return np.array([[ch, sh], [sh, ch]])
    if kind == "shear":
        return np.array([[1.0, 0.0], [2.0 * theta * x, 1.0]])
    if kind == "warp":
        r2 = float(point @ point)
        if r2 == 0.0:
            raise DomainError("warp Jacobian undefined at the origin")
        r = math.sqrt(r2)
        phi = theta * r
        rot = np.array([[math.cos(phi), math.sin(phi)],
                        [-math.sin(phi), math.cos(phi)]])
        rot_prime = np.array([[-math.sin(phi), math.cos(phi)],
                              [-math.cos(phi), -math.sin(phi)]])
        return theta * r * rot_prime @ np.outer(point, point) / r2 + rot
    raise ContractError(f"unknown transform kind {kind!r}")


# verification table --------------------------------------------------------

class RuleCheck(NamedTuple):
    """A derivative route beside its primal map, judged by
    ``fdcheck.rule_residual``: ``sample(rng)`` draws (params, x) in the
    route's domain, ``primal(params, x)`` is f(x) in numpy alone
    (``np.linalg``, ``@``: no code shared with the route), and
    ``action(params, x)`` is the derivative itself, the operator
    L = f'(x) as a callable dx -> f'(x)[dx], built by the route, which is
    looked up when the action runs.  A second derivative is the operator
    v -> f''(x)[u, v] at a u the sampler draws, beside the primal
    x -> f'(x)[u]."""

    name: str
    sample: Callable
    primal: Callable
    action: Callable


def _dominant(rng):
    """4x4, off-diagonal row sums below 3, diagonal above 4: every eigenvalue
    has real part above 1, so det > 0 and ||A^-1||_inf < 1."""
    return rng.uniform(-1.0, 1.0, (4, 4)) + 5.0 * np.eye(4)


def _nonzero(rng, shape=4):
    """Entries of magnitude in [0.5, 1.5] with random signs."""
    return rng.uniform(0.5, 1.5, shape) * rng.choice((-1.0, 1.0), shape)


def _spread(rng):
    """Symmetric 3x3, entries in [-1, 1] plus diag(0, 3, 6).  Over 20 000
    draws every eigenvalue gap was above 0.9 and each eigenvector's largest
    entry led its next by more than 0.3, so the column signs hold under a
    central difference."""
    return _sym(rng.uniform(-1.0, 1.0, (3, 3))) + np.diag(3.0 * np.arange(3))


def _sym(m):
    return 0.5 * (m + m.T)


def _on_sym(op):
    """dS -> op(sym dS): the derivative of S -> f(sym S) from that of f."""
    return lambda ds: op(_sym(ds))


def _eigenvectors(s):
    """numpy's eigenvectors of sym(s), each column signed as
    ``core.jacobi_eigen`` signs it: its largest-magnitude entry positive."""
    q = np.linalg.eigh(_sym(s))[1]
    return q * np.sign(q[np.abs(q).argmax(axis=0), np.arange(len(q))])


def _eigh_function(f, s):
    """f(sym S) = Q f(Lambda) Q^T by numpy's eigh."""
    lam, q = np.linalg.eigh(_sym(s))
    return (q * f(lam)) @ q.T


def _vec_action(jac):
    """dA -> J vec(dA) for a Jacobian J in vec (column-stacked) coordinates."""
    return lambda da: jac @ da.ravel(order="F")


def _curved(xs):
    """exp(x0 x1 / 2) + sin(x1 + x2 x3) + x0 x3^3, over scalar-likes."""
    return sf.exp(0.5 * xs[0] * xs[1]) + sf.sin(xs[1] + xs[2] * xs[3]) + xs[0] * sf.powi(xs[3], 3)


def _curved_gradient(x):
    """The gradient of ``_curved`` in closed form, in numpy."""
    e, c = np.exp(0.5 * x[0] * x[1]), np.cos(x[1] + x[2] * x[3])
    return np.array([0.5 * x[1] * e + x[3] ** 3, 0.5 * x[0] * e + c,
                     x[3] * c, x[2] * c + 3.0 * x[0] * x[3] ** 2])


RULE_CHECKS = (
    RuleCheck("d_inverse", lambda rng: (None, _dominant(rng)),
              lambda _, a: np.linalg.inv(a), lambda _, a: partial(d_inverse, a)),
    RuleCheck("grad_det", lambda rng: (None, _dominant(rng)),
              lambda _, a: np.linalg.det(a), lambda _, a: partial(np.vdot, grad_det(a))),
    RuleCheck("d_logdet", lambda rng: (None, _dominant(rng)),
              lambda _, a: np.linalg.slogdet(a)[1], lambda _, a: partial(d_logdet, a)),
    # the spectral radius is at most ||A||_inf <= 4 < x
    RuleCheck("d_charpoly", lambda rng: (rng.uniform(-1.0, 1.0, (4, 4)), 5.0 + rng.uniform()),
              lambda a, x: np.linalg.det(x * np.eye(4) - a),
              lambda a, x: partial(np.multiply, d_charpoly(a, x))),
    # the derivative of A -> det A tr(A^-1 dA2) along dA
    RuleCheck("second_det", lambda rng: (rng.standard_normal((4, 4)), _dominant(rng)),
              lambda da2, a: np.linalg.det(a) * np.trace(np.linalg.inv(a) @ da2),
              lambda da2, a: partial(second_det, a, da2=da2)),
    RuleCheck("grad_quadform", lambda rng: (_dominant(rng), _nonzero(rng)),
              lambda a, x: x @ a @ x, lambda a, x: partial(np.matmul, grad_quadform(a, x))),
    RuleCheck("grad_frobenius", lambda rng: (None, _nonzero(rng, (3, 4))),
              lambda _, a: np.linalg.norm(a), lambda _, a: partial(np.vdot, grad_frobenius(a))),
    RuleCheck("grad_bilinear_xay",
              lambda rng: ((_nonzero(rng), _nonzero(rng)), rng.uniform(-1.0, 1.0, (4, 4))),
              lambda xy, a: xy[0] @ a @ xy[1],
              lambda xy, a: partial(np.vdot, grad_bilinear_xay(*xy))),
    RuleCheck("d_matpow", lambda rng: (None, _dominant(rng)),
              lambda _, a: np.linalg.matrix_power(a, 4), lambda _, a: partial(d_matpow, a, k=4)),
    # |x^T A^-1 y| <= ||x||_1 ||A^-1||_inf ||y||_inf < 0.4 keeps A + y x^T regular
    RuleCheck("jacobian_rank1_resolvent",
              lambda rng: ((_dominant(rng), rng.uniform(-1.0, 1.0, 4), _nonzero(rng)),
                           rng.uniform(-0.1, 0.1, 4)),
              lambda p, x: np.linalg.inv(p[0] + np.outer(p[1], x)) @ p[2],
              lambda p, x: partial(np.matmul,
                                   jacobian_rank1_resolvent(np.linalg.inv(p[0]), p[1], x, p[2]))),
    # symmetric; A + diag(x) and A + 2 diag(x) strictly diagonally dominant
    RuleCheck("grad_diagm_quadratic",
              lambda rng: (_sym(rng.uniform(-1.0, 1.0, (4, 4))) + 8.0 * np.eye(4), _nonzero(rng)),
              lambda a, x: x @ (a + np.diag(x)) @ (a + np.diag(x)) @ x,
              lambda a, x: partial(np.matmul, grad_diagm_quadratic(a, x))),
    RuleCheck("d_projection", lambda rng: (None, _nonzero(rng)),
              lambda _, x: np.outer(x, x) / (x @ x), lambda _, x: partial(d_projection, x)),
    RuleCheck("jacobian_projection_b", lambda rng: (_nonzero(rng), _nonzero(rng)),
              lambda b, x: np.outer(x, x) @ b / (x @ x),
              lambda b, x: partial(np.matmul, jacobian_projection_b(x, b))),
    *(RuleCheck(f"analytic_transform_jacobians[{kind}]",
                lambda rng, kind=kind: ((kind, rng.uniform(-1.0, 1.0)), _nonzero(rng, 2)),
                lambda kt, p: np.array(transform_map(*kt, p.tolist())),
                lambda kt, p: partial(np.matmul, analytic_transform_jacobians(*kt, p)))
      for kind in TRANSFORM_KINDS),
    # the eigensystem of sym(S): symmetric inputs and directions
    RuleCheck("eigsens.dlambda", lambda rng: (None, _spread(rng)),
              lambda _, s: np.linalg.eigvalsh(_sym(s)),
              lambda _, s: _on_sym(partial(eigsens.dlambda, eigsens.decompose(s)))),
    RuleCheck("eigsens.dq", lambda rng: (None, _spread(rng)), lambda _, s: _eigenvectors(s),
              lambda _, s: _on_sym(partial(eigsens.dq, eigsens.decompose(s)))),
    RuleCheck("eigsens.grad_lambda", lambda rng: (int(rng.integers(3)), _spread(rng)),
              lambda i, s: np.linalg.eigvalsh(_sym(s))[i],
              lambda i, s: _on_sym(partial(np.vdot, eigsens.grad_lambda(eigsens.decompose(s), i)))),
    RuleCheck("kron.jac_square_vec", lambda rng: (None, rng.uniform(-1.0, 1.0, (3, 3))),
              lambda _, a: (a @ a).ravel(order="F"),
              lambda _, a: _vec_action(kron.jac_square_vec(a))),
    RuleCheck("kron.jac_cube_vec", lambda rng: (None, rng.uniform(-1.0, 1.0, (3, 3))),
              lambda _, a: (a @ a @ a).ravel(order="F"),
              lambda _, a: _vec_action(kron.jac_cube_vec(a))),
    RuleCheck("kron.jac_inverse_vec", lambda rng: (None, _dominant(rng)),
              lambda _, a: np.linalg.inv(a).ravel(order="F"),
              lambda _, a: _vec_action(kron.jac_inverse_vec(a))),
    RuleCheck("kron.jacobian_matrix_function", lambda rng: (np.exp, _spread(rng)),
              lambda f, s: _eigh_function(f, s).ravel(order="F"),
              lambda f, s: _on_sym(_vec_action(kron.jacobian_matrix_function(f, s)))),
    # diagonal in [2.5, 3.5] and |p_k| <= 1/2: A(p) diagonally dominant
    RuleCheck("linsys_adjoint.grad_g",
              lambda rng: ((2.5 + rng.uniform(0.0, 1.0, 6), rng.standard_normal(6),
                            rng.standard_normal(6)), 0.5 * rng.uniform(-1.0, 1.0, 5)),
              lambda abc, p: (abc[2] @ np.linalg.solve(
                  np.diag(abc[0]) + np.diag(p, 1) + np.diag(p, -1), abc[1])) ** 2,
              lambda abc, p: partial(np.matmul, linsys_adjoint.grad_g(
                  linsys_adjoint.TridiagProblem(abc[0], p, abc[1], abc[2])))),
    # A(p) = A0 + sum_k p_k D_k with |p_k D_k| <= 0.05 entrywise stays
    # diagonally dominant; f(x) = (w.x)^2 of the solution x of A(p) x = b
    RuleCheck("linsys_adjoint.dense_linear_adjoint",
              lambda rng: ((_dominant(rng), rng.uniform(-0.1, 0.1, (3, 4, 4)),
                            rng.standard_normal(4), rng.standard_normal(4)),
                           rng.uniform(-0.5, 0.5, 3)),
              lambda adbw, p: (adbw[3] @ np.linalg.solve(adbw[0] + np.tensordot(p, adbw[1], 1),
                                                         adbw[2])) ** 2,
              lambda adbw, p: partial(np.matmul, linsys_adjoint.dense_linear_adjoint(
                  adbw[0] + np.tensordot(p, adbw[1], 1), adbw[1], adbw[2],
                  lambda x: 2.0 * (adbw[3] @ x) * adbw[3]))),
    # v -> f''(x)[u, v] = (H u) . v, beside the closed-form x -> f'(x)[u]
    RuleCheck("second_order.hvp", lambda rng: (rng.standard_normal(4), rng.uniform(-1.0, 1.0, 4)),
              lambda u, x: _curved_gradient(x) @ u,
              lambda u, x: partial(np.matmul, second_order.hvp(_curved, x, u))),
)

"""Vectorized Jacobians of matrix -> matrix maps via Kronecker products.

``vec`` stacks columns (column-major).  The central algebraic fact is
(A (x) B) vec(C) = vec(B C A^T); everything else here is closed-form
Kronecker Jacobians for squaring, cubing, inversion and matrix functions
f(S) of symmetric matrices.  The matrix-function Jacobian is produced by the
Daleckii-Krein closed form; a finite-difference Jacobian through the general
spectral route f(M) = X f(Lambda) X^{-1} verifies it, and the product formula
predicts its determinant.
"""

from __future__ import annotations

import math

import numpy as np

from . import core, counting, eigsens, fdcheck
from .core import as_square, as_vector, as_matrix, frob
from .errors import (
    DegenerateEigenvaluesError,
    DomainError,
    ShapeError,
    SingularMatrixError,
)


def vec(a) -> np.ndarray:
    """Column-stacking: vec(A) lists the columns of A top to bottom."""
    a = as_matrix(a)
    return a.reshape(-1, order="F").copy()


def unvec(v, m: int, n: int) -> np.ndarray:
    v = as_vector(v)
    if len(v) != m * n:
        raise ShapeError(f"unvec: length {len(v)} != {m}*{n}")
    return v.reshape((m, n), order="F").copy()


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Uncounted A (x) B of 2-D arrays, bitwise ``np.kron`` in one broadcast."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def kron(a, b) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    counting.add_flops(a.size * b.size)
    return _kron(a, b)


def kron_vec_identity_check(a, b, c) -> float:
    """Relative residual of (A (x) B) vec(C) = vec(B C A^T)."""
    a = as_matrix(a)
    b = as_matrix(b)
    c = as_matrix(c)
    if c.shape != (b.shape[1], a.shape[1]):
        raise ShapeError(
            f"kron_vec_identity_check: C must be {b.shape[1]}x{a.shape[1]}, got {c.shape}"
        )
    lhs = _kron(a, b) @ vec(c)
    rhs = vec(b @ c @ a.T)
    denom = frob(rhs)
    if denom == 0.0:
        return frob(lhs - rhs)
    return frob(lhs - rhs) / denom


def apply_bcat(a, b, c) -> np.ndarray:
    """B C A^T by two counted matrix products (the cheap route)."""
    return core.matmul(core.matmul(as_matrix(b), as_matrix(c)), as_matrix(a).T)


def apply_kron_vec(a, b, c) -> np.ndarray:
    """The same value via the materialized Kronecker matrix (the costly
    route kept only to demonstrate the cost separation)."""
    a = as_matrix(a)
    b = as_matrix(b)
    c = as_matrix(c)
    k = kron(a, b)
    return unvec(core.matvec(k, vec(c)), b.shape[0], a.shape[0])


def jac_square_vec(a) -> np.ndarray:
    """Jacobian of vec(A^2) in vec(A):  I (x) A + A^T (x) I."""
    a = as_square(a)
    n = a.shape[0]
    eye = np.eye(n)
    return _kron(eye, a) + _kron(a.T, eye)


def jac_cube_vec(a) -> np.ndarray:
    """Jacobian of vec(A^3) in vec(A):
    (A^2)^T (x) I + A^T (x) A + I (x) A^2."""
    a = as_square(a)
    n = a.shape[0]
    eye = np.eye(n)
    a2 = a @ a
    return _kron(a2.T, eye) + _kron(a.T, a) + _kron(eye, a2)


def jac_inverse_vec(a) -> np.ndarray:
    """Jacobian of vec(A^-1) in vec(A):  -(A^-T (x) A^-1)."""
    a = as_square(a)
    inv = core.lu_solve(a, np.eye(a.shape[0]))
    return -_kron(inv.T, inv)


# matrix functions ----------------------------------------------------------

def matrix_function(f, s) -> np.ndarray:
    """f(S) = Q f(Lambda) Q^T for symmetric S, f applied eigenvalue-wise."""
    dec = core.jacobi_eigen(s)
    fvals = np.array([float(f(v)) for v in dec.lam])
    return (dec.q * fvals) @ dec.q.T


def _eig_near_symmetric(m: np.ndarray):
    """Eigendecomposition M = X diag(lams) X^{-1} for a real matrix whose
    asymmetric part is a small perturbation of a symmetric matrix with
    well-separated eigenvalues.

    Starts from the rotations of the symmetric part and sharpens each pair
    with shifted inverse iteration + a Rayleigh-quotient update; the shift is
    offset from the eigenvalue estimate so the shifted matrix stays
    comfortably invertible.
    """
    n = m.shape[0]
    dec = core.jacobi_eigen(0.5 * (m + m.T))
    eye = np.eye(n)
    cols = np.empty((n, n))
    lams = np.empty(n)
    for i in range(n):
        lam = float(dec.lam[i])
        v = dec.q[:, i].copy()
        for _ in range(2):
            delta = 1e-8 * (1.0 + abs(lam))
            try:
                w = core.lu_solve(m - (lam + delta) * eye, v)
            except SingularMatrixError:
                break
            v = w / frob(w)
            lam = float(v @ (m @ v))
        cols[:, i] = v
        lams[i] = lam
    return cols, lams


def matrix_function_general(f, m) -> np.ndarray:
    """f(M) = X f(Lambda) X^{-1} for a (possibly slightly non-symmetric)
    real matrix with distinct real eigenvalues.  The gap is tested against
    ||M||_F, which exceeds ``core.require_gaps``' ||lam||_2 for a non-normal
    M, whose X^{-1} grows as a gap closes."""
    m = as_square(m)
    x, lams = _eig_near_symmetric(m)
    gap = core.min_gap(lams)
    if gap <= core.GAP_RTOL * max(frob(m), 1.0):
        raise DegenerateEigenvaluesError(
            f"matrix_function_general: eigenvalues too close (min gap {gap:.3e})"
        )
    fvals = np.array([float(f(v)) for v in lams])
    x_inv = core.lu_solve(x, np.eye(m.shape[0]))
    return (x * fvals) @ x_inv


def _lowner(f, f_prime, lam) -> np.ndarray:
    """The Loewner matrix of f at distinct ``lam``: the first divided
    differences (f(lam_i) - f(lam_j)) / (lam_i - lam_j), f'(lam_i) on the
    diagonal."""
    fvals = np.array([float(f(v)) for v in lam])
    fprime = [float(f_prime(v)) for v in lam]
    return core.divided_differences(fvals[:, None] - fvals[None, :], lam, fprime)


def jacobian_matrix_function(f, s) -> np.ndarray:
    """Jacobian of vec(f(M)) in vec(M) at a symmetric point, in closed form.

    With S = Q diag(lam) Q^T and L the Loewner matrix (Daleckii-Krein):

        J = (Q (x) Q) diag(vec L) (Q (x) Q)^T,
        L_ij = (f(lam_i) - f(lam_j)) / (lam_i - lam_j),   L_ii = f'(lam_i).

    ``f`` maps floats to floats; f'(lam_i) is ``fdcheck.directional_fd`` of
    f at lam_i along 1, a central difference at step eps^(1/3) (1 + |lam_i|).
    The eigenvalues must be distinct (``eigsens.decompose``).
    """
    dec = eigsens.decompose(s)
    lmat = _lowner(f, lambda v: fdcheck.directional_fd(f, v, 1.0), dec.lam)
    qq = _kron(dec.q, dec.q)
    return (qq * lmat.reshape(-1, order="F")) @ qq.T


def jacobian_matrix_function_fd(f, s) -> np.ndarray:
    """Finite-difference Jacobian of vec(f(M)) in vec(M) at a symmetric
    point: ``fdcheck.fd_jacobian`` of vec . f . unvec at vec(S), so column k
    perturbs entry k of vec(M) alone (which leaves the matrix slightly
    non-symmetric; the evaluations go through the general spectral route).

    The independent check on ``jacobian_matrix_function``: 2 n^2 spectral
    evaluations instead of one eigendecomposition.
    """
    s = as_square(s)
    eigsens.decompose(s)  # the point must be symmetric with distinct eigenvalues
    n = s.shape[0]
    return fdcheck.fd_jacobian(
        lambda v: vec(matrix_function_general(f, unvec(v, n, n))), vec(s))


def theoretical_jacdet(f, f_prime, lam) -> float:
    """Determinant of the Jacobian of M -> f(M) at a symmetric point with
    eigenvalues ``lam``.  Q (x) Q is orthogonal, so det J is the product of
    the n^2 entries of the Loewner matrix (``_lowner``), formed as
    ``core.det_times`` forms a pivot product: through logs where a partial
    product leaves the normal float range, inf only where det J overflows,
    0.0 at a zero entry, without a warning:

        prod_i f'(lam_i) * prod_{i<j} [ (f(lam_i) - f(lam_j)) / (lam_i - lam_j) ]^2
    """
    lam = as_vector(lam)
    core.require_gaps(lam, "theoretical_jacdet")
    return float(core.det_times(1.0, _lowner(f, f_prime, lam).ravel(), 1.0))


# identity suite ------------------------------------------------------------

KRON_IDENTITIES = (
    "transpose",
    "mixed_product",
    "inverse",
    "orthogonality",
    "determinant",
    "trace",
    "eigenpairs",
)


def _rel(delta: float, ref: float) -> float:
    return delta / (1.0 + ref)


def kron_identity_suite(seed: int = 0, trials: int = 50) -> dict:
    """Randomized check of seven Kronecker-product identities; returns the
    worst relative residual seen per identity."""
    rng = np.random.default_rng(seed)
    worst = {name: 0.0 for name in KRON_IDENTITIES}

    def note(name, delta, ref):
        worst[name] = max(worst[name], _rel(delta, ref))

    for _ in range(trials):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        b = rng.uniform(-1.0, 1.0, size=(m, m))
        c = rng.uniform(-1.0, 1.0, size=(n, n))
        d = rng.uniform(-1.0, 1.0, size=(m, m))
        ab = _kron(a, b)

        # (A (x) B)^T = A^T (x) B^T
        note("transpose", frob(ab.T - _kron(a.T, b.T)), frob(ab))

        # (A (x) B)(C (x) D) = AC (x) BD
        lhs = ab @ _kron(c, d)
        rhs = _kron(a @ c, b @ d)
        note("mixed_product", frob(lhs - rhs), frob(rhs))

        # (A (x) B)^-1 = A^-1 (x) B^-1 (shift to guarantee invertibility)
        a1 = a + (n + 1.0) * np.eye(n)
        b1 = b + (m + 1.0) * np.eye(m)
        inv_a = core.lu_solve(a1, np.eye(n))
        inv_b = core.lu_solve(b1, np.eye(m))
        big = _kron(a1, b1)
        inv_big = core.lu_solve(big, np.eye(n * m))
        note("inverse", frob(inv_big - _kron(inv_a, inv_b)), frob(inv_big))

        # one eigendecomposition per symmetric part serves the orthogonality
        # and the eigenpair checks: a + a^T = 2 sa exactly, and a power-of-two
        # scaling changes no rotation, so the q of sa is the q of a + a^T
        sa = 0.5 * (a + a.T)
        sb = 0.5 * (b + b.T)
        dec_a = core.jacobi_eigen(sa)
        dec_b = core.jacobi_eigen(sb)

        # orthogonal (x) orthogonal is orthogonal
        qq = _kron(dec_a.q, dec_b.q)
        note("orthogonality", frob(qq.T @ qq - np.eye(n * m)), math.sqrt(n * m))

        # det(A (x) B) = det(A)^m det(B)^n
        lhs_d = core.det(ab)
        rhs_d = core.det(a) ** m * core.det(b) ** n
        note("determinant", abs(lhs_d - rhs_d), abs(rhs_d))

        # tr(A (x) B) = tr(A) tr(B)
        note(
            "trace",
            abs(float(np.trace(ab)) - float(np.trace(a)) * float(np.trace(b))),
            abs(float(np.trace(a)) * float(np.trace(b))),
        )

        # eigenvalues of S_a (x) S_b are the pairwise products
        products = np.sort(np.outer(dec_a.lam, dec_b.lam).ravel())
        direct = np.sort(core.jacobi_eigen(_kron(sa, sb)).lam)
        note(
            "eigenpairs",
            float(np.max(np.abs(products - direct))),
            float(np.max(np.abs(products))),
        )

    return worst

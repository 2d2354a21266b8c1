"""Vectorized Jacobians of matrix -> matrix maps via Kronecker products.

``vec`` stacks columns (column-major).  The central algebraic fact is
(A (x) B) vec(C) = vec(B C A^T); everything else here is closed-form
Kronecker Jacobians for squaring, cubing, inversion and matrix functions
f(S) of symmetric matrices.  The matrix-function Jacobian is produced by the
Daleckii-Krein closed form; a finite-difference Jacobian through the general
spectral route f(M) = X f(Lambda) X^{-1} verifies it, and the product formula
predicts its determinant.  The finite-difference route takes one or several
f and decomposes each perturbed M once for all of them, each Jacobian
bitwise that of a call with its f alone.  It hands its 2 n^2 points to the
general route as one (2 n^2, n, n) stack (``fdcheck.fd_jacobian_stacked``):
the symmetric parts go through ``_by_size``, each inverse-iteration step of
all pairs is one stacked solve and every X^{-1} comes from one inversion,
each member bitwise its own stack of one.  Both spectral routes gate on
``core.require_gaps``, the general one at the scale ||M||_F.  The identity
suite runs its kernels once per distinct size over all its trials
(``_by_size``), each result bitwise that of its own 2-D call.
"""

from __future__ import annotations

import math

import numpy as np

from . import core, counting, eigsens, fdcheck
from .core import as_square, as_vector, as_matrix, frob
from .errors import ContractError, ShapeError


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
    counting.add(flops=a.size * b.size)
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

def _apply(f, x, lams, x_inv) -> np.ndarray:
    """X f(Lambda) X^{-1}, f applied eigenvalue-wise."""
    fvals = np.array([float(f(v)) for v in lams])
    return (x * fvals) @ x_inv


def matrix_function(f, s) -> np.ndarray:
    """f(S) = Q f(Lambda) Q^T for symmetric S (``_apply`` with X = Q)."""
    dec = core.jacobi_eigen(s)
    return _apply(f, dec.q, dec.lam, dec.q.T)


def _eig_near_symmetric(m: np.ndarray):
    """Eigendecompositions M_i = X_i diag(lams_i) X_i^{-1} of a (k, n, n)
    stack of real matrices whose asymmetric parts are small perturbations of
    symmetric matrices with well-separated eigenvalues: (X, lams), stacked.

    Starts from the rotations of each symmetric part (``_by_size``) and
    sharpens each of the k n pairs with two steps of shifted inverse
    iteration + a Rayleigh-quotient update; the shift is offset from the
    eigenvalue estimate so the shifted matrix stays comfortably invertible.
    Each step solves every pair still iterating in one stacked solve
    (``core.lu_solve_stack``); a pair whose shifted matrix is singular keeps
    its current estimate and stops.  So each member is bitwise its own stack
    of one.
    """
    k, n = m.shape[:2]
    decs = _by_size(0.5 * (m + m.swapaxes(1, 2)), "jacobi_eigen")
    # row i n + j holds pair j of member i: its eigenvector and eigenvalue
    vs = np.array([dec.q.T for dec in decs]).reshape(k * n, n)
    lams = np.array([dec.lam for dec in decs]).reshape(k * n)
    owner = np.repeat(np.arange(k), n)
    live = np.arange(k * n)
    for _ in range(2):
        lam = lams[live]
        shifted = m[owner[live]] - (lam + 1e-8 * (1.0 + np.abs(lam)))[:, None, None] * np.eye(n)
        w, steps = core.lu_solve_stack(shifted, vs[live])
        solved = [step is None for step in steps]
        live, w = live[solved], w[solved]
        for r, wr in zip(live.tolist(), w):
            v = vs[r] = wr / frob(wr)
            lams[r] = float(v @ (m[owner[r]] @ v))
    return np.ascontiguousarray(vs.reshape(k, n, n).swapaxes(1, 2)), lams.reshape(k, n)


def _spectral_factors(m: np.ndarray):
    """The part of ``matrix_function_general`` that does not depend on f,
    for a (k, n, n) stack: (X, lams, X^{-1}) with M_i = X_i diag(lams_i)
    X_i^{-1}, each member bitwise its own stack of one.  ``core.require_gaps``
    scales member i's gap by ||M_i||_F, not its default ||lam||_2: the two
    differ for a non-normal M, whose X^{-1} grows as a gap closes.  Every
    X^{-1} comes from one ``_by_size`` inversion.  Each step runs over the
    whole stack, so of several failing members the one that raises is the
    first in step order (symmetric parts, inverse iteration, gaps, X^{-1}),
    and a stack of more than one names it."""
    x, lams = _eig_near_symmetric(m)
    for i, (mi, lam) in enumerate(zip(m, lams)):
        what = "matrix_function_general" + (core._member(i) if len(m) > 1 else "")
        core.require_gaps(lam, what, frob(mi))
    return x, lams, _by_size(x, "inverse")


def matrix_function_general(f, m) -> np.ndarray:
    """f(M) = X f(Lambda) X^{-1} for a (possibly slightly non-symmetric)
    real matrix with distinct real eigenvalues (``_spectral_factors`` of the
    stack of one)."""
    x, lams, x_inv = _spectral_factors(as_square(m)[None])
    return _apply(f, x[0], lams[0], x_inv[0])


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


def jacobian_matrix_functions_fd(fs, s) -> np.ndarray:
    """Finite-difference Jacobians of vec(f(M)) in vec(M) at a symmetric
    point, one per f in ``fs``, as a (k, n^2, n^2) stack.

    ``fdcheck.fd_jacobian_stacked`` of v -> [vec f_1(M), ..., vec f_k(M)]
    with M = unvec(v) at vec(S), so column j perturbs entry j of vec(M) alone
    (which leaves the matrix slightly non-symmetric; the evaluations go
    through the general spectral route).  The 2 n^2 perturbed M are
    decomposed together, as one stack (``_spectral_factors``), once for all
    k functions, and as the central quotient is elementwise, each Jacobian
    is bitwise that of a call with its f alone
    (``jacobian_matrix_functions_fd([f], s)[0]``) and of the evaluation of
    its points one by one.

    The independent check on ``jacobian_matrix_function``: 2 n^2 spectral
    evaluations instead of one eigendecomposition.
    """
    if not fs:
        raise ContractError("jacobian_matrix_functions_fd needs at least one function")
    s = as_square(s)
    eigsens.decompose(s)  # the point must be symmetric with distinct eigenvalues
    n = s.shape[0]

    def stacked(points):
        factors = _spectral_factors(np.array([unvec(v, n, n) for v in points]))
        return [np.concatenate([vec(_apply(f, *member)) for f in fs])
                for member in zip(*factors)]

    return fdcheck.fd_jacobian_stacked(stacked, vec(s)).reshape(len(fs), n * n, n * n)


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


# The fewest matrices of one size that ``_by_size`` passes to a kernel as
# one stack; a size with fewer goes as 2-D calls.  Each is the measured
# crossover at the suite's sizes (the table is in CHANGES.md): with fewer
# members the stack is slower than the calls it replaces.  jacobi_eigen has
# one per regime: its elementwise sweeps (n <= JACOBI_SCALAR_MAX_N) pay a
# fixed numpy cost per round that member-by-member Python floats do not,
# while its stacked matrix products beat separate calls from two members.
_STACK_MIN = {"inverse": 5, "det": 7, "jacobi_eigen": 8, "jacobi_eigen products": 2}


def _inverse(a: np.ndarray) -> np.ndarray:
    """A^-1, or the inverse of each member of a stack: ``core.lu_solve``
    against the identity."""
    eye = np.eye(a.shape[-1])
    return core.lu_solve(a, eye if a.ndim == 2 else np.broadcast_to(eye, a.shape))


def _by_size(mats: list, kernel: str) -> list:
    """``kernel`` ("jacobi_eigen", "inverse" or "det") of every square
    matrix in ``mats``, in order, each bitwise its own 2-D call: one call
    per distinct size over the stack of that size's matrices, or 2-D calls
    where a size has fewer than its ``_STACK_MIN`` entry."""
    call = {"jacobi_eigen": core.jacobi_eigen, "inverse": _inverse, "det": core.det}[kernel]
    by_size = {}
    for i, m in enumerate(mats):
        by_size.setdefault(len(m), []).append(i)
    out = [None] * len(mats)
    for n, members in by_size.items():
        products = kernel == "jacobi_eigen" and n > core.JACOBI_SCALAR_MAX_N
        if len(members) < _STACK_MIN[f"{kernel} products" if products else kernel]:
            for i in members:
                out[i] = call(mats[i])
            continue
        res = call(np.array([mats[i] for i in members]))
        if kernel == "jacobi_eigen":
            res = [core.EigenDecomp(q=q, lam=lam) for q, lam in zip(res.q, res.lam)]
        elif kernel == "det":
            res = res.tolist()
        for i, r in zip(members, res):
            out[i] = r
    return out


def kron_identity_suite(seed: int = 0, trials: int = 50) -> dict:
    """Randomized check of seven Kronecker-product identities; returns the
    worst relative residual seen per identity.

    Every trial's matrices are drawn first.  The kernels then run once per
    distinct size over all trials (``_by_size``): the inverses of the
    shifted A, B and their Kronecker product, the determinants of A (x) B,
    A and B, and the eigendecompositions of S_a, S_b and S_a (x) S_b, each
    bitwise its own 2-D call.  The identities are then noted trial by
    trial, so each worst residual is that of one call per matrix.
    """
    rng = np.random.default_rng(seed)
    worst = {name: 0.0 for name in KRON_IDENTITIES}

    def note(name, delta, ref):
        worst[name] = max(worst[name], _rel(delta, ref))

    draws = []
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        draws.append([rng.uniform(-1.0, 1.0, size=(s, s)) for s in (n, m, n, m)])

    shifted, dets, spectral = [], [], []  # three matrices a trial, in turn
    for a, b, _, _ in draws:
        # shifted to guarantee invertibility
        a1 = a + (len(a) + 1.0) * np.eye(len(a))
        b1 = b + (len(b) + 1.0) * np.eye(len(b))
        shifted += (a1, b1, _kron(a1, b1))
        dets += (_kron(a, b), a, b)
        # one eigendecomposition per symmetric part serves the orthogonality
        # and the eigenpair checks: a + a^T = 2 sa exactly, and a power-of-two
        # scaling changes no rotation, so the q of sa is the q of a + a^T
        sa = 0.5 * (a + a.T)
        sb = 0.5 * (b + b.T)
        spectral += (sa, sb, _kron(sa, sb))
    inverses = _by_size(shifted, "inverse")
    determinants = _by_size(dets, "det")
    decs = _by_size(spectral, "jacobi_eigen")

    for t, (a, b, c, d) in enumerate(draws):
        n, m = len(a), len(b)
        ab = dets[3 * t]

        # (A (x) B)^T = A^T (x) B^T
        note("transpose", frob(ab.T - _kron(a.T, b.T)), frob(ab))

        # (A (x) B)(C (x) D) = AC (x) BD
        lhs = ab @ _kron(c, d)
        rhs = _kron(a @ c, b @ d)
        note("mixed_product", frob(lhs - rhs), frob(rhs))

        # (A (x) B)^-1 = A^-1 (x) B^-1
        inv_a, inv_b, inv_big = inverses[3 * t:3 * t + 3]
        note("inverse", frob(inv_big - _kron(inv_a, inv_b)), frob(inv_big))

        # det(A (x) B) = det(A)^m det(B)^n
        lhs_d, det_a, det_b = determinants[3 * t:3 * t + 3]
        rhs_d = det_a ** m * det_b ** n
        note("determinant", abs(lhs_d - rhs_d), abs(rhs_d))

        # tr(A (x) B) = tr(A) tr(B)
        note(
            "trace",
            abs(float(np.trace(ab)) - float(np.trace(a)) * float(np.trace(b))),
            abs(float(np.trace(a)) * float(np.trace(b))),
        )

        dec_a, dec_b, dec_ab = decs[3 * t:3 * t + 3]
        nm = dec_ab.lam.size

        # orthogonal (x) orthogonal is orthogonal
        qq = _kron(dec_a.q, dec_b.q)
        note("orthogonality", frob(qq.T @ qq - np.eye(nm)), math.sqrt(nm))

        # eigenvalues of S_a (x) S_b are the pairwise products
        products = np.sort(np.outer(dec_a.lam, dec_b.lam).ravel())
        direct = np.sort(dec_ab.lam)
        note(
            "eigenpairs",
            float(np.max(np.abs(products - direct))),
            float(np.max(np.abs(products))),
        )

    return worst

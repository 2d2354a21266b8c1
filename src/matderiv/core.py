"""Dense and tridiagonal real linear algebra.

The numeric substrate for everything else: partial-pivot LU, the banded
Thomas solve, a Jacobi eigensolver for symmetric matrices (Brent-Luk
round-robin ordering: each sweep is a sequence of rounds of disjoint
rotations), and LU-based determinants and log-determinants.  Factorizations
and the eigensolver are written out here, each in two regimes chosen by n:
  - small n, where numpy's fixed cost per call would outweigh the
    arithmetic: loops over Python floats (``tolist()`` rows, no numpy call
    inside) -- LU up to LU_SCALAR_MAX_N = 16 rows (its substitution while
    the right-hand side holds at most 2 * LU_SCALAR_MAX_N numbers), Jacobi
    up to JACOBI_SCALAR_MAX_N = 5, where a round is column-pair and
    row-pair updates;
  - above the cuts: numpy arrays as storage and for elementwise/block
    arithmetic -- rank-1 row updates in LU, and a Jacobi round as two
    matrix products with its block rotation J.
The two LU regimes are bitwise equal; the Jacobi regimes agree to roundoff.
The cuts are measured crossovers, not options.  The Thomas sweeps always
run on Python floats (over memoryviews).

``jacobi_eigen``, ``lu_solve`` and ``det`` also take a (k, n, n) stack of
matrices, so numpy's fixed cost per call is paid once per stack, and each
member's output is bitwise that of its own call:
  - above JACOBI_SCALAR_MAX_N a Jacobi stack's rounds are stacked products;
    a Jacobi stack at n <= 5 sweeps elementwise, bitwise each member's own
    call: the Python-float regime's operations, each made over all live
    members at once.  A member leaves the stack at the sweep where its own
    stopping test passes;
  - the stacked elimination is bitwise the 2-D regimes: each member picks
    its own pivot against its own tolerance and swaps its own rows, and
    leaves the stack at a failing pivot.  ``lu_solve`` raises for such a
    member; ``lu_solve_stack`` reports it and solves the others.
A 2-D call keeps the 2-D code, which a stack of one does not beat.

Conventions fixed by this module:
  - vectors are 1-D float64 arrays, matrices 2-D float64 arrays;
  - eigenvalues are returned ascending, with each eigenvector column signed
    so its largest-magnitude entry is positive;
  - every Frobenius norm is ``frob``, one sum of squares that raises no
    numpy warning and is scaled where it leaves the normal range: the pivot
    tolerances, the symmetry guard, ``TridiagSym.norm`` and the Jacobi
    invariant checks, member by member for a stack.  Only the Jacobi sweeps'
    stopping tests form their own sums, on data already scaled into range;
  - every pivot test uses the single tolerance ``PIVOT_RTOL * ||A||_F``;
  - the symmetry contract (``require_symmetric``, SYM_RTOL) and the
    eigenvalue-gap guard (``require_gaps``, GAP_RTOL) live here once and are
    shared by every module that needs them.

All returned objects are treated as immutable; operations are pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import counting
from .errors import (
    ContractError,
    ConvergenceError,
    DegenerateEigenvaluesError,
    ShapeError,
    SingularMatrixError,
)

PIVOT_RTOL = 1e-12      # pivot threshold relative to the Frobenius norm
SYM_RTOL = 1e-12        # symmetry tolerance: ||A - A^T||_F <= SYM_RTOL * ||A||_F
GAP_RTOL = 1e-8         # eigenvalue gaps at or below this * max(||lam||_2, 1) are degenerate
JACOBI_MAX_SWEEPS = 100
JACOBI_OFF_RTOL = 1e-12  # stop when off-diagonal norm falls below this * ||S||_F
LU_SCALAR_MAX_N = 16    # LU runs on Python floats up to this n (measured crossover)
JACOBI_SCALAR_MAX_N = 5  # Jacobi runs on Python floats up to this n (measured crossover)
_TINY = float(np.finfo(float).smallest_subnormal)
_TINY_NORMAL = float(np.finfo(float).tiny)
# jacobi_eigen works on S / 2^e when ||S||_F is outside this range, where its
# sums of squares would over- or underflow
_JACOBI_SAFE_NORM = (2.0 ** -400, 2.0 ** 400)


def _all_finite(a: np.ndarray) -> bool:
    # count_nonzero runs no ufunc reduction, which is most of the cost of
    # np.isfinite(a).all() on the few entries of a derivative driver's point
    return np.count_nonzero(np.isfinite(a)) == a.size


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ShapeError(f"expected a 1-D vector, got ndim={v.ndim}")
    if not _all_finite(v):
        raise ContractError("vector contains non-finite entries")
    return v


def as_matrix(x) -> np.ndarray:
    m = np.asarray(x, dtype=float)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not _all_finite(m):
        raise ContractError("matrix contains non-finite entries")
    return m


def as_square(x) -> np.ndarray:
    m = as_matrix(x)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def frob(x) -> float:
    """Frobenius norm: sqrt of the sum of squared entries (any shape), the
    one Frobenius norm of the package.

    The sum of squares is ``np.vdot(a, a)``, which raises no numpy warning
    where it overflows.  Where it overflows or falls below the normal range
    (entries past about 1e154 or all below about 1e-154), the entries are
    first divided by max |a_ij|, so the norm is accurate wherever it is
    representable.  An inf or NaN entry gives inf or NaN."""
    a = np.asarray(x, dtype=float)
    s = float(np.vdot(a, a))
    if _TINY_NORMAL <= s < math.inf:
        return math.sqrt(s)
    if s == 0.0 and not np.count_nonzero(a):
        return 0.0
    big = float(np.maximum.reduce(np.abs(a), axis=None))
    if not math.isfinite(big):
        return big
    a = a / big
    return big * math.sqrt(float(np.vdot(a, a)))


def is_symmetric(a, norm: float | None = None) -> bool:
    """True when ||A - A^T||_F <= SYM_RTOL * ||A||_F (so the zero matrix is).
    A caller that already holds ||A||_F may pass it as ``norm``."""
    if norm is None:
        norm = frob(a)
    return frob(a - a.T) <= SYM_RTOL * norm


def require_symmetric(a, what: str, norm: float | None = None) -> None:
    """The symmetry contract: raise ``ContractError`` naming ``what`` unless
    ``a`` is symmetric to SYM_RTOL (``norm`` as in ``is_symmetric``)."""
    if not is_symmetric(a, norm):
        raise ContractError(f"{what} needs a symmetric matrix")


def min_gap(lam) -> float:
    """Smallest distance between two eigenvalues (inf for fewer than two)."""
    lam = np.sort(as_vector(lam))
    if len(lam) < 2:
        return np.inf
    return float(np.min(np.diff(lam)))


def require_gaps(lam, what: str, norm: float | None = None) -> None:
    """The gap guard: raise ``DegenerateEigenvaluesError`` naming ``what``
    when two eigenvalues are within GAP_RTOL * max(norm, 1).  ``norm``
    defaults to ||lam||_2, which is ||S||_F for a symmetric S; for a
    non-normal M it is below ||M||_F, so ``kron`` passes ||M||_F."""
    if norm is None:
        norm = frob(lam)
    gap = min_gap(lam)
    if gap <= GAP_RTOL * max(norm, 1.0):
        raise DegenerateEigenvaluesError(
            f"{what}: eigenvalues too close (min gap {gap:.3e})"
        )


def divided_differences(num, lam, diag) -> np.ndarray:
    """M[i, j] = num[i, j] / (lam[i] - lam[j]) off the diagonal, with
    ``diag`` (a scalar or one value per row) on it.  The eigenvalues must be
    distinct (see ``require_gaps``)."""
    lam = np.asarray(lam, dtype=float)
    diff = lam[:, None] - lam[None, :]
    np.fill_diagonal(diff, 1.0)
    out = np.asarray(num, dtype=float) / diff
    np.fill_diagonal(out, diag)
    return out


def matmul(a, b) -> np.ndarray:
    """Matrix product, counted at the nominal 2*m*p*q scalar operations."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ ({a.shape} @ {b.shape})")
    counting.add(flops=2 * a.shape[0] * a.shape[1] * b.shape[1])
    return a @ b


def matvec(a, x) -> np.ndarray:
    a = as_matrix(a)
    x = as_vector(x)
    if a.shape[1] != x.shape[0]:
        raise ShapeError(f"matvec: inner dimensions differ ({a.shape} @ {x.shape})")
    counting.add(flops=2 * a.shape[0] * a.shape[1])
    return a @ x


def dot(x, y) -> float:
    x = as_vector(x)
    y = as_vector(y)
    if x.shape != y.shape:
        raise ShapeError("dot: length mismatch")
    counting.add(flops=2 * len(x))
    return float(x @ y)


@dataclass
class TridiagSym:
    """Symmetric tridiagonal matrix stored as its diagonal ``diag`` (length n)
    and off-diagonal ``offdiag`` (length n-1).  Entry (i, i+1) == entry
    (i+1, i) == offdiag[i]; everything off the band is exactly zero.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        self.diag = as_vector(self.diag)
        self.offdiag = as_vector(self.offdiag)
        if len(self.diag) < 1:
            raise ShapeError("TridiagSym needs at least one diagonal entry")
        if len(self.offdiag) != len(self.diag) - 1:
            raise ShapeError(
                f"offdiag length {len(self.offdiag)} != diag length {len(self.diag)} - 1"
            )

    @property
    def n(self) -> int:
        return len(self.diag)

    def densify(self) -> np.ndarray:
        a = np.diag(self.diag)
        for i, p in enumerate(self.offdiag):
            a[i, i + 1] = p
            a[i + 1, i] = p
        return a

    def norm(self) -> float:
        """Frobenius norm of the dense matrix, sqrt(sum d_i^2 + 2 sum e_i^2),
        from ``frob`` of each band."""
        return math.hypot(frob(self.diag), math.sqrt(2.0) * frob(self.offdiag))


@dataclass
class EigenDecomp:
    """Orthogonal eigenvector matrix ``q`` (columns are eigenvectors) and
    eigenvalues ``lam`` sorted ascending, with S = q @ diag(lam) @ q.T."""

    q: np.ndarray
    lam: np.ndarray


def _eliminate(a: np.ndarray, tol: float):
    """Partial-pivot elimination on a copy of square ``a``.

    Returns (packed LU, row permutation, pivot sign, k), where k is the
    first step whose best pivot is at or below ``tol`` (elimination stops
    there), or None when every step found a pivot above it.

    Up to LU_SCALAR_MAX_N rows it runs on Python floats
    (``_eliminate_scalar``), above on rank-1 array updates.  Both regimes
    make the same operations in the same order, so their results are
    bitwise equal; neither raises nor counts.  ``_eliminate_stack`` is the
    array regime over a stack.
    """
    n = a.shape[0]
    if n <= LU_SCALAR_MAX_N:
        return _eliminate_scalar(a, tol)
    lu = a.copy()
    perm = np.arange(n)
    sign = 1.0
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) <= tol:
            return lu, perm, sign, k
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[k], perm[p] = perm[p], perm[k]
            sign = -sign
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= lu[k + 1:, k, None] * lu[k, k + 1:]
    return lu, perm, sign, None


def _eliminate_scalar(a: np.ndarray, tol: float):
    """``_eliminate`` on a list of Python-float rows, where numpy's fixed
    cost per call would outweigh the arithmetic.  The pivot is the one
    ``np.argmax`` picks: the first entry of largest magnitude, or the first
    NaN (an elimination that overflowed), which ``>`` alone would skip."""
    n = a.shape[0]
    rows = a.tolist()
    perm = list(range(n))
    sign = 1.0
    k = None
    for step in range(n):
        p, best = step, abs(rows[step][step])
        if best == best:
            for i in range(step + 1, n):
                v = abs(rows[i][step])
                if v > best:
                    p, best = i, v
                elif v != v:
                    p, best = i, v
                    break
        if best <= tol:
            k = step
            break
        if p != step:
            rows[step], rows[p] = rows[p], rows[step]
            perm[step], perm[p] = perm[p], perm[step]
            sign = -sign
        top = rows[step]
        piv = top[step]
        for row in rows[step + 1:]:
            l = row[step] = row[step] / piv
            for j in range(step + 1, n):
                row[j] -= l * top[j]
    return np.array(rows).reshape(n, n), np.array(perm, dtype=np.intp), sign, k


def _eliminate_stack(a: np.ndarray, tol: np.ndarray):
    """``_eliminate``'s array regime over a (k, n, n) stack, with one ``tol``
    per member: (packed LUs, permutations, pivot signs, steps), where
    steps[i] is member i's k.  Each member picks its own pivot as
    ``np.argmax`` does (the first largest |a|, or the first NaN), swaps its
    own rows and takes the same division and rank-1 update, elementwise, so
    its outputs are bitwise those of its own 2-D call; a member whose pivot
    fails leaves the stack at that step, as its own call returns there.
    Overflow gives inf and NaN silently, as on Python floats."""
    k, n = a.shape[:2]
    # column n holds each row's original index, so one swap moves both
    rows = np.broadcast_to(np.arange(n, dtype=float)[:, None], (k, n, 1))
    out = (np.concatenate((a, rows), axis=2), np.ones(k))
    steps = [None] * k
    live, (lu, sign) = np.arange(k), out
    at = np.arange(k)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n):
            col = np.abs(lu[:, step:, step])
            p = col.argmax(axis=1)
            # |pivot|: max is NaN exactly where argmax picks the first NaN
            failed = col.max(axis=1) <= tol
            if failed.any():
                for whole, w in zip(out, (lu, sign)):
                    whole[live[failed]] = w[failed]
                for i in live[failed].tolist():
                    steps[i] = step
                keep = ~failed
                live, tol, p, lu, sign = live[keep], tol[keep], p[keep], lu[keep], sign[keep]
                at = at[:len(live)]
            if step + 1 == n:  # one row left: no swap and nothing below it
                break
            np.negative(sign, out=sign, where=p != 0)
            p += step
            pivot_rows = lu[at, p]
            lu[at, p] = lu[:, step]
            lu[:, step] = pivot_rows
            lu[:, step + 1:, step] /= lu[:, step, step, None]
            lu[:, step + 1:, step + 1:n] -= lu[:, step + 1:, step, None] * lu[:, step, None, step + 1:n]
    if lu is not out[0]:
        out[0][live], out[1][live] = lu, sign
    return out[0][..., :n], out[0][..., n].astype(np.intp), out[1], steps


def _lu_factor_flops(n: int) -> int:
    """Nominal flops of an n x n elimination: the sum of r + 2 r^2 over the
    trailing sizes r < n, in closed form."""
    return n * (n - 1) * (4 * n + 1) // 6


def lu_factor(a) -> tuple[np.ndarray, np.ndarray, float]:
    """Partial-pivot LU.  Returns (packed LU, row permutation, pivot sign).

    The permutation array ``perm`` maps factored row k to original row
    perm[k].  Raises ``SingularMatrixError`` (with the failing elimination
    step) when the best available pivot is at or below PIVOT_RTOL*||A||_F.
    """
    a = as_square(a)
    lu, perm, sign, k = _eliminate(a, PIVOT_RTOL * frob(a))
    if k is not None:
        raise SingularMatrixError(
            f"matrix singular to tolerance at elimination step {k}",
            pivot_index=k,
        )
    counting.add(flops=_lu_factor_flops(a.shape[0]))
    return lu, perm, sign


def lu_solve_factored(lu: np.ndarray, perm: np.ndarray, b) -> np.ndarray:
    """Substitution phase against an existing factorization.  ``b`` may be a
    vector or a matrix of stacked right-hand-side columns, with finite
    entries.

    Both substitutions go column by column of L and U.  Up to
    LU_SCALAR_MAX_N rows they run on Python floats, one column of ``b`` at a
    time and bitwise equal to the array regime, while ``b`` holds at most
    2 * LU_SCALAR_MAX_N numbers: their cost grows with the columns, which
    the array regime's row updates take in one call each.  A zero pivot
    (from a factorization ``lu_factor`` did not make) takes the array
    regime, which divides it out to +-inf or NaN.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2):
        raise ShapeError(f"rhs must be a vector or a matrix, got ndim={b.ndim}")
    n = lu.shape[0]
    if b.shape[0] != n:
        raise ShapeError(f"rhs has {b.shape[0]} rows, matrix is {n}x{n}")
    if not _all_finite(b):
        raise ContractError("rhs contains non-finite entries")
    vector_rhs = b.ndim == 1
    if vector_rhs:
        b = b[:, None]
    x = b[perm]  # fancy indexing: a copy
    if n <= LU_SCALAR_MAX_N and 0 < x.size <= 2 * LU_SCALAR_MAX_N and lu.diagonal().all():
        rows = lu.tolist()
        cols = x.T.tolist()
        for col in cols:
            _substitute_scalar(rows, col)
        x.T[:] = cols
    else:
        for k in range(n):          # forward: L has unit diagonal
            x[k + 1:] -= lu[k + 1:, k, None] * x[k]
        for k in range(n - 1, -1, -1):  # backward
            x[k] /= lu[k, k]
            x[:k] -= lu[:k, k, None] * x[k]
    counting.add(flops=2 * n * n * b.shape[1])
    return x[:, 0] if vector_rhs else x


def _substitute_scalar(rows: list, x: list) -> None:
    """Forward and back substitution of the Python-float column ``x`` in
    place, against packed LU ``rows`` with nonzero pivots: the array
    regime's operations on one right-hand side, in its order."""
    n = len(x)
    for k in range(n):
        xk = x[k]
        for i in range(k + 1, n):
            x[i] -= rows[i][k] * xk
    for k in range(n - 1, -1, -1):
        xk = x[k] = x[k] / rows[k][k]
        for i in range(k):
            x[i] -= rows[i][k] * xk


def lu_solve_pivots(a, b) -> tuple[np.ndarray, float, np.ndarray]:
    """``lu_solve`` that also returns (pivot sign, LU pivots): one elimination
    gives A^-1 b and, through ``det_times``, det(A)."""
    lu, perm, sign = lu_factor(a)
    x = lu_solve_factored(lu, perm, b)
    counting.add(solves=1)
    return x, sign, lu.diagonal()


def _eliminate_rhs(a, b):
    """The stack path of ``lu_solve`` up to its substitution: the checks of
    the (k, n, n) stack ``a`` and its right-hand sides ``b``, of shape (k, n)
    or (k, n, m), then one elimination over the stack (``_eliminate_stack``),
    each member against its own PIVOT_RTOL * ||A_i||_F.  Returns (packed
    LUs, permutations, steps, b) as ``_eliminate_stack`` and the checked b."""
    a = _as_square_stack(np.asarray(a, dtype=float), "lu_solve")
    b = np.asarray(b, dtype=float)
    k, n = a.shape[:2]
    if b.ndim not in (2, 3) or b.shape[:2] != (k, n):
        raise ShapeError(f"lu_solve: rhs of shape {b.shape} for a stack of shape {a.shape}")
    if not _all_finite(b):
        raise ContractError("rhs contains non-finite entries")
    lu, perm, _, steps = _eliminate_stack(a, PIVOT_RTOL * np.array([frob(m) for m in a]))
    return lu, perm, steps, b


def _substitute_stack(lu, perm, steps, b) -> np.ndarray:
    """``lu_solve_factored``'s array regime over a stack, without its empty
    updates, for the members whose elimination finished (steps[i] is None):
    one solve event and one member's flops each.  The other members are not
    substituted, and their x is NaN."""
    rhs = b if b.ndim == 3 else b[..., None]
    done = [i for i, step in enumerate(steps) if step is None]
    if len(done) < len(steps):
        lu, perm, rhs = lu[done], perm[done], rhs[done]
    n = lu.shape[1]
    x = rhs[np.arange(len(done))[:, None], perm]  # a copy
    for j in range(n - 1):
        x[:, j + 1:] -= lu[:, j + 1:, j, None] * x[:, j, None]
    for j in range(n - 1, -1, -1):
        x[:, j] /= lu[:, j, j, None]
        if j:
            x[:, :j] -= lu[:, :j, j, None] * x[:, j, None]
    counting.add(flops=len(done) * (_lu_factor_flops(n) + 2 * n * n * x.shape[2]),
                 solves=len(done))
    if len(done) < len(steps):
        full = np.full((len(steps),) + x.shape[1:], np.nan)
        full[done] = x
        x = full
    return x if b.ndim == 3 else x[..., 0]


def lu_solve_stack(a, b) -> tuple[np.ndarray, list]:
    """``lu_solve`` of a (k, n, n) stack that reports a singular member
    instead of raising: (x, steps), where steps[i] is None when member i
    eliminated fully and else its failing step.  Only the members that
    eliminated fully are substituted and counted, each x bitwise that of its
    own call; a singular member's x is NaN."""
    lu, perm, steps, b = _eliminate_rhs(a, b)
    return _substitute_stack(lu, perm, steps, b), steps


def lu_solve(a, b) -> np.ndarray:
    """Solve a x = b by partial-pivot LU; one solve event on the counter.

    ``b`` may be a vector or a matrix of right-hand-side columns.  ``a`` may
    also be a (k, n, n) stack, with ``b`` of shape (k, n) or (k, n, m): one
    elimination (``_eliminate_stack``) and one substitution over the whole
    stack, each member's x bitwise that of its own call, and k solve events
    with k times one member's flops.  A member singular to its own tolerance
    PIVOT_RTOL * ||A_i||_F raises ``SingularMatrixError``, naming the lowest
    such member and its own failing step, and nothing is counted
    (``lu_solve_stack`` reports it instead).
    """
    if getattr(a, "ndim", 2) != 3:
        return lu_solve_pivots(a, b)[0]
    lu, perm, steps, b = _eliminate_rhs(a, b)
    for i, step in enumerate(steps):
        if step is not None:
            raise SingularMatrixError(
                f"lu_solve{_member(i)}: matrix singular to tolerance at elimination step {step}",
                pivot_index=step,
            )
    return _substitute_stack(lu, perm, steps, b)


def _signed_pivots(a):
    """(permutation sign, LU pivots) of square ``a``, or None when the
    elimination meets an exactly zero pivot column."""
    lu, _, sign, k = _eliminate(as_square(a), 0.0)
    if k is not None:
        return None
    return sign, np.diag(lu)


def det_sign(sign: float, piv: np.ndarray) -> float:
    """Sign of det(A) from A's pivot sign and nonzero LU pivots."""
    return sign * float(np.multiply.reduce(np.sign(piv)))


def _log_product(sign: float, piv: np.ndarray) -> tuple[float, float]:
    """(sign, log|prod|) of sign * prod(piv) for nonzero pivots."""
    return det_sign(sign, piv), float(np.add.reduce(np.log(np.abs(piv))))


def slogdet(a) -> tuple[float, float]:
    """(sign, log|det A|) from the LU pivots; (0.0, -inf) at an exactly zero
    pivot column, as ``det`` returns 0.0 there.  Never overflows.  Nothing is
    counted."""
    pivots = _signed_pivots(a)
    if pivots is None:
        return 0.0, -np.inf
    return _log_product(*pivots)


def det_times(sign: float, piv: np.ndarray, x):
    """det(A) * x from A's pivot sign and LU pivots, without warnings: the
    pivot product times ``x`` where every partial product of the pivots is a
    normal float (a subnormal one has lost digits that a later pivot can
    scale back into the normal range), else sign * exp(log|det| + log|x|)
    entrywise, +-inf only where the true value is and 0 at a zero pivot.
    """
    with np.errstate(over="ignore", divide="ignore"):
        d = sign * np.multiply.reduce(piv)
        if (np.abs(np.multiply.accumulate(piv)) >= _TINY_NORMAL).all() and abs(d) < np.inf:
            return d * x
        sign, logabs = _log_product(sign, piv)
        return sign * np.sign(x) * np.exp(logabs + np.log(np.abs(x)))


def det(a):
    """Determinant from the LU pivots, ``det_times(..., 1.0)``: their signed
    product where every partial product is a normal float, else through
    log|det|.

    Unlike ``lu_solve`` this does not raise on singular input: an exactly
    zero pivot column simply yields 0.0.  Nothing is counted.  A (k, n, n)
    stack gives an array of k determinants from one elimination over the
    stack (``_eliminate_stack``), each bitwise that of its own call.
    """
    if getattr(a, "ndim", 2) != 3:
        pivots = _signed_pivots(a)
        if pivots is None:
            return 0.0
        return float(det_times(*pivots, 1.0))
    a = _as_square_stack(np.asarray(a, dtype=float), "det")
    lu, _, sign, steps = _eliminate_stack(a, np.zeros(len(a)))
    piv = lu.diagonal(0, 1, 2)
    with np.errstate(over="ignore"):
        # det_times' test, member by member: the product where every partial
        # product is a normal float, else det_times itself (through logs)
        out = sign * np.multiply.reduce(piv, axis=1)
        normal = (np.abs(np.multiply.accumulate(piv, axis=1)) >= _TINY_NORMAL).all(axis=1)
    through_logs = ~(normal & (np.abs(out) < np.inf))
    failed = [i for i, step in enumerate(steps) if step is not None]
    through_logs[failed] = False
    for i in np.flatnonzero(through_logs).tolist():
        out[i] = det_times(sign[i], piv[i], 1.0)
    out[failed] = 0.0
    return out


def _zero_diagonal(row: int) -> SingularMatrixError:
    return SingularMatrixError(f"tridiagonal elimination hit a zero diagonal at row {row}",
                               pivot_index=row)


def thomas_solve(t: TridiagSym, b) -> np.ndarray:
    """Theta(n) tridiagonal solve (no pivoting).

    Caller contract: the band must be nonsingular along the plain
    elimination order -- diagonally dominant systems always are.  A zero (to
    tolerance) eliminated diagonal entry raises ``SingularMatrixError``.

    The sweeps are scalar loops, so they index memoryviews of the float64
    arrays: an item read from a memoryview is a Python float, while one read
    from an ndarray is a boxed numpy scalar whose arithmetic costs several
    times more.  Views rather than ``tolist()`` copies keep the memory at the
    arrays' own n doubles, and any stride or read-only flag is honoured as is.
    The previous row's pivot and right-hand side stay in locals.
    """
    b = as_vector(b)
    n = t.n
    if len(b) != n:
        raise ShapeError(f"rhs length {len(b)} != system size {n}")
    tol = PIVOT_RTOL * t.norm()
    diag, e, rhs = memoryview(t.diag), memoryview(t.offdiag), memoryview(b)
    x = np.empty(n)
    # d holds the eliminated diagonal; x holds the eliminated right-hand
    # side until back substitution overwrites it with the solution
    d, xv = memoryview(np.empty(n)), memoryview(x)
    dp = d[0] = diag[0]
    rp = xv[0] = rhs[0]
    for i in range(1, n):
        if abs(dp) <= tol:
            raise _zero_diagonal(i - 1)
        ei = e[i - 1]
        w = ei / dp
        dp = d[i] = diag[i] - w * ei
        rp = xv[i] = rhs[i] - w * rp
    if abs(dp) <= tol:
        raise _zero_diagonal(n - 1)
    xp = xv[n - 1] = rp / dp
    for i in range(n - 2, -1, -1):
        xp = xv[i] = (xv[i] - e[i] * xp) / d[i]
    counting.add(flops=8 * n - 7, solves=1)
    return x


def _jacobi_schedule(n: int) -> np.ndarray:
    """Brent-Luk round-robin schedule for n x n Jacobi sweeps.

    Shape (rounds, 2, m): round k pairs index [k, 0, i] with [k, 1, i], the
    first always the smaller, and no index repeats within a round, so its
    rotations commute.  Over one sweep every off-diagonal pair appears exactly
    once: n - 1 rounds of n/2 pairs for even n, n rounds of (n - 1)/2 pairs
    for odd n (a phantom index n pairs with the index sitting out, and that
    pair is dropped).
    """
    m = n + (n % 2)
    ring = list(range(1, m))
    rounds = []
    for _ in range(m - 1):
        seats = [0] + ring
        pairs = [(seats[i], seats[m - 1 - i]) for i in range(m // 2)]
        pairs = sorted((min(i, j), max(i, j)) for i, j in pairs if max(i, j) < n)
        rounds.append(np.array(pairs, dtype=np.intp).reshape(-1, 2).T)
        ring = ring[-1:] + ring[:-1]
    return np.array(rounds)


@functools.cache
def _jacobi_plan(n: int) -> tuple[np.ndarray, ...]:
    """Flat indices of the Jacobi rounds for n x n matrices, built once per n.

    One (4, m) index array per round of ``_jacobi_schedule``: its rows are
    the flat positions of (p, p), (r, r), (p, r) and (r, p) for the round's
    pairs (p, r).  Only indices are kept, 16 n (n - 1) bytes in all.
    """
    return tuple(np.stack((p * (n + 1), r * (n + 1), p * n + r, r * n + p))
                 for p, r in _jacobi_schedule(n))


def _member(i) -> str:
    """How a stacked kernel's errors name member i of a stack ('' for a
    single matrix, i = None)."""
    return "" if i is None else f" (stack member {i})"


def _as_square_stack(s: np.ndarray, what: str) -> np.ndarray:
    """The (k, n, n) float stack ``s`` after the checks of ``as_square``,
    whose errors name ``what`` and the first non-finite member."""
    if s.shape[1] != s.shape[2]:
        raise ShapeError(f"expected a stack of square matrices, got shape {s.shape}")
    bad = np.flatnonzero(~np.isfinite(s).all(axis=(1, 2)))
    if len(bad):
        raise ContractError(f"{what}{_member(bad[0])}: matrix contains non-finite entries")
    return s


def _require_within(x: np.ndarray, tol, what: str) -> None:
    """One of ``jacobi_eigen``'s invariant checks: raise ``ContractError``
    naming ``what`` unless frob(x) <= tol, for one matrix or for each
    member of a (k, n, n) stack against its own tol, each member decided by
    ``frob`` of that member alone."""
    if x.ndim == 2:
        members = [(None, x, tol)]
    else:
        members = zip(range(len(x)), x, np.broadcast_to(tol, len(x)).tolist())
    for i, m, t in members:
        if frob(m) > t:
            raise ContractError(f"jacobi_eigen{_member(i)}: {what} invariant violated")


def _jacobi_input(s: np.ndarray, what: str = "jacobi_eigen"):
    """What ``jacobi_eigen`` sweeps for one finite square ``s``, after the
    symmetry contract (its error names ``what``): (sym, norm, e) with
    sym = (S + S^T) / 2^(e + 1) and norm = ||S||_F / 2^e, where e = 0
    unless ||S||_F is outside 2^(+-400).  A zero S gives (zeros, 0.0, 0),
    which sweeps to (I, 0)."""
    norm = frob(s)
    if norm == 0.0:
        return np.zeros_like(s), 0.0, 0
    require_symmetric(s, what, norm=norm)
    sym = 0.5 * (s + s.T)
    lo, hi = _JACOBI_SAFE_NORM
    if lo <= norm <= hi:
        return sym, norm, 0
    # scaling by a power of two is exact: the sweeps run as on S itself
    e = math.frexp(norm)[1]
    return np.ldexp(sym, -e), math.ldexp(norm, -e), e


def jacobi_eigen(s) -> EigenDecomp:
    """Jacobi eigensolver for symmetric matrices, Brent-Luk round-robin order.

    ``s`` is one (n, n) matrix or a (k, n, n) stack of them.  A stack gives
    ``q`` of shape (k, n, n) and ``lam`` of shape (k, n), each member's
    bitwise those of its own call.

    Each sweep visits every off-diagonal pair once, in rounds of disjoint
    pairs.  The rotations of a round commute, so they are all computed from
    the same matrix and applied together: A <- J^T A J, with the rotated
    a_pr and a_rp set to exactly zero, and Q <- Q J, where J is the round's
    block rotation.  Above JACOBI_SCALAR_MAX_N rows a round is two matrix
    products with J (``_jacobi_products``; for a stack, stacked products
    over all of it); up to it, column-pair and row-pair updates on Python
    floats (``_jacobi_scalar``).  A Jacobi stack at n <= 5 sweeps
    elementwise, bitwise each member's own call (``_jacobi_elementwise``:
    each of those updates made over all live members).  Sweeps run until the
    off-diagonal Frobenius norm falls below JACOBI_OFF_RTOL * ||S||_F, and a
    member leaves its stack at the sweep where its own test passes.  An S
    with ||S||_F outside 2^(+-400) is swept as the exactly scaled S / 2^e,
    so no sum of squares over- or underflows.  These guards run member by
    member; the sort, the sign fix and the invariant checks run once over a
    stack, each member checked against its own norm.
    Asymmetric input (beyond SYM_RTOL relative) is a contract violation;
    failure to converge within JACOBI_MAX_SWEEPS raises ``ConvergenceError``.
    Either error names the offending member of a stack.
    """
    s = np.asarray(s, dtype=float)
    stack = s.ndim == 3
    if not stack:
        s = as_square(s)
        sym, norm, e = _jacobi_input(s)
    else:
        _as_square_stack(s, "jacobi_eigen")
        parts = [_jacobi_input(m, "jacobi_eigen" + _member(i)) for i, m in enumerate(s)]
        sym = np.array([p[0] for p in parts]).reshape(s.shape)
        norm = np.array([p[1] for p in parts])
        e = np.array([p[2] for p in parts], dtype=int)[:, None]
    n = s.shape[-1]
    if n == 0:
        return EigenDecomp(q=np.zeros(s.shape), lam=np.zeros(s.shape[:-1]))
    if n > JACOBI_SCALAR_MAX_N:
        sweeps = _jacobi_products
    else:
        sweeps = _jacobi_elementwise if stack else _jacobi_scalar
    lam, q = sweeps(sym, JACOBI_OFF_RTOL * norm)
    # ascending eigenvalues (stable sort), then deterministic column signs:
    # each column's largest-magnitude entry > 0; the columns are worked on
    # as the rows of q^T
    pick = (np.arange(len(lam))[:, None],) if stack else ()
    order = lam.argsort(kind="stable")
    lam = lam[(*pick, order)]
    cols = q.swapaxes(-1, -2)[(*pick, order)]
    lead = cols[(*pick, np.arange(n), np.abs(cols).argmax(axis=-1))]
    qt = cols * np.copysign(1.0, lead)[..., None]
    q = qt.swapaxes(-1, -2)
    _require_within(qt @ q - np.eye(n), 1e-10 * n, "orthogonality")
    _require_within((q * lam[..., None, :]) @ qt - sym, 1e-8 * norm, "reconstruction")
    # ldexp by 0 is exact, so a stack scales all its members back at once
    return EigenDecomp(q=q, lam=np.ldexp(lam, e) if stack or e else lam)


def _rotation(app, arr, apr, hypot, copysign, fmax):
    """(c, s) of the Jacobi rotation [[c, s], [-s, c]] on (p, r), with
    t = s/c the smaller root of t^2 + (d / a_pr) t - 1 = 0, d = a_rr - a_pp:
      t = sign(d) 2 a_pr / (|d| + hypot(d, 2 a_pr)),  sign(0) = 1.
    It cannot overflow, and is 0 (the identity) when a_pr = 0; the _TINY
    floor only replaces the 0/0 of a_pr = d = 0.  The same formula serves a
    round's arrays (numpy's hypot, copysign, fmax), one pair's Python floats
    (``math.hypot``, ``math.copysign``, ``max``) and a stack round's arrays
    with ``math.hypot`` entry by entry (``_hypot_each``), which has the bits
    of the Python floats."""
    apr2 = apr + apr
    d = arr - app
    t = apr2 / copysign(fmax(abs(d) + hypot(d, apr2), _TINY), d)
    c = 1.0 / hypot(t, 1.0)
    return c, t * c


def _not_converged(member) -> ConvergenceError:
    return ConvergenceError(f"jacobi_eigen{_member(member)}: off-diagonal norm not reduced "
                            f"in {JACOBI_MAX_SWEEPS} sweeps")


def _jacobi_products(sym: np.ndarray, off_tol):
    """The sweeps of ``jacobi_eigen`` as matrix products over the cached
    ``_jacobi_plan``, for one (n, n) matrix or a (k, n, n) stack with one
    ``off_tol`` per member: (eigenvalues unsorted, Q), shaped as sym's
    diagonals and sym.  A stack's rounds are stacked products, and a member
    leaves the stack at the sweep where its own off-diagonal norm is within
    its ``off_tol``, so it goes through the rounds of its own call.  Raises
    ``ConvergenceError`` when JACOBI_MAX_SWEEPS sweeps leave a member above
    it."""
    n = sym.shape[-1]
    plan = _jacobi_plan(n)
    eye = np.eye(n)
    off_diagonal = 1.0 - eye
    if sym.ndim == 3:
        live = np.arange(len(sym))
        lam, vecs = np.empty(sym.shape[:2]), np.empty(sym.shape)
        # member i's flat indices lie i n^2 further on
        plan = [idx[..., None] + n * n * live for idx in plan]
        eye = np.repeat(eye[None], len(sym), axis=0)
    a, q = sym, eye
    for _ in range(JACOBI_MAX_SWEEPS):
        # each member's off-diagonal norm (1 - I zeroes the diagonal
        # exactly), stacked, with its own sum rather than frob's: the data is
        # scaled into range, so no square overflows, and any that underflows
        # lies far below off_tol
        done = np.sqrt(np.add.reduce(np.square(a * off_diagonal), axis=(-2, -1))) <= off_tol
        if sym.ndim == 2:
            if done:
                return a.diagonal(), q
        else:
            if done.any():
                lam[live[done]] = a.diagonal(0, -2, -1)[done]
                vecs[live[done]] = q[done]
                keep = ~done
                a, q, live, off_tol = a[keep], q[keep], live[keep], off_tol[keep]
                eye, plan = eye[:len(live)], [idx[..., :len(live)] for idx in plan]
            if not len(live):
                return lam, vecs
        for idx in plan:
            c, sn = _rotation(*a.take(idx[:3]), np.hypot, np.copysign, np.fmax)
            j = eye.copy()
            j.put(idx, (c, c, sn, -sn))
            a = j.swapaxes(-1, -2) @ a @ j
            a.put(idx[2:], 0.0)  # a_pr = a_rp = 0
            q = q @ j
    raise _not_converged(live[0] if sym.ndim == 3 else None)


@functools.cache
def _jacobi_pairs(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The rounds of ``_jacobi_schedule`` as tuples of (p, r) Python ints,
    built once per n for ``_jacobi_scalar``."""
    return tuple(tuple(zip(p.tolist(), r.tolist())) for p, r in _jacobi_schedule(n))


def _jacobi_scalar(sym: np.ndarray, off_tol: float):
    """``_jacobi_products`` for one matrix on lists of Python-float rows,
    where numpy's fixed cost per call would outweigh the arithmetic.  A
    round computes all its rotations from the same A, then applies them as
    column-pair updates of the rows of A and Q and row-pair updates of A."""
    n = sym.shape[0]
    a = sym.tolist()
    q = np.eye(n).tolist()
    a_and_q = a + q
    rounds = _jacobi_pairs(n)
    for _ in range(JACOBI_MAX_SWEEPS):
        # the off-diagonal norm over Python floats, its own sum rather than
        # frob's: the data is already scaled into range, and a numpy call
        # per sweep would cost more than the sum itself.  The squares are
        # added left to right, row by row, as ``_jacobi_elementwise`` adds
        # them (``sum`` is compensated from Python 3.12 on)
        off = 0.0
        for i, row in enumerate(a):
            for j, x in enumerate(row):
                if i != j:
                    off += x * x
        if math.sqrt(off) <= off_tol:
            return np.array([a[i][i] for i in range(n)]), np.array(q)
        for pairs in rounds:
            rots = [(p, r, *_rotation(a[p][p], a[r][r], a[p][r],
                                      math.hypot, math.copysign, max))
                    for p, r in pairs]
            for row in a_and_q:
                for p, r, c, sn in rots:
                    x, y = row[p], row[r]
                    row[p] = c * x - sn * y
                    row[r] = sn * x + c * y
            for p, r, c, sn in rots:
                ap, ar = a[p], a[r]
                ap[:], ar[:] = ([c * x - sn * y for x, y in zip(ap, ar)],
                                [sn * x + c * y for x, y in zip(ap, ar)])
                ap[r] = ar[p] = 0.0
    raise _not_converged(None)


_HYPOT_OBJECTS = np.frompyfunc(math.hypot, 2, 1)


def _hypot_each(x, y) -> np.ndarray:
    """``math.hypot`` entry by entry over broadcast arrays, for
    ``_jacobi_elementwise``: ``np.hypot`` rounds differently in the last bit
    on some pairs."""
    return _HYPOT_OBJECTS(x, y).astype(float)


@functools.cache
def _jacobi_partners(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The pair updates of each round of ``_jacobi_schedule`` as gathers,
    built once per n for ``_jacobi_elementwise``: (partner, slots) per round.

    The round's (c x - s y, s x + c y) on a pair (p, r) is
    C_j v_j - S_j v_partner(j) at j = p and at j = r, with C = c, S = s at p
    and S = -s at r (c y - (-s) x is s x + c y exactly).  The index that
    sits out at odd n is its own partner with C = 1 and S = -0, which gives
    v_j back bit for bit, signed zeros included.  ``partner`` holds
    partner(j); ``slots`` holds where C_j and S_j sit in the round's row
    [c (m entries), s (m), -s (m), 1, -0].
    """
    out = []
    for p, r in _jacobi_schedule(n):
        m = len(p)
        partner, slots = np.arange(n), np.empty((2, n), dtype=np.intp)
        slots[:] = ((3 * m,), (3 * m + 1,))
        partner[p], partner[r] = r, p
        slots[0, p] = slots[0, r] = np.arange(m)
        slots[1, p], slots[1, r] = m + np.arange(m), 2 * m + np.arange(m)
        out.append((partner, slots))
    return tuple(out)


def _jacobi_elementwise(sym: np.ndarray, off_tol: np.ndarray):
    """``_jacobi_scalar`` over a (k, n, n) stack at once, each of its
    operations made elementwise over the live members, so each member gets
    the bits of its own call: per round, the rotations from the same A
    (``_rotation`` with ``math.hypot``), the column pairs of [A; Q], the
    row pairs of A, then a_pr = a_rp = 0; per sweep, the squares of the
    off-diagonal entries added left to right in row-major order.  A member
    leaves the stack at the sweep where its own stopping test passes."""
    k, n = sym.shape[:2]
    live = np.arange(k)
    lam, vecs = np.empty(sym.shape[:2]), np.empty(sym.shape)
    aq = np.concatenate((sym, np.broadcast_to(np.eye(n), sym.shape)), axis=1)  # [A; Q]
    off_diagonal = np.flatnonzero(1.0 - np.eye(n))
    rounds = tuple(zip(_jacobi_plan(n), _jacobi_partners(n)))
    for _ in range(JACOBI_MAX_SWEEPS):
        x = aq.reshape(len(live), 2 * n * n)[:, off_diagonal]
        # a zero in front: the sum of no squares is 0.0, as in the scalar loop
        sums = np.add.accumulate(np.concatenate((np.zeros((len(x), 1)), x * x), axis=1), axis=1)
        done = np.sqrt(sums[:, -1]) <= off_tol
        if done.any():
            lam[live[done]] = aq[done, :n].diagonal(0, 1, 2)
            vecs[live[done]] = aq[done, n:]
            keep = ~done
            aq, live, off_tol = aq[keep], live[keep], off_tol[keep]
        if not len(live):
            return lam, vecs
        sit_out = np.broadcast_to((1.0, -0.0), (len(live), 2))
        for idx, (partner, slots) in rounds:
            # idx: flat positions of (p, p), (r, r), (p, r), (r, p)
            app, arr, apr = aq.reshape(len(live), 2 * n * n).take(idx[:3], axis=1).transpose(1, 0, 2)
            c, sn = _rotation(app, arr, apr, _hypot_each, np.copysign, np.fmax)
            cs = np.concatenate((c, sn, -sn, sit_out), axis=1).take(slots, axis=1)
            # columns of [A; Q], then rows of A: C_j v_j - S_j v_partner(j)
            aq = aq * cs[:, None, 0] - aq.take(partner, axis=2) * cs[:, None, 1]
            a = aq[:, :n]
            a[...] = a * cs[:, 0, :, None] - a.take(partner, axis=1) * cs[:, 1, :, None]
            aq.reshape(len(live), 2 * n * n)[:, idx[2:]] = 0.0
    raise _not_converged(live[0])

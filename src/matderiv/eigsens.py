"""First- and second-order perturbation of symmetric eigensystems.

For S = Q diag(lambda) Q^T with distinct eigenvalues and a symmetric
perturbation dS, writing B = Q^T dS Q:

* dlambda_i = B_ii  (equivalently, grad of lambda_i in S is q_i q_i^T);
* dQ = Q W with W_ij = B_ij / (lambda_j - lambda_i) for i != j, W_ii = 0;
* lambda_i(eps) = lambda_i + eps B_ii
  + eps^2 sum_{k != i} B_ik^2 / (lambda_i - lambda_k) + O(eps^3).

Everything is gated on the eigenvalue gaps: degenerate (or nearly so)
spectra make the formulas meaningless and raise instead of returning noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import EigenDecomp, as_square, as_vector, frob
from .core import min_gap  # noqa: F401  (re-exported as part of this module's API)
from .errors import ContractError


def decompose(s) -> EigenDecomp:
    """Eigendecomposition with the gap gate applied (scale = ||S||_F): the
    one guarded eigendecomposition.  ``jacobi_eigen`` enforces symmetry."""
    s = as_square(s)
    dec = core.jacobi_eigen(s)
    core.require_gaps(dec.lam, frob(s), "decompose")
    return dec


def _scale(dec: EigenDecomp) -> float:
    # ||S||_F equals the 2-norm of the eigenvalue vector.
    return float(np.sqrt(np.sum(dec.lam * dec.lam)))


def _conjugated(dec: EigenDecomp, ds) -> np.ndarray:
    ds = as_square(ds)
    core.require_symmetric(ds, "perturbation")
    if ds.shape[0] != dec.q.shape[0]:
        raise ContractError("perturbation size mismatch")
    return dec.q.T @ ds @ dec.q


def dlambda(dec: EigenDecomp, ds) -> np.ndarray:
    """First-order eigenvalue changes: diag(Q^T dS Q)."""
    core.require_gaps(dec.lam, _scale(dec), "dlambda")
    return np.diag(_conjugated(dec, ds)).copy()


def grad_lambda(dec: EigenDecomp, i: int) -> np.ndarray:
    """Gradient of lambda_i in the matrix entries: the rank-1 q_i q_i^T."""
    n = dec.q.shape[0]
    if not 0 <= i < n:
        raise IndexError(f"eigenvalue index {i} out of range")
    core.require_gaps(dec.lam, _scale(dec), "grad_lambda")
    q = dec.q[:, i]
    return np.outer(q, q)


def dq(dec: EigenDecomp, ds) -> np.ndarray:
    """First-order eigenvector changes dQ = Q W (columns stay normalized
    to first order because W = Q^T dQ is antisymmetric)."""
    return dec.q @ perturbation(dec, ds).qt_dq


@dataclass
class EigPerturbation:
    """First-order response to a symmetric dS: eigenvalue changes and the
    antisymmetric Q^T dQ."""

    dlambda: np.ndarray
    qt_dq: np.ndarray


def perturbation(dec: EigenDecomp, ds) -> EigPerturbation:
    """Both first-order responses in one conjugation."""
    b = _conjugated(dec, ds)
    lam = dec.lam
    core.require_gaps(lam, _scale(dec), "perturbation")
    w = core.divided_differences(-b, lam, 0.0)  # b_ij / (lam_j - lam_i)
    return EigPerturbation(dlambda=np.diag(b).copy(), qt_dq=w)


def second_order_taylor(lam, e, eps: float) -> np.ndarray:
    """Eigenvalues of diag(lam) + eps * E through second order:

        lambda_i + eps E_ii + eps^2 sum_{k != i} E_ik^2 / (lambda_i - lambda_k).
    """
    lam = as_vector(lam)
    e = as_square(e)
    core.require_symmetric(e, "second_order_taylor")
    if e.shape[0] != len(lam):
        raise ContractError("perturbation size mismatch")
    core.require_gaps(lam, float(np.sqrt(np.sum(lam * lam))), "second_order_taylor")
    n = len(lam)
    out = np.empty(n)
    for i in range(n):
        second = 0.0
        for k in range(n):
            if k != i:
                second += e[i, k] ** 2 / (lam[i] - lam[k])
        out[i] = lam[i] + eps * e[i, i] + eps * eps * second
    return out


def second_order_taylor_general(dec: EigenDecomp, e, eps: float) -> np.ndarray:
    """Same expansion around a non-diagonal S: conjugate E into the
    eigenbasis first."""
    b = _conjugated(dec, e)
    b = 0.5 * (b + b.T)  # kill roundoff asymmetry from the conjugation
    return second_order_taylor(dec.lam, b, eps)

"""Finite-difference verification harness.

Forward and central differences under one central step rule, relative-error
scoring, step-size suggestion, log-log error sweeps (``matderiv fdsweep``
writes one as CSV), and a "triple check" that pits an analytic derivative, an
AD derivative and a finite difference against each other along random
directions.  A failed comparison is a *result*, not an exception: the report
says so and callers decide what to do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import forward, reverse
from .core import as_vector, frob
from .errors import ContractError, DomainError, ShapeError

EPS = 2.0**-52


def forward_diff(f, x, dx):
    """f(x + dx) - f(x); works for scalar, vector or matrix arguments."""
    return f(x + dx) - f(x)


def central_diff(f, x, dx):
    """[f(x + dx) - f(x - dx)] / 2."""
    return (f(x + dx) - f(x - dx)) / 2.0


def directional_fd(f, x, d):
    """Central-difference f'(x)[d] by the package's one step rule: h d has
    norm eps^(1/3) (1 + ||x||_F) whatever the length of d, which balances the
    O(h^2) truncation error against the O(eps / h) roundoff.  A zero d is a
    ``DomainError``."""
    norm = frob(d)
    if norm == 0.0:
        raise DomainError("directional_fd along a zero direction")
    h = np.cbrt(EPS) * (1.0 + frob(x)) / norm
    return central_diff(f, x, h * d) / h


def fd_jacobian(f, x) -> np.ndarray:
    """Central-difference Jacobian of f at a 1-D x: ``directional_fd`` along
    each unit vector.  The last axis indexes the coordinates of x, so a
    scalar f gives its gradient and an m-vector f an m-by-n matrix."""
    x = as_vector(x)
    return np.stack([directional_fd(f, x, e) for e in np.eye(len(x))], axis=-1)


def relative_error(approx, exact) -> float:
    """||approx - exact||_F / ||exact||_F; undefined for exact == 0."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if approx.shape != exact.shape:
        raise ContractError(
            f"relative_error: shapes differ ({approx.shape} vs {exact.shape})"
        )
    denom = frob(exact)
    if denom == 0.0:
        raise DomainError("relative_error against an exactly-zero reference")
    return frob(approx - exact) / denom


RULE_TOL = 1e-6
LINEAR_TOL = 1e-12
AD_TOL = 1e-10  # triple_check: AD against the analytic action
FD_TOL = 1e-4  # triple_check: the central difference against the analytic action


def rule_residual(entry, seed: int) -> float:
    """Residual of a ``rules.RuleCheck`` at inputs from ``default_rng(seed)``.
    The entry's action is called once, for the operator L = f'(x), and L is
    applied to three Gaussian d and to one linearity probe.  The residual is
    ``relative_error`` of ``directional_fd`` of the primal against L[d], the
    three d stacked so that no d near the kernel of L decides it, or, where
    larger, RULE_TOL / LINEAR_TOL times the linearity error
    ||L[2u - 3v] - 2 L[u] + 3 L[v]|| / ||stack||.  So it is within RULE_TOL
    exactly when each error is within its own tolerance."""
    rng = np.random.default_rng(seed)
    params, x = entry.sample(rng)
    d = rng.standard_normal((3,) + np.shape(x))
    derivative = entry.action(params, x)
    exact = np.array([derivative(u) for u in d])
    fd_error = relative_error([directional_fd(partial(entry.primal, params), x, u) for u in d],
                              exact)
    probe = derivative(2.0 * d[0] - 3.0 * d[1])
    linear = frob(probe - 2.0 * exact[0] + 3.0 * exact[1]) / frob(exact)
    return max(fd_error, linear * (RULE_TOL / LINEAR_TOL))


def suggest_step(x) -> float:
    """sqrt(machine eps) * (1 + ||x||); the forward-difference sweet spot."""
    return math.sqrt(EPS) * (1.0 + frob(np.asarray(x, dtype=float)))


def gaussian_direction(rng, shape):
    """Unit-Frobenius-norm Gaussian direction.  A shape with no entries
    has no such direction (every draw has norm 0) and is a ShapeError."""
    if np.prod(shape) == 0:
        raise ShapeError(f"no unit direction of shape {shape}: it has no entries")
    g = rng.standard_normal(shape)
    norm = frob(g)
    while norm == 0.0:  # pragma: no cover - measure-zero
        g = rng.standard_normal(shape)
        norm = frob(g)
    return g / norm


@dataclass
class SweepRow:
    scale: float
    perturbation_norm: float
    relative_error: float


def error_sweep(f, df_action, x, direction, scales) -> list[SweepRow]:
    """Forward-difference error of f against the linear prediction
    ``df_action(dx)`` for dx = s * direction, one row per scale s."""
    x = np.asarray(x, dtype=float)
    direction = np.asarray(direction, dtype=float)
    rows = []
    for s in scales:
        dx = s * direction
        approx = forward_diff(f, x, dx)
        rows.append(SweepRow(float(s), frob(dx), relative_error(approx, df_action(dx))))
    return rows


def best_scale(rows) -> float:
    """Scale of the minimum-error row (the bottom of the V-curve)."""
    if not rows:
        raise ContractError("best_scale of an empty sweep")
    return min(rows, key=lambda r: r.relative_error).scale


@dataclass
class TripleCheckRow:
    direction_index: int
    ad_vs_analytic: float
    fd_vs_analytic: float
    ok: bool


@dataclass
class TripleCheckReport:
    rows: list[TripleCheckRow] = field(default_factory=list)
    ad_tol: float = AD_TOL
    fd_tol: float = FD_TOL

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def summary(self) -> str:
        lines = []
        for r in self.rows:
            verdict = "ok" if r.ok else "MISMATCH"
            lines.append(
                f"direction {r.direction_index}: ad={r.ad_vs_analytic:.3e} "
                f"fd={r.fd_vs_analytic:.3e} [{verdict}]"
            )
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def triple_check(program, analytic_action, ad_mode: str, x, n_directions: int = 5,
                 seed: int = 0) -> TripleCheckReport:
    """Compare, along random unit directions d:

    * ``analytic_action(d)`` - the hand-derived directional derivative,
    * an AD directional derivative of ``program`` (forward mode seeds every
      d in one dual pass; reverse mode builds the Jacobian from one recording
      and applies it),
    * ``directional_fd``, a central difference at the step
      eps^(1/3) (1 + ||x||), whose O(h^2) truncation error keeps an exact
      derivative well inside FD_TOL.

    A row is ok when the AD error is within AD_TOL and the difference's
    within FD_TOL.  ``program`` maps a list of scalar-likes to a scalar-like
    or an iterable of them, so one source text serves all three evaluations.
    The point is read by the AD driver.
    """
    if ad_mode not in ("forward", "reverse"):
        raise ContractError(f"unknown ad_mode {ad_mode!r}")
    rng = np.random.default_rng(seed)
    n = np.size(x)
    dirs = forward.stack_rows([gaussian_direction(rng, n) for _ in range(n_directions)], (n,))
    if ad_mode == "forward":
        ads = forward.directional_derivative(program, x, dirs.T).T
    else:
        jac = reverse.jacobian_reverse(program, x)
        ads = [jac @ d for d in dirs]
    x = np.asarray(x, dtype=float)
    report = TripleCheckReport()
    for i, (d, ad) in enumerate(zip(dirs, ads)):
        exact = np.atleast_1d(np.asarray(analytic_action(d), dtype=float))
        fd = directional_fd(partial(forward.evaluate, program), x, d)
        ad_err = relative_error(ad, exact)
        fd_err = relative_error(fd, exact)
        report.rows.append(
            TripleCheckRow(i, ad_err, fd_err, ad_err <= AD_TOL and fd_err <= FD_TOL)
        )
    return report

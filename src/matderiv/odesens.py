"""Parameter gradients of ODE-constrained objectives.

Two independent routes for d/dp of G(p) = int_0^T g(u, p, t) dt subject to
du/dt = f(u, p, t), u(0) = u0(p):

* forward sensitivity — integrate the augmented system (u, S) with
  S = du/dp, dS/dt = (df/du) S + df/dp, then quadrature
  G' = int (S^T dg/du + dg/dp) dt;
* adjoint — integrate v backward from v(T) = 0 with
  dv/dt = (dg/du)^T - (df/du)^T v, then
  grad G = -(du0/dp)^T v(0) + int [(dg/dp)^T - (df/dp)^T v] dt.

Every pass -- the plain trajectory, the augmented forward system
y = [u, vec S] and the backward adjoint sweeps -- runs through one classical
RK4 stepper on a fixed grid.  The backward sweeps read u(t) at interval
midpoints from cubic Hermite interpolation of the stored states and slopes.
Quadratures are composite Simpson (even step count required).

The problem's callables must be pure: the same arguments give the same
value.  The backward sweeps evaluate the coefficients once per distinct
stage position and reuse that value at the stage that repeats it.

A third variant handles sums of point-in-time data misfits: the adjoint
jumps by (dg_k/du)^T at each data time while an accumulator integrates the
-(df/dp)^T v term.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import counting, fdcheck
from .core import as_vector
from .errors import BlowUpError, ContractError, ShapeError


@dataclass
class OdeProblem:
    """du/dt = f(u, p, t) on [0, t_final], u(0) = u0(p), with running cost
    g(u, p, t).  All callables take/return plain floats and ndarrays and must
    be pure (same arguments, same value): the backward sweeps reuse a
    coefficient evaluated at a stage position when a later stage sits there
    again, instead of calling again."""

    f: Callable
    dfdu: Callable
    dfdp: Callable
    u0: Callable
    du0dp: Callable
    g: Callable
    dgdu: Callable
    dgdp: Callable
    t_final: float
    p: np.ndarray

    def __post_init__(self):
        self.p = as_vector(self.p)
        if self.t_final <= 0:
            raise ContractError("t_final must be positive")

    @property
    def n_params(self) -> int:
        return len(self.p)

    def with_p(self, p) -> "OdeProblem":
        return replace(self, p=np.asarray(p, dtype=float))


@dataclass
class Trajectory:
    """States and slopes (f values) on the uniform time grid."""

    times: np.ndarray       # (n_steps + 1,)
    states: np.ndarray      # (n_steps + 1, n)
    slopes: np.ndarray      # (n_steps + 1, n)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def interp_state(self, i: int | np.ndarray, s: float) -> np.ndarray:
        """Cubic Hermite reconstruction of u at times[i] + s * dt, s in
        [0, 1], matching values and slopes at both ends of the interval.
        ``i`` may be an index array, giving one row per interval."""
        dt = self.dt
        h00 = 2 * s**3 - 3 * s**2 + 1
        h10 = s**3 - 2 * s**2 + s
        h01 = -2 * s**3 + 3 * s**2
        h11 = s**3 - s**2
        return (
            h00 * self.states[i]
            + h10 * dt * self.slopes[i]
            + h01 * self.states[i + 1]
            + h11 * dt * self.slopes[i + 1]
        )


def _grid(prob: OdeProblem, n_steps: int):
    """(times, dt) of the uniform n_steps grid on [0, t_final]."""
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ContractError(f"n_steps must be a positive integer, got {n_steps!r}")
    return np.linspace(0.0, prob.t_final, n_steps + 1), prob.t_final / n_steps


def _check_finite(y, step_index: int, what: str) -> None:
    # the ufunc reduction itself: ndarray.all() adds a Python-level wrapper
    # that costs more than the test on these short vectors
    if not np.logical_and.reduce(np.isfinite(y), axis=None):
        raise BlowUpError(f"{what} became non-finite", step_index=step_index)


def _rk4(rhs, y, times, dt: float, what: str, width: int, backward: bool = False,
         kicks=None):
    """Classical RK4 over the grid ``times`` with step dt, from the first
    node to the last, or from the last to the first when ``backward``.

    ``rhs(y, t, k)`` gets the stage's half-step position k: node i is 2i and
    the midpoint of interval i is 2i + 1, for right-hand sides that read a
    stored trajectory there.  ``kicks[i]`` is added to y on arrival at node
    i (the starting node included).  A non-finite y raises BlowUpError with
    the index of the node the step started from.  Returns (ys, k1s), both
    indexed by node: y at every node and the first-stage slope of the step
    leaving each node (the row of the final node is left to the caller).

    ``width`` is the rhs component count of one rhs call.  The stepper counts
    4 * width for every step it began, the one that blows up included, in
    one ``counting`` call when it stops, so the rhs itself counts nothing.
    """
    m = len(times) - 1
    nodes, h = (range(m, -1, -1), -dt) if backward else (range(m + 1), dt)
    half, sixth = 0.5 * h, h / 6.0
    kicks = kicks or {}
    ys = np.empty((m + 1,) + y.shape)
    k1s = np.empty_like(ys)
    if nodes[0] in kicks:
        y = y + kicks[nodes[0]]
    ys[nodes[0]] = y
    steps = 0
    try:
        for steps, (a, b) in enumerate(zip(nodes, nodes[1:]), 1):
            ta = times[a]
            k1 = rhs(y, ta, 2 * a)
            k2 = rhs(y + half * k1, ta + half, a + b)
            k3 = rhs(y + half * k2, ta + half, a + b)
            k4 = rhs(y + h * k3, times[b], 2 * b)
            y = y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
            _check_finite(y, a, what)
            if b in kicks:
                y = y + kicks[b]
            k1s[a] = k1
            ys[b] = y
    finally:
        counting.add_rhs_components(4 * width * steps)
    counting.add_integration(1)
    return ys, k1s


def integrate_rk4(prob: OdeProblem, n_steps: int) -> Trajectory:
    """Classical 4-stage Runge-Kutta on a uniform grid."""
    times, dt = _grid(prob, n_steps)
    p = prob.p
    u = as_vector(prob.u0(p))
    n = len(u)

    def f(u, t, _k):
        return np.asarray(prob.f(u, p, t), dtype=float)

    states, slopes = _rk4(f, u, times, dt, "state", n)
    counting.add_rhs_components(n)
    slopes[n_steps] = f(states[n_steps], times[n_steps], None)
    return Trajectory(times, states, slopes)


def integrate_euler(prob: OdeProblem, n_steps: int) -> Trajectory:
    """Explicit Euler on the same grid (the order-1 yardstick)."""
    times, dt = _grid(prob, n_steps)
    p = prob.p
    u = as_vector(prob.u0(p))
    n = len(u)
    states = np.empty((n_steps + 1, n))
    slopes = np.empty((n_steps + 1, n))
    states[0] = u
    for i in range(n_steps):
        counting.add_rhs_components(n)
        k = np.asarray(prob.f(u, p, times[i]), dtype=float)
        slopes[i] = k
        u = u + dt * k
        _check_finite(u, i, "state")
        states[i + 1] = u
    counting.add_rhs_components(n)
    slopes[n_steps] = np.asarray(prob.f(u, p, times[n_steps]), dtype=float)
    counting.add_integration(1)
    return Trajectory(times, states, slopes)


def forward_sensitivity(prob: OdeProblem, n_steps: int):
    """RK4 on the augmented system y = [u, vec S]; returns (Trajectory,
    S_nodes) with S_nodes of shape (n_steps + 1, n, N).  Differentiating
    *inside* the integrator this way makes the result the exact derivative
    of the discrete trajectory."""
    times, dt = _grid(prob, n_steps)
    p = prob.p
    n_par = len(p)
    u = as_vector(prob.u0(p))
    n = len(u)
    s = np.asarray(prob.du0dp(p), dtype=float)
    if s.shape != (n, n_par):
        raise ShapeError(f"du0dp must be {n}x{n_par}, got {s.shape}")

    def aug(y, t, _k):
        u = y[:n]
        fu = np.asarray(prob.f(u, p, t), dtype=float)
        a = np.asarray(prob.dfdu(u, p, t), dtype=float)
        b = np.asarray(prob.dfdp(u, p, t), dtype=float)
        return np.concatenate((fu, (a @ y[n:].reshape(n, n_par) + b).ravel()))

    width = n * (1 + n_par)
    ys, slopes = _rk4(aug, np.concatenate((u, s.ravel())), times, dt,
                      "state or sensitivity", width)
    counting.add_rhs_components(width)
    slopes[n_steps] = aug(ys[n_steps], times[n_steps], None)
    sens = ys[:, n:].reshape(n_steps + 1, n, n_par)
    return Trajectory(times, ys[:, :n], slopes[:, :n]), sens


def simpson(vals, dt: float):
    """Composite Simpson over equally spaced node values (scalar or
    vector-valued); needs an even, >= 2 number of intervals."""
    vals = np.asarray(vals, dtype=float)
    m = vals.shape[0] - 1
    if m < 2 or m % 2 != 0:
        raise ContractError(f"Simpson needs an even number of steps, got {m}")
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    out = (dt / 3.0) * np.tensordot(w, vals, axes=(0, 0))
    return float(out) if np.ndim(out) == 0 else out


def loss_G(prob: OdeProblem, traj: Trajectory) -> float:
    vals = np.array(
        [prob.g(traj.states[i], prob.p, t) for i, t in enumerate(traj.times)]
    )
    return simpson(vals, traj.dt)


def grad_G_forward(prob: OdeProblem, n_steps: int) -> np.ndarray:
    traj, sens = forward_sensitivity(prob, n_steps)
    p = prob.p
    vals = np.empty((n_steps + 1, len(p)))
    for i, t in enumerate(traj.times):
        u = traj.states[i]
        vals[i] = sens[i].T @ np.asarray(prob.dgdu(u, p, t), dtype=float) + np.asarray(
            prob.dgdp(u, p, t), dtype=float
        )
    return simpson(vals, traj.dt)


def _stage_states(traj: Trajectory) -> np.ndarray:
    """u at the half-step positions of ``_rk4``: row 2i is node i, row
    2i + 1 the Hermite midpoint of interval i."""
    m = traj.n_steps
    u = np.empty((2 * m + 1, traj.states.shape[1]))
    u[0::2] = traj.states
    u[1::2] = traj.interp_state(np.arange(m), 0.5)
    return u


def _stage_coefficients(coeffs, u_at):
    """``at(t, k)`` = ``coeffs(u_at[k], t)``, evaluated once per run of calls
    at the same stage position k.

    A backward ``_rk4`` sweep asks for each position at most twice in a row:
    stages 2 and 3 share the midpoint, and stage 4 of one step is stage 1 of
    the next.  Remembering the last position therefore evaluates the
    coefficients 2m + 1 times over m steps instead of 4m.  The problem
    callables must be pure for the reused value to be the one a fresh call
    would give.
    """
    last_k, last = None, None

    def at(t, k):
        nonlocal last_k, last
        if k != last_k:
            last_k, last = k, coeffs(u_at[k], t)
        return last

    return at


def adjoint_solve(prob: OdeProblem, traj: Trajectory) -> np.ndarray:
    """v on the grid from dv/dt = (dg/du)^T - (df/du)^T v, v(T) = 0,
    integrated backward."""
    p = prob.p
    n = traj.states.shape[1]
    coef = _stage_coefficients(
        lambda u, t: (np.asarray(prob.dgdu(u, p, t), dtype=float),
                      np.asarray(prob.dfdu(u, p, t), dtype=float).T),
        _stage_states(traj))

    def rhs(v, t, k):
        dgdu, dfdu_t = coef(t, k)
        return dgdu - dfdu_t @ v

    return _rk4(rhs, np.zeros(n), traj.times, traj.dt, "adjoint state", n,
                backward=True)[0]


def grad_G_adjoint(prob: OdeProblem, n_steps: int) -> np.ndarray:
    traj = integrate_rk4(prob, n_steps)
    v = adjoint_solve(prob, traj)
    p = prob.p
    vals = np.empty((n_steps + 1, len(p)))
    for i, t in enumerate(traj.times):
        u = traj.states[i]
        vals[i] = np.asarray(prob.dgdp(u, p, t), dtype=float) - np.asarray(
            prob.dfdp(u, p, t), dtype=float
        ).T @ v[i]
    s0 = np.asarray(prob.du0dp(p), dtype=float)
    return -s0.T @ v[0] + simpson(vals, traj.dt)


@dataclass
class DataTerm:
    """One point-in-time misfit g_k(u(t_k), p); paired with its time by
    position in the ``data_times`` list."""

    dgdu: Callable                      # (u, p) -> (n,)
    dgdp: Optional[Callable] = None     # (u, p) -> (N,); default zero
    g: Optional[Callable] = None        # optional value, for loss reporting


def _node_index(t: float, dt: float, n_steps: int) -> int:
    idx = int(round(t / dt))
    if not 0 <= idx <= n_steps or abs(t - idx * dt) > 1e-9 * max(dt, 1.0):
        raise ContractError(f"data time {t} does not sit on the grid")
    return idx


def grad_G_discrete_data(prob: OdeProblem, data_times, g_k_list, n_steps: int) -> np.ndarray:
    """Gradient of sum_k g_k(u(t_k), p): the adjoint jumps by (dg_k/du)^T
    at each data time while w accumulates the - (df/dp)^T v integral; then

        grad = -(du0/dp)^T v(0) + w(0) + sum_k dg_k/dp.
    """
    if len(data_times) != len(g_k_list):
        raise ContractError("data_times and g_k_list lengths differ")
    traj = integrate_rk4(prob, n_steps)
    p = prob.p
    n = traj.states.shape[1]
    n_par = len(p)
    # v gains +(dg_k/du)^T across t_k in forward time; marching backward
    # we arrive with v(t_k+) and leave with v(t_k-), so subtract on arrival.
    kicks: dict[int, np.ndarray] = {}
    direct = np.zeros(n_par)
    for t_k, term in zip(data_times, g_k_list):
        idx = _node_index(float(t_k), traj.dt, n_steps)
        u_k = traj.states[idx]
        kick = kicks.setdefault(idx, np.zeros(n + n_par))
        kick[:n] -= np.asarray(term.dgdu(u_k, p), dtype=float)
        if term.dgdp is not None:
            direct += np.asarray(term.dgdp(u_k, p), dtype=float)
    coef = _stage_coefficients(
        lambda u, t: (-np.asarray(prob.dfdu(u, p, t), dtype=float).T,
                      np.asarray(prob.dfdp(u, p, t), dtype=float).T),
        _stage_states(traj))

    def rhs(y, t, k):
        neg_dfdu_t, dfdp_t = coef(t, k)
        v = y[:n]
        return np.concatenate([neg_dfdu_t @ v, dfdp_t @ v])

    ys, _ = _rk4(rhs, np.zeros(n + n_par), traj.times, traj.dt,
                 "adjoint state", n, backward=True, kicks=kicks)
    s0 = np.asarray(prob.du0dp(p), dtype=float)
    return -s0.T @ ys[0, :n] + ys[0, n:] + direct


def loss_discrete(prob: OdeProblem, data_times, g_k_list, n_steps: int) -> float:
    if len(data_times) != len(g_k_list):
        raise ContractError("data_times and g_k_list lengths differ")
    traj = integrate_rk4(prob, n_steps)
    total = 0.0
    for t_k, term in zip(data_times, g_k_list):
        if term.g is None:
            raise ContractError("DataTerm.g missing; cannot evaluate the loss")
        idx = _node_index(float(t_k), traj.dt, n_steps)
        total += float(term.g(traj.states[idx], prob.p))
    return total


def grad_G_fd(prob: OdeProblem, n_steps: int) -> np.ndarray:
    """``fdcheck.fd_jacobian`` of the Simpson-discretized loss in p: the slow
    reference route (one pair of integrations per parameter, at the shared
    central-difference step)."""
    def loss(p):
        q = prob.with_p(p)
        return loss_G(q, integrate_rk4(q, n_steps))

    return fdcheck.fd_jacobian(loss, prob.p)


def grad_discrete_fd(prob: OdeProblem, data_times, g_k_list, n_steps: int):
    """``fdcheck.fd_jacobian`` of ``loss_discrete`` in p: one pair of
    integrations per parameter."""
    return fdcheck.fd_jacobian(
        lambda p: loss_discrete(prob.with_p(p), data_times, g_k_list, n_steps),
        prob.p,
    )


def reference_instance(p=(1.0, 0.5, -0.2), t_final: float = 1.0) -> OdeProblem:
    """Scalar Riccati-type tracking problem used across tests and the CLI:

        du/dt = p0 + p1 u + p2 u^2,  u(0) = 0,  g = (u - t^3)^2.
    """
    def f(u, p, t):
        return np.array([p[0] + p[1] * u[0] + p[2] * u[0] ** 2])

    def dfdu(u, p, t):
        return np.array([[p[1] + 2.0 * p[2] * u[0]]])

    def dfdp(u, p, t):
        return np.array([[1.0, u[0], u[0] ** 2]])

    def u0(p):
        return np.zeros(1)

    def du0dp(p):
        return np.zeros((1, 3))

    def g(u, p, t):
        return (u[0] - t**3) ** 2

    def dgdu(u, p, t):
        return np.array([2.0 * (u[0] - t**3)])

    def dgdp(u, p, t):
        return np.zeros(3)

    return OdeProblem(
        f=f, dfdu=dfdu, dfdp=dfdp, u0=u0, du0dp=du0dp,
        g=g, dgdu=dgdu, dgdp=dgdp, t_final=t_final,
        p=np.asarray(p, dtype=float),
    )

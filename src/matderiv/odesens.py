"""Parameter gradients of ODE-constrained objectives.

Three routes for d/dp of G(p) = int_0^T g(u, p, t) dt subject to
du/dt = f(u, p, t), u(0) = u0(p):

* forward sensitivity — integrate the augmented system (u, S) with
  S = du/dp, dS/dt = (df/du) S + df/dp, then quadrature
  G' = int (S^T dg/du + dg/dp) dt;
* continuous adjoint — integrate v backward from v(T) = 0 with
  dv/dt = (dg/du)^T - (df/du)^T v, then
  grad G = -(du0/dp)^T v(0) + int [(dg/dp)^T - (df/dp)^T v] dt;
* discrete adjoint — the transpose of the derivative of the discrete map
  itself: the RK4 steps and the Simpson sum that compute the loss.

Forward sensitivity steps the augmented system with the same RK4 stages as
the state, so it is the exact derivative of the discrete loss.  The discrete
adjoint is the transpose of that same linear map, so the two agree to
roundoff at any step count.  The continuous adjoint discretizes another
equation and agrees with them only to O(h^4).

Every pass -- the plain trajectory, the augmented forward system
y = [u, vec S] and the continuous adjoint's backward sweeps -- runs through
one classical RK4 stepper on a fixed grid; the discrete adjoint's backward
sweep transposes the stages that stepper recorded.  The stepper steps the
state, stage slopes and kicks as Python floats, and its right-hand sides
take and return lists of Python floats: each route converts the problem's
callables in one place (``_checked``: float64 and a shape check, then
``tolist()``) and forms the products f'(u) S + df/dp, (dg/du)^T -
(df/du)^T v and (df/dp)^T v on floats (``_vecmat``).  On the few-number
states of these passes that is cheaper than numpy's per-call overhead, and
at one state it is bitwise equal to the same arithmetic on float64 arrays.
The continuous adjoint's sweeps read u(t) at interval midpoints from cubic
Hermite interpolation of the stored states and slopes.  Quadratures are
composite Simpson (even step count required).

The problem's callables must be pure: the same arguments give the same
value.  The continuous adjoint's sweeps evaluate the coefficients once per
distinct stage position and reuse that value at the stage that repeats it.
Every callable's result is checked against its shape, and a mismatch raises
ShapeError naming it instead of being broadcast.

A variant of the continuous adjoint handles sums of point-in-time data
misfits: the adjoint jumps by (dg_k/du)^T at each data time while an
accumulator integrates the -(df/dp)^T v term.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite
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
    again, instead of calling again.

    Shapes, for n states and N parameters: u0 and f return (n,), dfdu
    (n, n), dfdp and du0dp (n, N), g a float, dgdu (n,) and dgdp (N,).  A
    result of another shape -- (n, 1), 0-d or another length -- raises
    ShapeError naming the callable (f as the "state slope") rather than
    being broadcast."""

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


def _shape_error(what: str, shape, got) -> ShapeError:
    return ShapeError(f"{what} must have shape {shape}, got {got}")


def _checked(x, shape, what: str) -> np.ndarray:
    """A problem callable's result ``x`` as float64, which must have
    ``shape``; another shape raises ShapeError naming ``what``."""
    a = np.asarray(x, dtype=float)
    if a.shape != shape:
        raise _shape_error(what, shape, a.shape)
    return a


def _checked_scalar(x, what: str) -> float:
    """``_checked(x, (), what)`` as a Python float; a float (np.float64
    included) needs no check."""
    return float(x if isinstance(x, float) else _checked(x, (), what))


def _blow_up(what: str, step_index: int) -> BlowUpError:
    return BlowUpError(f"{what} became non-finite", step_index=step_index)


def _vecmat(x, rows):
    """x^T R on Python floats, for the list x and the rows of R as lists:
    x[0] R[0] + x[1] R[1] + ..., summed from the left from the first product
    (so a -0.0 product keeps its sign, as in a one-term matmul)."""
    terms = zip(x, rows)
    c, row = next(terms)
    acc = [c * w for w in row]
    for c, row in terms:
        acc = [r + c * w for r, w in zip(acc, row)]
    return acc


def _stage(y, c, k):
    """The stage argument y + c k, one component at a time."""
    return [u + c * w for u, w in zip(y, k)]


def _update(y, sixth, k1, k2, k3, k4):
    """The RK4 update y + (h/6)(k1 + 2 k2 + 2 k3 + k4), with sixth = h/6,
    one component at a time."""
    return [u + sixth * (a + 2 * b + 2 * c + d)
            for u, a, b, c, d in zip(y, k1, k2, k3, k4)]


def _rk4(rhs, y, times, dt: float, what: str, width: int, backward: bool = False,
         kicks=None):
    """Classical RK4 over the grid ``times`` with step dt, from the first
    node to the last, or from the last to the first when ``backward``.

    ``rhs(y, t, k)`` gets the stage argument y as a list of Python floats,
    the time t as a Python float (an entry of ``times.tolist()``) and the
    stage's half-step position k: node i is 2i and the midpoint of interval
    i is 2i + 1, for right-hand sides that read a stored trajectory there.
    It must return a list of len(y) Python floats; another length raises
    ShapeError naming ``what``, as does a kick of another shape than y.
    ``kicks[i]`` (an array) is added to y on arrival at node i (the starting
    node included).  A non-finite y raises BlowUpError with the index of the
    node the step started from.  Returns (ys, k1s), float64 arrays indexed
    by node: y at every node and the first-stage slope of the step leaving
    each node (the row of the final node is left to the caller).

    Every operation is the one numpy would apply to float64 arrays, in the
    same order, so the outputs are bitwise those of an array stepper on the
    same rhs; only a step that overflows reaches inf without numpy's warning
    (it still raises BlowUpError at that step).  On the states of 1 to 4
    numbers that every caller steps this is cheaper than numpy's per-call
    overhead; on much longer states an array stepper would be faster again.

    ``width`` is the rhs component count of one rhs call.  The stepper counts
    4 * width for every step it began (the one that blows up included) and
    the integration if it completed, in one ``counting`` call when it stops.
    """
    m = len(times) - 1
    nodes, h = (range(m, -1, -1), -float(dt)) if backward else (range(m + 1), float(dt))
    half, sixth = 0.5 * h, h / 6.0
    shape = y.shape
    n = len(y)
    kicks = kicks or {}
    for kick in kicks.values():
        if kick.shape != shape:
            raise _shape_error(f"{what} kick", shape, kick.shape)
    kicks = {i: kick.tolist() for i, kick in kicks.items()}
    ys = np.empty((m + 1,) + shape)
    k1s = np.empty_like(ys)
    times = times.tolist()
    label = f"{what} slope"

    def slope(y, t, k):
        k = rhs(y, t, k)
        if len(k) != n:
            raise _shape_error(label, shape, (len(k),))
        return k

    def add_kick(y, i):
        return [u + w for u, w in zip(y, kicks[i])] if i in kicks else y

    y = add_kick(y.tolist(), nodes[0])
    ys[nodes[0]] = y
    steps = integrations = 0
    try:
        for steps, (a, b) in enumerate(zip(nodes, nodes[1:]), 1):
            ta = times[a]
            tm = ta + half
            k1 = slope(y, ta, 2 * a)
            k2 = slope(_stage(y, half, k1), tm, a + b)
            k3 = slope(_stage(y, half, k2), tm, a + b)
            k4 = slope(_stage(y, h, k3), times[b], 2 * b)
            y = _update(y, sixth, k1, k2, k3, k4)
            if not all(map(isfinite, y)):
                raise _blow_up(what, a)
            y = add_kick(y, b)
            k1s[a] = k1
            ys[b] = y
        integrations = 1
    finally:
        counting.add(rhs_components=4 * width * steps, integrations=integrations)
    return ys, k1s


def _state_slope(prob: OdeProblem, n: int):
    """The list-protocol rhs ``f(y, t, k)`` of the plain trajectory: f at the
    state y, checked to shape (n,)."""
    p = prob.p

    def f(y, t, _k=None):
        return _checked(prob.f(np.array(y), p, t), (n,), "state slope").tolist()

    return f


def _initial_state(prob: OdeProblem) -> np.ndarray:
    """u0(p) as a vector; a shape other than (n,) is a ShapeError and a
    non-finite entry a ContractError, each naming u0."""
    u = np.asarray(prob.u0(prob.p), dtype=float)
    if u.ndim != 1:
        raise _shape_error("u0", "(n,)", u.shape)
    if not np.isfinite(u).all():
        raise ContractError("u0 contains non-finite entries")
    return u


def integrate_rk4(prob: OdeProblem, n_steps: int) -> Trajectory:
    """Classical 4-stage Runge-Kutta on a uniform grid."""
    times, dt = _grid(prob, n_steps)
    u = _initial_state(prob)
    n = len(u)
    f = _state_slope(prob, n)
    states, slopes = _rk4(f, u, times, dt, "state", n)
    counting.add(rhs_components=n)
    slopes[n_steps] = f(states[n_steps].tolist(), times[n_steps])
    return Trajectory(times, states, slopes)


def integrate_euler(prob: OdeProblem, n_steps: int) -> Trajectory:
    """Explicit Euler on the same grid (the order-1 yardstick), stepping
    Python floats through the same checked slope as ``integrate_rk4``.  Like
    ``_rk4`` it counts once when it stops: n per slope begun."""
    times, dt = _grid(prob, n_steps)
    u = _initial_state(prob)
    n = len(u)
    f = _state_slope(prob, n)
    ts = times.tolist()
    states = np.empty((n_steps + 1, n))
    slopes = np.empty((n_steps + 1, n))
    y = u.tolist()
    states[0] = y
    evals = integrations = 0
    try:
        for i in range(n_steps):
            evals = i + 1
            k = f(y, ts[i])
            slopes[i] = k
            y = [a + dt * b for a, b in zip(y, k)]
            if not all(map(isfinite, y)):
                raise _blow_up("state", i)
            states[i + 1] = y
        evals += 1
        slopes[n_steps] = f(y, ts[n_steps])
        integrations = 1
    finally:
        counting.add(rhs_components=n * evals, integrations=integrations)
    return Trajectory(times, states, slopes)


def forward_sensitivity(prob: OdeProblem, n_steps: int):
    """RK4 on the augmented system y = [u, vec S]; returns (Trajectory,
    S_nodes) with S_nodes of shape (n_steps + 1, n, N).  Differentiating
    *inside* the integrator this way makes the result the exact derivative
    of the discrete trajectory."""
    times, dt = _grid(prob, n_steps)
    p = prob.p
    n_par = len(p)
    u = _initial_state(prob)
    n = len(u)
    s = _checked(prob.du0dp(p), (n, n_par), "du0dp")
    s_starts = range(n, n + n * n_par, n_par)

    def aug(y, t, _k):
        # y = [u, S row by row]; row i of dS/dt is dfdu[i] S + dfdp[i]
        u = np.array(y[:n])
        fu = _checked(prob.f(u, p, t), (n,), "state slope").tolist()
        a = _checked(prob.dfdu(u, p, t), (n, n), "dfdu").tolist()
        b = _checked(prob.dfdp(u, p, t), (n, n_par), "dfdp").tolist()
        s_rows = [y[i:i + n_par] for i in s_starts]
        for ai, bi in zip(a, b):
            fu += [r + w for r, w in zip(_vecmat(ai, s_rows), bi)]
        return fu

    width = n * (1 + n_par)
    ys, slopes = _rk4(aug, np.concatenate((u, s.ravel())), times, dt,
                      "state or sensitivity", width)
    counting.add(rhs_components=width)
    slopes[n_steps] = aug(ys[n_steps].tolist(), times[n_steps], None)
    sens = ys[:, n:].reshape(n_steps + 1, n, n_par)
    return Trajectory(times, ys[:, :n], slopes[:, :n]), sens


def _simpson_weights(m: int) -> np.ndarray:
    """Composite Simpson's node weights 1, 4, 2, 4, ..., 2, 4, 1 over m
    intervals (to be scaled by dt/3); m must be even and >= 2."""
    if m < 2 or m % 2 != 0:
        raise ContractError(f"Simpson needs an even number of steps, got {m}")
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def simpson(vals, dt: float):
    """Composite Simpson over equally spaced node values (scalar or
    vector-valued); needs an even, >= 2 number of intervals."""
    vals = np.asarray(vals, dtype=float)
    out = (dt / 3.0) * np.tensordot(_simpson_weights(vals.shape[0] - 1), vals, axes=(0, 0))
    return float(out) if np.ndim(out) == 0 else out


def loss_G(prob: OdeProblem, traj: Trajectory) -> float:
    vals = np.array([_checked_scalar(prob.g(traj.states[i], prob.p, t), "g")
                     for i, t in enumerate(traj.times)])
    return simpson(vals, traj.dt)


def grad_G_forward(prob: OdeProblem, n_steps: int) -> np.ndarray:
    traj, sens = forward_sensitivity(prob, n_steps)
    p = prob.p
    n, n_par = traj.states.shape[1], len(p)
    vals = np.empty((n_steps + 1, n_par))
    for i, t in enumerate(traj.times):
        u = traj.states[i]
        vals[i] = sens[i].T @ _checked(prob.dgdu(u, p, t), (n,), "dgdu") + _checked(
            prob.dgdp(u, p, t), (n_par,), "dgdp")
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
        lambda u, t: (_checked(prob.dgdu(u, p, t), (n,), "dgdu (adjoint state slope)").tolist(),
                      _checked(prob.dfdu(u, p, t), (n, n), "dfdu").tolist()),
        _stage_states(traj))

    def rhs(v, t, k):
        dgdu, dfdu = coef(t, k)
        return [g - w for g, w in zip(dgdu, _vecmat(v, dfdu))]    # dgdu - dfdu^T v

    return _rk4(rhs, np.zeros(n), traj.times, traj.dt, "adjoint state", n,
                backward=True)[0]


def grad_G_adjoint(prob: OdeProblem, n_steps: int) -> np.ndarray:
    traj = integrate_rk4(prob, n_steps)
    v = adjoint_solve(prob, traj)
    p = prob.p
    n, n_par = traj.states.shape[1], len(p)
    vals = np.empty((n_steps + 1, n_par))
    for i, t in enumerate(traj.times):
        u = traj.states[i]
        vals[i] = _checked(prob.dgdp(u, p, t), (n_par,), "dgdp") - _checked(
            prob.dfdp(u, p, t), (n, n_par), "dfdp").T @ v[i]
    s0 = _checked(prob.du0dp(p), (n, n_par), "du0dp")
    return -s0.T @ v[0] + simpson(vals, traj.dt)


def _transposed_step(y, h: float, c1, c2, c3, c4):
    """One RK4 step of ``_rk4`` with step h, transposed, applied to the
    adjoint y = [lam, mu] of the node it arrived at.  c_j is the rows of
    [J_j | P_j], df/du and df/dp at stage j; with kappa_j the adjoint of the
    slope k_j,

        kappa4 = (h/6) lam,   kappa3 = (h/3) lam + h J4^T kappa4,
        kappa2 = (h/3) lam + (h/2) J3^T kappa3,
        kappa1 = (h/6) lam + (h/2) J2^T kappa2,

    and the result is y + sum_j [J_j^T kappa_j, P_j^T kappa_j], on Python
    floats (each [J_j^T kappa_j, P_j^T kappa_j] is one ``_vecmat``)."""
    lam = y[:len(c1)]
    sixth, third, half = h / 6.0, h / 3.0, 0.5 * h
    a4 = _vecmat([sixth * x for x in lam], c4)
    a3 = _vecmat([third * x + h * a for x, a in zip(lam, a4)], c3)
    a2 = _vecmat([third * x + half * a for x, a in zip(lam, a3)], c2)
    a1 = _vecmat([sixth * x + half * a for x, a in zip(lam, a2)], c1)
    return [v + a + b + c + d for v, a, b, c, d in zip(y, a1, a2, a3, a4)]


def grad_G_discrete_adjoint(prob: OdeProblem, n_steps: int) -> np.ndarray:
    """The gradient of the discrete loss ``loss_G`` (Simpson over the RK4
    nodes) as the exact transpose of the RK4 map and the quadrature, so it
    equals ``grad_G_forward`` to roundoff at any step count.

    One forward ``_rk4`` pass records every stage argument.  Then, with
    w_i the Simpson weights of ``simpson`` (dt/3 times 1, 4, 2, ..., 4, 1),
    the adjoint y = [lam, mu] starts at w_m [dg/du, dg/dp](u_m) and each
    step back from node i + 1 to node i is ``_transposed_step`` at the
    stages of step i, then adds w_i [dg/du, dg/dp](u_i).  The gradient is

        (du0/dp)^T lam_0 + mu_0,

    where mu_0 holds sum_j P_j^T kappa_j over every step and
    sum_i w_i dg/dp(u_i).  A non-finite adjoint raises BlowUpError with the
    index of the node its step started from.

    Counts, for m steps and n states: 4 n m rhs components and one
    integration for the forward pass, 4 n m for the transposed stages and
    one integration for the backward sweep (8 n m and 2 in all).  The
    problem is called f, dfdu and dfdp 4m times each (the four stages sit
    at four distinct states), dgdu and dgdp m + 1 times, u0 and du0dp once.
    """
    times, dt = _grid(prob, n_steps)
    weights = ((dt / 3.0) * _simpson_weights(n_steps)).tolist()
    p = prob.p
    n_par = len(p)
    u = _initial_state(prob)
    n = len(u)
    s0 = _checked(prob.du0dp(p), (n, n_par), "du0dp").tolist()
    f = _state_slope(prob, n)
    stages = []

    def recorded(y, t, _k):
        stages.append((y, t))
        return f(y, t)

    states, _ = _rk4(recorded, u, times, dt, "state", n)
    ts = times.tolist()

    def coefficients(y, t):
        u = np.array(y)
        return [a + b for a, b in zip(_checked(prob.dfdu(u, p, t), (n, n), "dfdu").tolist(),
                                      _checked(prob.dfdp(u, p, t), (n, n_par), "dfdp").tolist())]

    def node_term(i):
        u, t, w = states[i], ts[i], weights[i]
        dg = (_checked(prob.dgdu(u, p, t), (n,), "dgdu").tolist()
              + _checked(prob.dgdp(u, p, t), (n_par,), "dgdp").tolist())
        return [w * x for x in dg]

    y = node_term(n_steps)
    steps = integrations = 0
    try:
        for steps, i in enumerate(range(n_steps - 1, -1, -1), 1):
            c = [coefficients(*stage) for stage in stages[4 * i:4 * i + 4]]
            y = [v + w for v, w in zip(_transposed_step(y, dt, *c), node_term(i))]
            if not all(map(isfinite, y)):
                raise _blow_up("adjoint state", i + 1)
        integrations = 1
    finally:
        counting.add(rhs_components=4 * n * steps, integrations=integrations)
    return np.array([a + b for a, b in zip(_vecmat(y[:n], s0), y[n:])])


@dataclass
class DataTerm:
    """One point-in-time misfit g_k(u(t_k), p); paired with its time by
    position in the ``data_times`` list."""

    dgdu: Callable                      # (u, p) -> (n,)
    dgdp: Optional[Callable] = None     # (u, p) -> (N,); default zero
    g: Optional[Callable] = None        # (u, p) -> float; optional, for the loss


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
        kick[:n] -= _checked(term.dgdu(u_k, p), (n,), "DataTerm.dgdu")
        if term.dgdp is not None:
            direct += _checked(term.dgdp(u_k, p), (n_par,), "DataTerm.dgdp")
    # the rhs [-(df/du)^T v, (df/dp)^T v] is v^T [-df/du, df/dp]
    coef = _stage_coefficients(
        lambda u, t: np.concatenate((-_checked(prob.dfdu(u, p, t), (n, n), "dfdu"),
                                     _checked(prob.dfdp(u, p, t), (n, n_par), "dfdp")),
                                    axis=1).tolist(),
        _stage_states(traj))

    def rhs(y, t, k):
        return _vecmat(y[:n], coef(t, k))

    ys, _ = _rk4(rhs, np.zeros(n + n_par), traj.times, traj.dt,
                 "adjoint state", n, backward=True, kicks=kicks)
    s0 = _checked(prob.du0dp(p), (n, n_par), "du0dp")
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
        total += _checked_scalar(term.g(traj.states[idx], prob.p), "DataTerm.g")
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

    The callables compute on Python floats (``tolist()``), which gives the
    arrays numpy's float64 scalars would, bit for bit, at less cost.
    """
    def f(u, p, t):
        (x,), q = u.tolist(), p.tolist()
        return np.array([q[0] + q[1] * x + q[2] * x ** 2])

    def dfdu(u, p, t):
        (x,), q = u.tolist(), p.tolist()
        return np.array([[q[1] + 2.0 * q[2] * x]])

    def dfdp(u, p, t):
        (x,) = u.tolist()
        return np.array([[1.0, x, x ** 2]])

    def u0(p):
        return np.zeros(1)

    def du0dp(p):
        return np.zeros((1, 3))

    def g(u, p, t):
        (x,) = u.tolist()
        return (x - t**3) ** 2

    def dgdu(u, p, t):
        (x,) = u.tolist()
        return np.array([2.0 * (x - t**3)])

    def dgdp(u, p, t):
        return np.zeros(3)

    return OdeProblem(
        f=f, dfdu=dfdu, dfdp=dfdp, u0=u0, du0dp=du0dp,
        g=g, dgdu=dgdu, dgdp=dgdp, t_final=t_final,
        p=np.asarray(p, dtype=float),
    )

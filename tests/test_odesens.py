"""Tests for ODE parameter-sensitivity gradients.

The recurring instance is the scalar tracking problem du/dt = p0 + p1 u +
p2 u^2, u(0) = 0, g = (u - t^3)^2 on [0, 1] at p = (1, 0.5, -0.2).  The
forward-sensitivity route differentiates the discrete RK4 map exactly, so
it is compared against finite differences *of that same discrete map* at
tight tolerance; the adjoint route solves a continuous equation backward
and is compared at quadrature accuracy.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from matderiv import counting, fdcheck, odesens
from matderiv.errors import BlowUpError, ContractError, ShapeError
from matderiv.odesens import DataTerm, reference_instance


def _exponential_problem():
    """du/dt = p0 u, u(0) = 1: closed form u(t) = exp(p0 t)."""
    return odesens.OdeProblem(
        f=lambda u, p, t: np.array([p[0] * u[0]]),
        dfdu=lambda u, p, t: np.array([[p[0]]]),
        dfdp=lambda u, p, t: np.array([[u[0]]]),
        u0=lambda p: np.ones(1),
        du0dp=lambda p: np.zeros((1, 1)),
        g=lambda u, p, t: u[0],
        dgdu=lambda u, p, t: np.ones(1),
        dgdp=lambda u, p, t: np.zeros(1),
        t_final=1.0,
        p=np.array([1.0]),
    )


class TestIntegrators:
    def test_rk4_matches_exponential(self):
        traj = odesens.integrate_rk4(_exponential_problem(), 50)
        np.testing.assert_allclose(traj.states[:, 0], np.exp(traj.times),
                                   rtol=1e-8)

    def test_rk4_fourth_order(self):
        """Halving the step divides the endpoint error by ~16."""
        prob = _exponential_problem()
        errs = {}
        for n in (10, 20):
            traj = odesens.integrate_rk4(prob, n)
            errs[n] = abs(traj.states[-1, 0] - math.e)
        assert 12.0 <= errs[10] / errs[20] <= 20.0

    def test_euler_first_order(self):
        prob = _exponential_problem()
        errs = {}
        for n in (200, 400):
            traj = odesens.integrate_euler(prob, n)
            errs[n] = abs(traj.states[-1, 0] - math.e)
        assert 1.8 <= errs[200] / errs[400] <= 2.2

    def test_step_contract(self):
        prob = _exponential_problem()
        with pytest.raises(ContractError):
            odesens.integrate_rk4(prob, 0)
        with pytest.raises(ContractError):
            odesens.integrate_rk4(prob, 2.5)

    def test_blow_up_detected(self):
        """du/dt = u^2 from 1 has a pole at t = 1; a coarse grid overflows
        and the integrator reports the offending step.  numpy may warn of
        the overflow inside f; the stepper's Python floats reach inf without
        a warning."""
        prob = odesens.OdeProblem(
            f=lambda u, p, t: np.array([u[0] ** 2]),
            dfdu=lambda u, p, t: np.array([[2 * u[0]]]),
            dfdp=lambda u, p, t: np.zeros((1, 1)),
            u0=lambda p: np.ones(1),
            du0dp=lambda p: np.zeros((1, 1)),
            g=lambda u, p, t: 0.0,
            dgdu=lambda u, p, t: np.zeros(1),
            dgdp=lambda u, p, t: np.zeros(1),
            t_final=2.0,
            p=np.array([0.0]),
        )
        with np.errstate(over="ignore"), pytest.raises(BlowUpError) as err:
            odesens.integrate_rk4(prob, 16)
        assert err.value.step_index is not None

    def test_rhs_component_accounting(self):
        """RK4 evaluates the n-component rhs 4x per step plus once for the
        final stored slope."""
        prob = _exponential_problem()
        with counting.tally() as c:
            odesens.integrate_rk4(prob, 30)
        assert c.rhs_components == 4 * 30 + 1
        assert c.integrations == 1


class TestExactCounts:
    """The nominal cost model at n = 20 steps, N = 3 parameters."""

    N = 20

    def test_forward_sensitivity(self):
        with counting.tally() as c:
            odesens.forward_sensitivity(reference_instance(), self.N)
        assert (c.rhs_components, c.integrations) == \
            ((4 * self.N + 1) * (1 + 3), 1) == (324, 1)

    def test_discrete_data_adjoint(self):
        g_k = [DataTerm(dgdu=lambda u, p: np.array([2.0 * u[0]]))]
        with counting.tally() as c:
            odesens.grad_G_discrete_data(reference_instance(), [0.5], g_k, self.N)
        assert (c.rhs_components, c.integrations) == \
            ((4 * self.N + 1) + 4 * self.N, 2) == (161, 2)

    def test_fd_routes(self):
        prob = reference_instance()
        g_k = [DataTerm(dgdu=lambda u, p: np.array([2.0 * u[0]]),
                        g=lambda u, p: u[0] ** 2)]
        with counting.tally() as c_int:
            odesens.grad_G_fd(prob, self.N)
        with counting.tally() as c_data:
            odesens.grad_discrete_fd(prob, [0.5], g_k, self.N)
        for c in (c_int, c_data):
            assert (c.rhs_components, c.integrations) == \
                (6 * (4 * self.N + 1), 6) == (486, 6)

    def test_adjoint_solve(self):
        prob = reference_instance()
        with counting.tally() as c:
            odesens.adjoint_solve(prob, odesens.integrate_rk4(prob, self.N))
        assert (c.rhs_components, c.integrations) == \
            ((4 * self.N + 1) + 4 * self.N, 2) == (161, 2)

    def test_grad_G_adjoint(self):
        with counting.tally() as c:
            odesens.grad_G_adjoint(reference_instance(), self.N)
        assert (c.rhs_components, c.integrations) == \
            ((4 * self.N + 1) + 4 * self.N, 2) == (161, 2)

    def test_blow_up_counts_the_stages_it_ran(self):
        """The rhs of ``TestBlowUpStepIndex.test_integrate_rk4``: steps 0-3
        and the failing step 4 each evaluate four stages, and no integration
        completes."""
        prob = TestBlowUpStepIndex._problem(f=lambda u, p, t: np.array(
            [u[0] * (np.nan if t > 0.42 else 1.0)]))
        with counting.tally() as c, pytest.raises(BlowUpError):
            odesens.integrate_rk4(prob, 10)
        assert (c.rhs_components, c.integrations) == (20, 0)


class TestBlowUpStepIndex:
    """An rhs that turns nan from a chosen time on pins the reported step.

    On the 10-step grid of [0, 1], forward step i has stages at 0.1 i,
    0.1 i + 0.05 (twice) and 0.1 (i + 1); backward step i (from node i to
    i - 1) at 0.1 i, 0.1 i - 0.05 (twice) and 0.1 (i - 1)."""

    @staticmethod
    def _problem(**over):
        base = dict(
            f=lambda u, p, t: np.array([p[0] * u[0]]),
            dfdu=lambda u, p, t: np.array([[p[0]]]),
            dfdp=lambda u, p, t: np.array([[u[0]]]),
            u0=lambda p: np.ones(1),
            du0dp=lambda p: np.zeros((1, 1)),
            g=lambda u, p, t: u[0],
            dgdu=lambda u, p, t: np.ones(1),
            dgdp=lambda u, p, t: np.zeros(1),
            t_final=1.0,
            p=np.array([0.5]),
        )
        base.update(over)
        return odesens.OdeProblem(**base)

    def test_integrate_rk4(self):
        """Stage 2 of step 4 sits at t = 0.45, the first stage past 0.42."""
        prob = self._problem(f=lambda u, p, t: np.array(
            [u[0] * (np.nan if t > 0.42 else 1.0)]))
        with pytest.raises(BlowUpError) as err:
            odesens.integrate_rk4(prob, 10)
        assert err.value.step_index == 4

    def test_forward_sensitivity_state(self):
        prob = self._problem(f=lambda u, p, t: np.array(
            [u[0] * (np.nan if t > 0.62 else 1.0)]))
        with pytest.raises(BlowUpError) as err:
            odesens.forward_sensitivity(prob, 10)
        assert err.value.step_index == 6

    def test_forward_sensitivity_columns(self):
        """Only S goes non-finite; the state stays finite."""
        prob = self._problem(dfdp=lambda u, p, t: np.array(
            [[u[0] * (np.nan if t > 0.22 else 1.0)]]))
        with pytest.raises(BlowUpError) as err:
            odesens.forward_sensitivity(prob, 10)
        assert err.value.step_index == 2

    def test_adjoint_solve(self):
        """Backward from t = 1: the step leaving node 6 has a stage at 0.55,
        the first one below 0.58."""
        prob = self._problem(dgdu=lambda u, p, t: np.array(
            [np.nan if t < 0.58 else 1.0]))
        traj = odesens.integrate_rk4(prob, 10)
        with pytest.raises(BlowUpError) as err:
            odesens.adjoint_solve(prob, traj)
        assert err.value.step_index == 6


def _two_state_problem():
    """du/dt = (p0 u1 + sin t, -p1 u0 - p2 u0 u1), u(0) = (1, 0),
    g = u0^2 + t u1: a coupled system, so the adjoint's matrix products are
    not scalar."""
    return odesens.OdeProblem(
        f=lambda u, p, t: np.array([p[0] * u[1] + math.sin(t),
                                    -p[1] * u[0] - p[2] * u[0] * u[1]]),
        dfdu=lambda u, p, t: np.array([[0.0, p[0]],
                                       [-p[1] - p[2] * u[1], -p[2] * u[0]]]),
        dfdp=lambda u, p, t: np.array([[u[1], 0.0, 0.0],
                                       [0.0, -u[0], -u[0] * u[1]]]),
        u0=lambda p: np.array([1.0, 0.0]),
        du0dp=lambda p: np.zeros((2, 3)),
        g=lambda u, p, t: u[0] ** 2 + t * u[1],
        dgdu=lambda u, p, t: np.array([2.0 * u[0], t]),
        dgdp=lambda u, p, t: np.zeros(3),
        t_final=1.0,
        p=np.array([0.8, 1.3, 0.4]),
    )


class TestStageCoefficientReuse:
    """The backward sweeps evaluate each problem coefficient once per
    distinct stage position: 2m + 1 calls over m steps instead of 4m."""

    M = 10

    @staticmethod
    def _counted(prob):
        names = ("dfdu", "dgdu", "dfdp")
        calls = dict.fromkeys(names, 0)

        def wrap(name):
            fn = getattr(prob, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        return replace(prob, **{name: wrap(name) for name in names}), calls

    def test_adjoint_solve_calls(self):
        prob = reference_instance()
        traj = odesens.integrate_rk4(prob, self.M)
        counted, calls = self._counted(prob)
        odesens.adjoint_solve(counted, traj)
        assert calls == {"dfdu": 2 * self.M + 1, "dgdu": 2 * self.M + 1, "dfdp": 0}

    def test_discrete_data_calls(self):
        counted, calls = self._counted(reference_instance())
        odesens.grad_G_discrete_data(
            counted, [0.5], [DataTerm(dgdu=lambda u, p: np.array([2.0 * u[0]]))],
            self.M)
        assert calls == {"dfdu": 2 * self.M + 1, "dgdu": 0, "dfdp": 2 * self.M + 1}

    @staticmethod
    def _adjoint_every_stage(prob, traj):
        """Backward RK4 for v that calls dgdu and dfdu at all four stages."""
        p, times, h, m = prob.p, traj.times, -traj.dt, traj.n_steps
        mid = traj.interp_state(np.arange(m), 0.5)

        def rhs(v, t, u):
            return np.asarray(prob.dgdu(u, p, t), dtype=float) - np.asarray(
                prob.dfdu(u, p, t), dtype=float).T @ v

        v = np.zeros(traj.states.shape[1])
        out = np.empty_like(traj.states)
        out[m] = v
        for a in range(m, 0, -1):
            b, ta = a - 1, times[a]
            k1 = rhs(v, ta, traj.states[a])
            k2 = rhs(v + 0.5 * h * k1, ta + 0.5 * h, mid[b])
            k3 = rhs(v + 0.5 * h * k2, ta + 0.5 * h, mid[b])
            k4 = rhs(v + h * k3, times[b], traj.states[b])
            v = v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            out[b] = v
        return out

    @pytest.mark.parametrize("make", [reference_instance, _two_state_problem])
    @pytest.mark.parametrize("m", [2, 16, 50])
    def test_adjoint_bitwise_equals_every_stage_loop(self, make, m):
        prob = make()
        traj = odesens.integrate_rk4(prob, m)
        got = odesens.adjoint_solve(prob, traj)
        assert got.tobytes() == self._adjoint_every_stage(prob, traj).tobytes()


class TestTrajectory:
    def test_grid_properties(self):
        traj = odesens.integrate_rk4(_exponential_problem(), 8)
        assert traj.n_steps == 8
        assert traj.dt == pytest.approx(1.0 / 8)

    def test_hermite_matches_endpoints(self):
        traj = odesens.integrate_rk4(_exponential_problem(), 10)
        np.testing.assert_allclose(traj.interp_state(3, 0.0), traj.states[3],
                                   rtol=1e-15)
        np.testing.assert_allclose(traj.interp_state(3, 1.0), traj.states[4],
                                   rtol=1e-15)

    def test_hermite_index_array_matches_per_interval_calls(self):
        """The backward sweeps build every midpoint in one call; each row is
        bitwise the one-interval reconstruction."""
        traj = odesens.integrate_rk4(reference_instance(), 12)
        rows = traj.interp_state(np.arange(12), 0.5)
        for i in range(12):
            np.testing.assert_array_equal(rows[i], traj.interp_state(i, 0.5))

    def test_hermite_midpoint_accuracy(self):
        """Cubic Hermite reconstruction is 4th-order accurate between
        nodes, matching the integrator's own order."""
        errs = {}
        for n in (10, 20):
            traj = odesens.integrate_rk4(_exponential_problem(), n)
            mid = traj.interp_state(n // 2, 0.5)
            t_mid = traj.times[n // 2] + 0.5 * traj.dt
            errs[n] = abs(mid[0] - math.exp(t_mid))
        assert errs[20] <= errs[10] / 8.0


class TestSimpson:
    def test_exact_on_cubics(self):
        ts = np.linspace(0.0, 1.0, 3)
        assert odesens.simpson(ts**3, 0.5) == pytest.approx(0.25, rel=1e-14)

    def test_fourth_order_on_smooth_integrands(self):
        errs = {}
        for m in (8, 16):
            ts = np.linspace(0.0, 1.0, m + 1)
            got = odesens.simpson(np.sin(ts), 1.0 / m)
            errs[m] = abs(got - (1.0 - math.cos(1.0)))
        assert 12.0 <= errs[8] / errs[16] <= 20.0

    def test_vector_valued(self):
        ts = np.linspace(0.0, 1.0, 5)
        vals = np.column_stack([ts, ts**2])
        got = odesens.simpson(vals, 0.25)
        np.testing.assert_allclose(got, [0.5, 1.0 / 3.0], rtol=1e-6)

    def test_odd_interval_count_rejected(self):
        with pytest.raises(ContractError):
            odesens.simpson(np.zeros(4), 0.1)
        with pytest.raises(ContractError):
            odesens.simpson(np.zeros(1), 0.1)


class TestForwardSensitivity:
    def test_matches_fd_of_discrete_trajectory(self):
        """The augmented integration is the exact derivative of the discrete
        RK4 map, so it agrees with central differences of that map to FD
        accuracy."""
        prob = reference_instance()
        n_steps = 60
        traj, sens = odesens.forward_sensitivity(prob, n_steps)
        fd = fdcheck.fd_jacobian(
            lambda p: odesens.integrate_rk4(prob.with_p(p), n_steps).states, prob.p)
        np.testing.assert_allclose(sens, fd, rtol=2e-8, atol=1e-9)

    def test_rhs_cost_ratio_is_one_plus_n(self):
        """Augmenting with N sensitivity columns multiplies the nominal rhs
        component count by exactly 1 + N."""
        prob = reference_instance()
        n_steps = 40
        with counting.tally() as plain:
            odesens.integrate_rk4(prob, n_steps)
        with counting.tally() as aug:
            odesens.forward_sensitivity(prob, n_steps)
        assert aug.rhs_components / plain.rhs_components == 1 + 3

    def test_initial_shape_contract(self):
        prob = reference_instance()
        bad = odesens.OdeProblem(
            f=prob.f, dfdu=prob.dfdu, dfdp=prob.dfdp, u0=prob.u0,
            du0dp=lambda p: np.zeros((1, 2)), g=prob.g, dgdu=prob.dgdu,
            dgdp=prob.dgdp, t_final=prob.t_final, p=prob.p,
        )
        with pytest.raises(ShapeError):
            odesens.forward_sensitivity(bad, 10)


class TestGradientRoutes:
    N_STEPS = 400

    def test_forward_is_exact_gradient_of_discrete_loss(self):
        """grad_G_forward differentiates what loss_G actually computes, so
        a central difference of that loss agrees to FD accuracy."""
        prob = reference_instance()
        got = odesens.grad_G_forward(prob, self.N_STEPS)
        fd = odesens.grad_G_fd(prob, self.N_STEPS)
        np.testing.assert_allclose(got, fd, rtol=1e-7)

    def test_three_routes_agree_pairwise(self):
        prob = reference_instance()
        fwd = odesens.grad_G_forward(prob, self.N_STEPS)
        adj = odesens.grad_G_adjoint(prob, self.N_STEPS)
        fd = odesens.grad_G_fd(prob, self.N_STEPS)
        norm = np.linalg.norm(fwd)
        assert np.linalg.norm(fwd - adj) / norm <= 1e-6
        assert np.linalg.norm(fwd - fd) / norm <= 1e-6
        assert np.linalg.norm(adj - fd) / norm <= 1e-6

    def test_adjoint_uses_two_integrations(self):
        """One forward trajectory, one backward sweep -- regardless of how
        many parameters need derivatives."""
        with counting.tally() as c3:
            odesens.grad_G_adjoint(reference_instance(), 50)
        assert c3.integrations == 2
        with counting.tally() as c5:
            odesens.grad_G_adjoint(self._five_param_instance(), 50)
        assert c5.integrations == 2

    @staticmethod
    def _five_param_instance():
        """The reference dynamics padded with two inert parameters."""
        base = reference_instance()
        return odesens.OdeProblem(
            f=lambda u, p, t: base.f(u, p[:3], t),
            dfdu=lambda u, p, t: base.dfdu(u, p[:3], t),
            dfdp=lambda u, p, t: np.array([[1.0, u[0], u[0] ** 2, 0.0, 0.0]]),
            u0=lambda p: np.zeros(1),
            du0dp=lambda p: np.zeros((1, 5)),
            g=base.g,
            dgdu=base.dgdu,
            dgdp=lambda u, p, t: np.zeros(5),
            t_final=1.0,
            p=np.array([1.0, 0.5, -0.2, 7.0, -3.0]),
        )

    def test_inert_parameters_get_zero_gradient(self):
        grad = odesens.grad_G_adjoint(self._five_param_instance(), 100)
        base = odesens.grad_G_adjoint(reference_instance(), 100)
        np.testing.assert_allclose(grad[:3], base, rtol=1e-10)
        np.testing.assert_allclose(grad[3:], np.zeros(2), atol=1e-12)

    def test_adjoint_converges_with_refinement(self):
        """Adjoint-vs-forward disagreement shrinks as the grid refines."""
        prob = reference_instance()
        gaps = {}
        for n in (100, 200):
            fwd = odesens.grad_G_forward(prob, n)
            adj = odesens.grad_G_adjoint(prob, n)
            gaps[n] = np.linalg.norm(fwd - adj) / np.linalg.norm(fwd)
        assert gaps[200] < gaps[100]


class TestDiscreteData:
    def _least_squares_setting(self):
        """Four samples of the reference trajectory, perturbed targets."""
        prob = reference_instance()
        n_steps = 200
        data_times = [0.25, 0.5, 0.75, 1.0]
        targets = [0.3, 0.5, 0.6, 0.9]
        g_k = [
            DataTerm(
                dgdu=lambda u, p, y=y: np.array([2.0 * (u[0] - y)]),
                g=lambda u, p, y=y: (u[0] - y) ** 2,
            )
            for y in targets
        ]
        return prob, data_times, g_k, n_steps

    def test_matches_fd(self):
        prob, times, g_k, n_steps = self._least_squares_setting()
        got = odesens.grad_G_discrete_data(prob, times, g_k, n_steps)
        fd = odesens.grad_discrete_fd(prob, times, g_k, n_steps)
        np.testing.assert_allclose(got, fd, rtol=1e-6)

    def test_single_terminal_misfit(self):
        """A lone data point at t = T exercises the jump-at-the-final-node
        path."""
        prob = reference_instance()
        n_steps = 128
        g_k = [DataTerm(dgdu=lambda u, p: np.array([2.0 * u[0]]),
                        g=lambda u, p: u[0] ** 2)]
        got = odesens.grad_G_discrete_data(prob, [1.0], g_k, n_steps)
        fd = odesens.grad_discrete_fd(prob, [1.0], g_k, n_steps)
        np.testing.assert_allclose(got, fd, rtol=1e-6)

    def test_misfit_at_the_initial_time(self):
        """A data point at t = 0 jumps v(0), which reaches the gradient
        through du0/dp."""
        prob = odesens.OdeProblem(
            f=lambda u, p, t: np.array([p[0] * u[0]]),
            dfdu=lambda u, p, t: np.array([[p[0]]]),
            dfdp=lambda u, p, t: np.array([[u[0], 0.0]]),
            u0=lambda p: np.array([p[1]]),
            du0dp=lambda p: np.array([[0.0, 1.0]]),
            g=lambda u, p, t: 0.0,
            dgdu=lambda u, p, t: np.zeros(1),
            dgdp=lambda u, p, t: np.zeros(2),
            t_final=1.0,
            p=np.array([0.3, 1.2]),
        )
        g_k = [DataTerm(dgdu=lambda u, p, y=y: np.array([2.0 * (u[0] - y)]),
                        g=lambda u, p, y=y: (u[0] - y) ** 2)
               for y in (0.5, 2.0)]
        got = odesens.grad_G_discrete_data(prob, [0.0, 1.0], g_k, 64)
        fd = odesens.grad_discrete_fd(prob, [0.0, 1.0], g_k, 64)
        np.testing.assert_allclose(got, fd, rtol=1e-6)

    def test_explicit_parameter_dependence(self):
        """A misfit with its own dg/dp contributes that term additively."""
        prob = reference_instance()
        n_steps = 100
        g_k = [DataTerm(
            dgdu=lambda u, p: np.array([2.0 * (u[0] - p[1])]),
            dgdp=lambda u, p: np.array([0.0, -2.0 * (u[0] - p[1]), 0.0]),
            g=lambda u, p: (u[0] - p[1]) ** 2,
        )]
        got = odesens.grad_G_discrete_data(prob, [0.5], g_k, n_steps)
        fd = odesens.grad_discrete_fd(prob, [0.5], g_k, n_steps)
        np.testing.assert_allclose(got, fd, rtol=1e-6)

    def test_loss_value(self):
        prob, times, g_k, n_steps = self._least_squares_setting()
        traj = odesens.integrate_rk4(prob, n_steps)
        by_hand = sum(
            (traj.states[odesens._node_index(t, traj.dt, n_steps), 0] - y) ** 2
            for t, y in zip(times, [0.3, 0.5, 0.6, 0.9])
        )
        assert odesens.loss_discrete(prob, times, g_k, n_steps) == \
            pytest.approx(by_hand, rel=1e-12)

    def test_off_grid_time_rejected(self):
        prob = reference_instance()
        g_k = [DataTerm(dgdu=lambda u, p: np.zeros(1))]
        with pytest.raises(ContractError):
            odesens.grad_G_discrete_data(prob, [1.0 / 3.0], g_k, 100)

    def test_length_mismatch_rejected(self):
        prob = reference_instance()
        with pytest.raises(ContractError):
            odesens.grad_G_discrete_data(prob, [0.5], [], 100)

    def test_loss_requires_g(self):
        prob = reference_instance()
        g_k = [DataTerm(dgdu=lambda u, p: np.zeros(1))]
        with pytest.raises(ContractError):
            odesens.loss_discrete(prob, [0.5], g_k, 100)


class TestProblemContainer:
    def test_with_p_is_nondestructive(self):
        prob = reference_instance()
        other = prob.with_p([2.0, 0.0, 0.0])
        np.testing.assert_array_equal(prob.p, [1.0, 0.5, -0.2])
        np.testing.assert_array_equal(other.p, [2.0, 0.0, 0.0])

    def test_time_horizon_contract(self):
        with pytest.raises(ContractError):
            reference_instance(t_final=0.0)


def _linear_problem(n):
    """du/dt = p0 A u + p1 c + p2 sin(t) e0 with u(0) = p1 (1, ..., 1) and
    g = |u - t|^2: an n-state system with a parameter-dependent start."""
    rng = np.random.default_rng(300 + n)
    a = rng.standard_normal((n, n)) / math.sqrt(n) - np.eye(n)
    c = rng.standard_normal(n)
    e0 = np.eye(n)[0]
    return odesens.OdeProblem(
        f=lambda u, p, t: p[0] * (a @ u) + p[1] * c + p[2] * math.sin(t) * e0,
        dfdu=lambda u, p, t: p[0] * a,
        dfdp=lambda u, p, t: np.column_stack((a @ u, c, math.sin(t) * e0)),
        u0=lambda p: np.full(n, p[1]),
        du0dp=lambda p: np.column_stack((np.zeros(n), np.ones(n), np.zeros(n))),
        g=lambda u, p, t: float((u - t) @ (u - t)),
        dgdu=lambda u, p, t: 2.0 * (u - t),
        dgdp=lambda u, p, t: np.zeros(3),
        t_final=1.0,
        p=np.array([0.7, 0.3, -0.4]),
    )


def _route_outputs(prob, m):
    """Every ODE route's outputs at m steps, as bytes."""
    data_times = [1.0, 0.5, 0.5]    # a kick on the backward start node, two on one node
    terms = [DataTerm(dgdu=lambda u, p, w=w: w * u, dgdp=lambda u, p, w=w: w * p,
                      g=lambda u, p, w=w: 0.5 * w * float(u @ u))
             for w in (1.0, 0.5, -0.25)]
    traj = odesens.integrate_rk4(prob, m)
    fwd, sens = odesens.forward_sensitivity(prob, m)
    out = [traj.states, traj.slopes, fwd.states, fwd.slopes, sens,
           odesens.adjoint_solve(prob, traj),
           odesens.grad_G_forward(prob, m), odesens.grad_G_adjoint(prob, m),
           odesens.grad_G_fd(prob, m),
           odesens.grad_G_discrete_data(prob, data_times, terms, m),
           odesens.grad_discrete_fd(prob, data_times, terms, m)]
    return [x.tobytes() for x in out]


def _rk4_arrays(rhs, y, times, dt, backward=False, kicks=None):
    """The classical RK4 recurrence of ``odesens._rk4`` written out on
    float64 arrays, for an rhs that takes and returns arrays; returns
    (ys, k1s) like ``_rk4``, with no counting or checks."""
    m = len(times) - 1
    nodes = range(m, -1, -1) if backward else range(m + 1)
    h = -float(dt) if backward else float(dt)
    kicks = kicks or {}
    ys = np.empty((m + 1,) + y.shape)
    k1s = np.empty_like(ys)
    if nodes[0] in kicks:
        y = y + kicks[nodes[0]]
    ys[nodes[0]] = y
    for a, b in zip(nodes, nodes[1:]):
        tm = times[a] + 0.5 * h
        k1 = rhs(y, times[a], 2 * a)
        k2 = rhs(y + 0.5 * h * k1, tm, a + b)
        k3 = rhs(y + 0.5 * h * k2, tm, a + b)
        k4 = rhs(y + h * k3, times[b], 2 * b)
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if b in kicks:
            y = y + kicks[b]
        k1s[a] = k1
        ys[b] = y
    return ys, k1s


def _rk4_on_arrays(rhs, y, times, dt, what, width, backward=False, kicks=None):
    """``_rk4_arrays`` with ``odesens._rk4``'s signature, for an rhs of
    ``_rk4``'s list protocol: it is wrapped to take and return arrays."""
    def array_rhs(y, t, k):
        return np.array(rhs(y.tolist(), t, k))

    return _rk4_arrays(array_rhs, y, times, dt, backward, kicks)


class TestRK4Bitwise:
    """``_rk4`` steps Python floats; every route's outputs are bitwise
    those of the same recurrence on float64 arrays, forward, augmented and
    backward, kicks included, at state sizes 1 to 8."""

    @staticmethod
    def _both(monkeypatch, prob):
        floats = _route_outputs(prob, 16)
        monkeypatch.setattr(odesens, "_rk4", _rk4_on_arrays)
        return floats, _route_outputs(prob, 16)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_linear_problem(self, monkeypatch, n):
        floats, arrays = self._both(monkeypatch, _linear_problem(n))
        assert floats == arrays

    def test_two_state_problem(self, monkeypatch):
        floats, arrays = self._both(monkeypatch, _two_state_problem())
        assert floats == arrays


class TestSlopeShapeContract:
    """f must return shape (n,).  A slope of another shape raises
    ShapeError on every route, where numpy broadcast it
    or raised its own ValueError before."""

    ROUTES = {
        "integrate_rk4": odesens.integrate_rk4,
        "integrate_euler": odesens.integrate_euler,
        "forward_sensitivity": odesens.forward_sensitivity,
        "grad_G_adjoint": odesens.grad_G_adjoint,
    }
    BAD_F = {
        "length_2": lambda u, p, t: np.array([u[0], u[0]]),
        "1x1": lambda u, p, t: np.array([[p[0] * u[0]]]),
        "0d": lambda u, p, t: np.array(p[0] * u[0]),
    }

    @pytest.mark.parametrize("bad", list(BAD_F))
    @pytest.mark.parametrize("route", list(ROUTES))
    def test_wrong_slope_shape(self, bad, route):
        prob = replace(_exponential_problem(), f=self.BAD_F[bad])
        with pytest.raises(ShapeError, match=r"state slope must have shape \(1,\)"):
            self.ROUTES[route](prob, 8)

    def test_wrong_adjoint_slope_shape(self):
        prob = replace(_exponential_problem(), dgdu=lambda u, p, t: np.ones(2))
        traj = odesens.integrate_rk4(prob, 8)
        with pytest.raises(ShapeError, match="adjoint state slope"):
            odesens.adjoint_solve(prob, traj)

    @pytest.mark.parametrize("kick", [np.ones(3), np.ones((2, 1))], ids=["long", "2d"])
    def test_wrong_kick_shape(self, kick):
        """Checked once before the first step, so zip over floats cannot
        truncate it and nothing is counted."""
        with counting.tally() as c, pytest.raises(ShapeError, match="adjoint state kick"):
            odesens._rk4(lambda y, t, k: -y, np.zeros(2), np.linspace(0.0, 1.0, 5),
                         0.25, "adjoint state", 2, backward=True, kicks={2: kick})
        assert c.rhs_components == 0

    @pytest.mark.parametrize("length", [0, 1, 3])
    def test_rk4_checks_the_slope_length(self, length):
        """``_rk4`` itself rejects a list slope of another length than y, so
        zip over floats cannot truncate the state."""
        with pytest.raises(ShapeError,
                           match=rf"adjoint state slope must have shape \(2,\), got \({length},\)"):
            odesens._rk4(lambda y, t, k: [0.5] * length, np.zeros(2),
                         np.linspace(0.0, 1.0, 5), 0.25, "adjoint state", 2, backward=True)


def _bad(shape):
    return lambda *args: np.ones(shape)


class TestCoefficientShapeContract:
    """Every coefficient and data-term callable is checked against its
    shape: dfdu (n, n), dfdp (n, N), dgdu (n,), dgdp (N,), du0dp (n, N),
    and DataTerm.dgdu (n,) and dgdp (N,).  A mismatch raises ShapeError
    naming the callable instead of being broadcast.  The problem has n = 2
    states and N = 3 parameters."""

    ROUTES = {
        "forward_sensitivity": lambda prob: odesens.forward_sensitivity(prob, 8),
        "grad_G_forward": lambda prob: odesens.grad_G_forward(prob, 8),
        "grad_G_adjoint": lambda prob: odesens.grad_G_adjoint(prob, 8),
        "grad_G_discrete_data": lambda prob: odesens.grad_G_discrete_data(
            prob, [0.5], [DataTerm(dgdu=lambda u, p: 2.0 * u)], 8),
    }
    CASES = [
        ("dfdu", (2,), ["forward_sensitivity", "grad_G_adjoint", "grad_G_discrete_data"]),
        ("dfdu", (2, 1), ["forward_sensitivity", "grad_G_adjoint", "grad_G_discrete_data"]),
        ("dfdp", (3,), ["forward_sensitivity", "grad_G_adjoint", "grad_G_discrete_data"]),
        ("dfdp", (1, 3), ["forward_sensitivity", "grad_G_adjoint", "grad_G_discrete_data"]),
        ("dgdu", (1,), ["grad_G_forward", "grad_G_adjoint"]),
        ("dgdp", (1,), ["grad_G_forward", "grad_G_adjoint"]),
        ("du0dp", (2,), ["forward_sensitivity", "grad_G_adjoint", "grad_G_discrete_data"]),
    ]

    @pytest.mark.parametrize("name, shape, route", [
        pytest.param(name, shape, route, id=f"{name}-{'x'.join(map(str, shape))}-{route}")
        for name, shape, routes in CASES for route in routes])
    def test_problem_callable(self, name, shape, route):
        prob = replace(_two_state_problem(), **{name: _bad(shape)})
        with pytest.raises(ShapeError, match=rf"^{name}\b"):
            self.ROUTES[route](prob)

    def test_data_term_dgdu(self):
        """A length-1 dgdu on two states was added to both adjoint
        components, and a gradient came back."""
        terms = [DataTerm(dgdu=_bad((1,)))]
        with pytest.raises(ShapeError, match=r"DataTerm\.dgdu must have shape \(2,\)"):
            odesens.grad_G_discrete_data(_two_state_problem(), [0.5], terms, 8)

    def test_data_term_dgdp(self):
        terms = [DataTerm(dgdu=lambda u, p: 2.0 * u, dgdp=_bad((2,)))]
        with pytest.raises(ShapeError, match=r"DataTerm\.dgdp must have shape \(3,\)"):
            odesens.grad_G_discrete_data(_two_state_problem(), [0.5], terms, 8)

    def test_forward_dfdp_is_not_broadcast(self):
        """A dfdp of shape (N,) was broadcast against (n, N) in dfdu S + dfdp."""
        prob = replace(_two_state_problem(), dfdp=lambda u, p, t: np.array([u[1], -u[0], 0.0]))
        with pytest.raises(ShapeError, match=r"dfdp must have shape \(2, 3\), got \(3,\)"):
            odesens.forward_sensitivity(prob, 8)


def _numpy_rhs_routes(prob, m, data_times, terms):
    """(S nodes, adjoint v, discrete-data gradient) from the numpy right-hand
    sides the routes used before the list protocol -- the augmented rhs, the
    adjoint rhs and the discrete-data rhs, each on float64 arrays -- stepped
    by ``_rk4_arrays`` and evaluating every stage afresh."""
    times, dt = odesens._grid(prob, m)
    p = prob.p
    n_par = len(p)
    u0 = np.asarray(prob.u0(p), dtype=float)
    n = len(u0)
    s0 = np.asarray(prob.du0dp(p), dtype=float)

    def aug(y, t, _k):
        u = y[:n]
        fu = np.asarray(prob.f(u, p, t), dtype=float)
        a = np.asarray(prob.dfdu(u, p, t), dtype=float)
        b = np.asarray(prob.dfdp(u, p, t), dtype=float)
        return np.concatenate((fu, (a @ y[n:].reshape(n, n_par) + b).ravel()))

    ys, _ = _rk4_arrays(aug, np.concatenate((u0, s0.ravel())), times, dt)
    sens = ys[:, n:].reshape(m + 1, n, n_par)

    traj = odesens.integrate_rk4(prob, m)
    u_at = odesens._stage_states(traj)

    def adjoint(v, t, k):
        u = u_at[k]
        return np.asarray(prob.dgdu(u, p, t), dtype=float) - np.asarray(
            prob.dfdu(u, p, t), dtype=float).T @ v

    v = _rk4_arrays(adjoint, np.zeros(n), traj.times, traj.dt, backward=True)[0]

    kicks, direct = {}, np.zeros(n_par)
    for t_k, term in zip(data_times, terms):
        idx = odesens._node_index(float(t_k), traj.dt, m)
        kick = kicks.setdefault(idx, np.zeros(n + n_par))
        kick[:n] -= np.asarray(term.dgdu(traj.states[idx], p), dtype=float)
        direct += np.asarray(term.dgdp(traj.states[idx], p), dtype=float)

    def discrete(y, t, k):
        u, v = u_at[k], y[:n]
        return np.concatenate([-np.asarray(prob.dfdu(u, p, t), dtype=float).T @ v,
                               np.asarray(prob.dfdp(u, p, t), dtype=float).T @ v])

    ys, _ = _rk4_arrays(discrete, np.zeros(n + n_par), traj.times, traj.dt,
                        backward=True, kicks=kicks)
    return sens, v, -s0.T @ ys[0, :n] + ys[0, n:] + direct


class TestFloatRhsAgainstNumpyRhs:
    """The routes' float right-hand sides against the numpy ones they
    replaced: bitwise equal at one state (every product a single term, in
    the same order), within 1e-15 relative at 2 to 8 states, where a sum of
    products may round in another order than numpy's matmul."""

    M = 16

    @staticmethod
    def _both(prob, m):
        data_times = [1.0, 0.5, 0.5, 0.25]
        terms = [DataTerm(dgdu=lambda u, p, w=w: w * u, dgdp=lambda u, p, w=w: w * p)
                 for w in (1.0, 0.5, -0.25, 2.0)]
        _, sens = odesens.forward_sensitivity(prob, m)
        got = (sens, odesens.adjoint_solve(prob, odesens.integrate_rk4(prob, m)),
               odesens.grad_G_discrete_data(prob, data_times, terms, m))
        return got, _numpy_rhs_routes(prob, m, data_times, terms)

    @pytest.mark.parametrize("p", [(1.0, 0.5, -0.2), (0.7, 0.1, -0.5), (1.4, 0.9, -0.15)])
    @pytest.mark.parametrize("m", [16, 200])
    def test_reference_instance_bitwise(self, p, m):
        got, ref = self._both(reference_instance(p=p), m)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in ref]

    def test_one_state_linear_problem_bitwise(self):
        got, ref = self._both(_linear_problem(1), self.M)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in ref]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_longer_states_to_roundoff(self, n):
        got, ref = self._both(_linear_problem(n), self.M)
        for x, y in zip(got, ref):
            assert np.max(np.abs(x - y)) <= 1e-15 * np.max(np.abs(y))


class TestReferenceInstanceFloats:
    """``reference_instance``'s callables compute on Python floats and return
    the arrays (and the value of g) that the same formulas give on numpy's
    float64 scalars, bit for bit."""

    NUMPY_SCALAR = {
        "f": lambda u, p, t: np.array([p[0] + p[1] * u[0] + p[2] * u[0] ** 2]),
        "dfdu": lambda u, p, t: np.array([[p[1] + 2.0 * p[2] * u[0]]]),
        "dfdp": lambda u, p, t: np.array([[1.0, u[0], u[0] ** 2]]),
        "g": lambda u, p, t: (u[0] - t**3) ** 2,
        "dgdu": lambda u, p, t: np.array([2.0 * (u[0] - t**3)]),
        "dgdp": lambda u, p, t: np.zeros(3),
    }

    @pytest.mark.parametrize("name", list(NUMPY_SCALAR))
    def test_bitwise_on_a_seeded_grid(self, name):
        prob = reference_instance()
        fn, ref = getattr(prob, name), self.NUMPY_SCALAR[name]
        rng = np.random.default_rng(18)
        for _ in range(300):
            u = rng.uniform(-3.0, 3.0, size=1)
            p = rng.standard_normal(3) * 2.0
            t = rng.uniform(0.0, 2.0)
            want = np.asarray(ref(u, p, np.float64(t)), dtype=float)
            for t_as in (t, np.float64(t)):    # _rk4 passes floats, quadratures np.float64
                got = np.asarray(fn(u, p, t_as))
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

"""Tests for the finite-difference checking harness."""

import math

import numpy as np
import pytest

import progen
from matderiv import reverse
from matderiv.errors import ContractError, DomainError, ShapeError
from matderiv.fdcheck import (
    best_scale,
    central_diff,
    directional_fd,
    error_sweep,
    fd_jacobian,
    forward_diff,
    gaussian_direction,
    relative_error,
    suggest_step,
    triple_check,
)


class TestDifferences:
    def test_forward_diff_definition(self):
        f = lambda t: t * t
        assert forward_diff(f, 3.0, 0.5) == pytest.approx(3.5**2 - 9.0)

    def test_central_diff_exact_on_quadratics(self):
        """A quadratic has no third-order term, so the central difference
        equals the exact directional derivative to roundoff at any step."""
        f = lambda t: 3.0 * t * t + 2.0 * t - 1.0
        for dx in (1e-1, 1e-3, 1e-6):
            got = central_diff(f, 2.0, dx)
            assert got == pytest.approx((6.0 * 2.0 + 2.0) * dx, rel=1e-9)

    def test_central_diff_error_is_cubic(self):
        """For a cubic the central-difference error shrinks like dx^3."""
        f = lambda t: t**3
        x = 1.0
        errs = {dx: abs(central_diff(f, x, dx) - 3.0 * x * x * dx)
                for dx in (1e-2, 1e-3)}
        ratio = errs[1e-2] / errs[1e-3]
        assert 500.0 <= ratio <= 2000.0   # ~1000 for a tenfold step change

    def test_central_diff_odd_function_at_zero(self):
        """sin is odd, so at 0 the symmetric difference is sin(dx) itself."""
        dx = 1e-3
        assert central_diff(math.sin, 0.0, dx) == pytest.approx(
            math.sin(dx), rel=1e-15)

    def test_matrix_arguments_pass_through(self):
        a = np.eye(2)
        da = np.array([[0.0, 1.0], [0.0, 0.0]])
        got = central_diff(lambda m: m @ m, a, da)
        np.testing.assert_allclose(got, a @ da + da @ a, atol=1e-12)


class TestSharedStep:
    ROOT3_EPS = np.cbrt(2.0**-52)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
    def test_perturbation_norm_ignores_direction_length(self, scale):
        """Every perturbation has norm eps^(1/3) (1 + ||x||), whether d is
        short or long."""
        x = np.array([3.0, -4.0])
        d = scale * np.array([0.6, 0.8])
        seen = []

        def f(y):
            seen.append(np.linalg.norm(y - x))
            return float(np.sum(y))

        directional_fd(f, x, d)
        assert len(seen) == 2
        for norm in seen:
            assert norm == pytest.approx(self.ROOT3_EPS * 6.0, rel=1e-9)

    def test_value_along_a_long_direction(self):
        """The quotient estimates f'(x)[d] itself, not f'(x)[d / ||d||]."""
        f = lambda y: y @ y
        x = np.array([1.0, 2.0])
        d = np.array([300.0, -400.0])
        assert directional_fd(f, x, d) == pytest.approx(2.0 * x @ d, rel=1e-9)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_error_is_quadratic_in_step(self, x):
        """On t^3 the truncation error of a central difference is exactly
        h^2 (the third derivative 6 times h^2 / 6); at the shared step the
        roundoff adds only a few per cent to it."""
        h = self.ROOT3_EPS * (1.0 + x)
        err = directional_fd(lambda t: t**3, x, 1.0) - 3.0 * x * x
        assert err == pytest.approx(h * h, rel=0.05)

    def test_zero_direction_rejected(self):
        with pytest.raises(DomainError):
            directional_fd(lambda y: y @ y, np.ones(2), np.zeros(2))

    def test_jacobian_of_scalar_is_gradient(self):
        f = lambda y: y[0] ** 2 + 3.0 * y[1] - y[2] * y[0]
        x = np.array([1.0, 2.0, -0.5])
        g = fd_jacobian(f, x)
        assert g.shape == (3,)
        np.testing.assert_allclose(g, [2.0 + 0.5, 3.0, -1.0], rtol=1e-9)

    def test_jacobian_columns_follow_coordinates(self):
        """Column k of the m-by-n Jacobian belongs to coordinate k."""
        a = np.arange(1.0, 13.0).reshape(4, 3)
        x = np.array([0.5, -1.0, 2.0])
        jac = fd_jacobian(lambda y: a @ y, x)
        assert jac.shape == (4, 3)
        np.testing.assert_allclose(jac, a, rtol=1e-9)


class TestRelativeError:
    def test_value(self):
        assert relative_error([1.1, 2.0], [1.0, 2.0]) == pytest.approx(
            0.1 / math.sqrt(5.0), rel=1e-12)

    def test_shape_contract(self):
        with pytest.raises(ContractError):
            relative_error(np.zeros(2), np.zeros(3))

    def test_zero_reference_rejected(self):
        with pytest.raises(DomainError):
            relative_error(np.zeros(2), np.zeros(2))


class TestSuggestStep:
    def test_scales_with_input_norm(self):
        root_eps = math.sqrt(2.0**-52)
        assert suggest_step(np.zeros(3)) == pytest.approx(root_eps, rel=1e-12)
        assert suggest_step(3.0 * np.ones(3)) == pytest.approx(
            root_eps * (1.0 + 3.0 * math.sqrt(3.0)), rel=1e-12)


class TestGaussianDirection:
    def test_unit_norm_and_shape(self):
        rng = np.random.default_rng(0)
        d = gaussian_direction(rng, (3, 4))
        assert d.shape == (3, 4)
        assert np.linalg.norm(d) == pytest.approx(1.0, rel=1e-12)

    def test_deterministic_given_seeded_rng(self):
        d1 = gaussian_direction(np.random.default_rng(5), (4,))
        d2 = gaussian_direction(np.random.default_rng(5), (4,))
        np.testing.assert_array_equal(d1, d2)

    @pytest.mark.parametrize("shape", [0, (0,), (3, 0)])
    def test_shape_without_entries_rejected(self, shape):
        """Every draw of such a shape has norm 0, so the redraw loop never
        ended."""
        with pytest.raises(ShapeError):
            gaussian_direction(np.random.default_rng(0), shape)


class TestErrorSweep:
    def _setting(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        direction = gaussian_direction(rng, (4, 4))
        scales = [10.0**-k for k in range(1, 13)]
        return a, direction, scales

    def test_v_curve_of_correct_derivative(self):
        """Truncation error falls with the step until roundoff takes over:
        the log-log error curve is V-shaped with an interior minimum."""
        a, direction, scales = self._setting()
        rows = error_sweep(lambda m: m @ m,
                           lambda dm: a @ dm + dm @ a,
                           a, direction, scales)
        errs = [r.relative_error for r in rows]
        best = int(np.argmin(errs))
        assert 0 < best < len(rows) - 1
        assert 1e-10 <= rows[best].scale <= 1e-6
        assert errs[0] > errs[best] < errs[-1]

    def test_error_at_sweet_spot(self):
        a, direction, _ = self._setting()
        rows = error_sweep(lambda m: m @ m,
                           lambda dm: a @ dm + dm @ a,
                           a, direction, [1e-8])
        assert rows[0].relative_error <= 1e-6

    def test_wrong_candidate_plateaus(self):
        """2A dA is not the derivative of A^2 unless A and dA commute, so
        its error never improves with the step."""
        a, direction, scales = self._setting()
        rows = error_sweep(lambda m: m @ m,
                           lambda dm: 2.0 * a @ dm,
                           a, direction, scales)
        for r in rows:
            if r.scale <= 1e-4:
                assert r.relative_error >= 0.1

    def test_row_fields(self):
        a, direction, _ = self._setting()
        rows = error_sweep(lambda m: m @ m, lambda dm: a @ dm + dm @ a,
                           a, direction, [1e-3])
        assert rows[0].scale == 1e-3
        assert rows[0].perturbation_norm == pytest.approx(1e-3, rel=1e-12)


class TestBestScale:
    def test_picks_minimum_row(self):
        a = np.eye(2) * 2.0
        rng = np.random.default_rng(3)
        rows = error_sweep(lambda m: m @ m, lambda dm: a @ dm + dm @ a,
                           a, gaussian_direction(rng, (2, 2)),
                           [10.0**-k for k in range(1, 13)])
        best = best_scale(rows)
        errs = {r.scale: r.relative_error for r in rows}
        assert errs[best] == min(errs.values())

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            best_scale([])


class TestTripleCheck:
    @staticmethod
    def _linear_setting():
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3))
        x = rng.standard_normal(3)

        def program(xs):
            return [sum(a[i, j] * xs[j] for j in range(3)) for i in range(3)]

        return a, x, program

    @pytest.mark.parametrize("mode", ["forward", "reverse"])
    def test_correct_derivative_passes(self, mode):
        a, x, program = self._linear_setting()
        report = triple_check(program, lambda d: a @ d, mode, x,
                              n_directions=5, seed=0)
        assert report.passed
        assert len(report.rows) == 5
        assert "PASS" in report.summary()

    @pytest.mark.parametrize("mode", ["forward", "reverse"])
    def test_wrong_derivative_fails(self, mode):
        """A sign-flipped analytic candidate is reported, not raised."""
        a, x, program = self._linear_setting()
        report = triple_check(program, lambda d: -a @ d, mode, x,
                              n_directions=3, seed=0)
        assert not report.passed
        assert "FAIL" in report.summary()
        assert any(not r.ok for r in report.rows)

    def test_modes_see_same_directions(self):
        a, x, program = self._linear_setting()
        fwd = triple_check(program, lambda d: a @ d, "forward", x, seed=9)
        rev = triple_check(program, lambda d: a @ d, "reverse", x, seed=9)
        for rf, rr in zip(fwd.rows, rev.rows):
            assert rf.fd_vs_analytic == pytest.approx(rr.fd_vs_analytic,
                                                      rel=1e-12)

    def test_scalar_valued_program(self):
        x = np.array([0.3, -1.2])
        report = triple_check(lambda xs: xs[0] * xs[1],
                              lambda d: np.array([x[1] * d[0] + x[0] * d[1]]),
                              "forward", x, n_directions=4, seed=1)
        assert report.passed

    @pytest.mark.parametrize("mode", ["forward", "reverse"])
    def test_exact_derivative_of_tiny_quadratic_passes(self, mode):
        """x0^2 at x0 = 1e-5 with the exact candidate: a forward difference
        is off by h/x0 (7.45e-4 relative) and failed it; the central
        difference of a quadratic is exact up to roundoff."""
        report = triple_check(lambda xs: xs[0] * xs[0], lambda d: 2e-5 * d,
                              mode, [1e-5])
        assert report.passed
        assert max(r.fd_vs_analytic for r in report.rows) <= 1e-12

    @pytest.mark.parametrize("mode", ["forward", "reverse"])
    def test_candidate_off_by_one_percent_fails_the_difference(self, mode):
        report = triple_check(lambda xs: xs[0] * xs[0], lambda d: 1.01 * 2e-5 * d,
                              mode, [1e-5])
        assert not report.passed
        assert all(r.fd_vs_analytic > report.fd_tol for r in report.rows)

    @pytest.mark.parametrize("mode", ["forward", "reverse"])
    def test_empty_point_rejected(self, mode):
        """An empty point has no direction to check along; the direction
        draw looped forever on it."""
        with pytest.raises(ShapeError):
            triple_check(lambda xs: [1.0], lambda d: d, mode, [])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ContractError):
            triple_check(lambda xs: xs[0], lambda d: d, "sideways",
                         np.ones(1))


class TestJacobianReverse:
    @pytest.mark.parametrize("m", [1, 5, 40])
    def test_one_recording(self, m):
        """One float evaluation to learn m and one recording, whatever m."""
        calls = []

        def f(xs):
            calls.append(type(xs[0]))
            return [xs[0] * (i + 1) + xs[1] for i in range(m)]

        jac = reverse.jacobian_reverse(f, np.array([0.5, -1.0]))
        np.testing.assert_array_equal(jac, np.column_stack([np.arange(1.0, m + 1), np.ones(m)]))
        assert len(calls) <= 2 and calls.count(reverse.Var) == 1

    def test_one_program_call(self):
        """The output count comes from the recording itself: the program
        runs once, on tape variables."""
        calls = []

        def f(xs):
            calls.append([type(v) for v in xs])
            return [xs[0] * xs[1], xs[0] - 2.0, xs[1] * xs[1]]

        jac = reverse.jacobian_reverse(f, np.array([0.5, -1.0]))
        np.testing.assert_array_equal(jac, [[-1.0, 0.5], [1.0, 0.0], [0.0, -2.0]])
        assert calls == [[reverse.Var, reverse.Var]]

    def test_rows_equal_vector_jacobian_products(self):
        """Row i of the one-recording Jacobian is bitwise vjp(e_i)."""
        for seed in range(30):
            prog = progen.make_vector_program(800 + seed)
            jac = reverse.jacobian_reverse(prog, prog.x0)
            for i, e in enumerate(np.eye(prog.n_outputs)):
                np.testing.assert_array_equal(jac[i], reverse.vjp(prog, prog.x0, e))

"""Tests for Hessian-vector products and second-order checks.

The closed-form workhorse is f(x) = sin(x1) + x1^2 x2^3 with Hessian
[[-sin(x1) + 2 x2^3, 6 x1 x2^2], [6 x1 x2^2, 6 x1^2 x2]].
"""

import math
from functools import partial

import numpy as np
import pytest

import progen
from matderiv import fdcheck, reverse, scalarfn as sf
from matderiv.core import frob
from matderiv.errors import (ContractError, ConvergenceError, DivisionByZeroError, ShapeError,
                             SingularMatrixError)
from matderiv.forward import Dual
from matderiv.second_order import (
    bilinear_identity_check,
    grad_of_grad_function,
    hessian,
    hvp,
    newton_min_step,
    newton_root,
    quadratic_model_check,
)


def _workhorse(xs):
    return sf.sin(xs[0]) + xs[0] * xs[0] * sf.powi(xs[1], 3)


def _workhorse_hessian(x):
    x1, x2 = x
    return np.array([
        [-math.sin(x1) + 2.0 * x2**3, 6.0 * x1 * x2**2],
        [6.0 * x1 * x2**2, 6.0 * x1**2 * x2],
    ])


def _inv_norm(xs):
    return 1.0 / sf.sqrt(sum(v * v for v in xs))


class TestHvp:
    def test_matches_closed_form(self):
        x = np.array([0.8, -1.2])
        h = _workhorse_hessian(x)
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(2)
            np.testing.assert_allclose(hvp(_workhorse, x, v), h @ v,
                                       rtol=1e-12, atol=1e-13)

    def test_linear_in_direction(self):
        x = np.array([0.4, 0.9])
        v1 = np.array([1.0, -2.0])
        v2 = np.array([0.5, 3.0])
        combo = hvp(_workhorse, x, 2.0 * v1 + v2)
        parts = 2.0 * hvp(_workhorse, x, v1) + hvp(_workhorse, x, v2)
        np.testing.assert_allclose(combo, parts, rtol=1e-12, atol=1e-13)

    def test_quadratic_recovers_matrix_action(self):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((4, 4))
        a = 0.5 * (raw + raw.T)

        def quad(xs):
            return sum(a[i, j] * xs[i] * xs[j] for i in range(4)
                       for j in range(4))

        x = rng.standard_normal(4)
        v = rng.standard_normal(4)
        np.testing.assert_allclose(hvp(quad, x, v), 2.0 * a @ v, rtol=1e-12,
                                   atol=1e-13)

    def test_block_columns_equal_single_products(self):
        """hvp on an (n, k) block is bitwise its k single-direction calls,
        which is what hessian = hvp(f, x, I_n) relies on."""
        rng = np.random.default_rng(5)
        for seed in range(30):
            prog = progen.make_scalar_program(5000 + seed, need_hessian=True)
            block = rng.standard_normal((prog.n_inputs, 3))
            hv = hvp(prog, prog.x0, block)
            assert hv.shape == block.shape
            for j in range(3):
                np.testing.assert_array_equal(hv[:, j], hvp(prog, prog.x0, block[:, j]))

    def test_size_contract(self):
        with pytest.raises(ShapeError):
            hvp(_workhorse, np.zeros(2), np.zeros(3))
        with pytest.raises(ShapeError):
            hvp(_workhorse, np.zeros((2, 2)), np.zeros(4))


class TestHessian:
    def test_workhorse_closed_form(self):
        x = np.array([0.8, -1.2])
        np.testing.assert_allclose(hessian(_workhorse, x),
                                   _workhorse_hessian(x),
                                   rtol=1e-10, atol=1e-10)

    def test_inverse_norm_closed_form(self):
        """Hessian of 1/||x||: 3 x x^T / ||x||^5 - I / ||x||^3."""
        x = np.array([1.0, -2.0, 0.5])
        r = np.linalg.norm(x)
        want = 3.0 * np.outer(x, x) / r**5 - np.eye(3) / r**3
        np.testing.assert_allclose(hessian(_inv_norm, x), want, rtol=1e-12,
                                   atol=1e-13)

    def test_generated_programs_symmetric_and_fd_consistent(self):
        """Raw (pre-symmetrization) defect stays at roundoff and the
        assembled Hessian matches a central difference of the reverse-mode
        gradient, over 25 generated programs."""
        for seed in range(25):
            prog = progen.make_scalar_program(3000 + seed, need_hessian=True)
            x = prog.x0
            h, defect = hessian(prog, x, return_defect=True)
            assert defect <= 1e-10, f"seed {seed}: defect {defect}"
            fd = fdcheck.fd_jacobian(partial(reverse.gradient, prog), x)
            scale = max(1.0, np.max(np.abs(h)))
            assert np.max(np.abs(h - fd)) / scale <= 1e-5, f"seed {seed}"

    def test_size_cap(self):
        with pytest.raises(ContractError):
            hessian(lambda xs: sum(xs), np.zeros(51))

    @pytest.mark.parametrize("n", [1, 3, 30])
    def test_one_program_call(self, n):
        """The whole Hessian comes from one forward-over-reverse recording."""
        calls = []

        def f(xs):
            calls.append(len(xs))
            return _inv_norm(xs)

        assert hessian(f, np.linspace(0.5, 2.0, n)).shape == (n, n)
        assert calls == [n]

    def test_columns_equal_hessian_vector_products(self):
        """The block pass gives bitwise the columns hvp(e_j): symmetrizing
        those columns reproduces the Hessian and its defect exactly."""
        for seed in range(20):
            prog = progen.make_scalar_program(4000 + seed, need_hessian=True)
            h, defect = hessian(prog, prog.x0, return_defect=True)
            cols = np.column_stack([hvp(prog, prog.x0, e) for e in np.eye(prog.n_inputs)])
            np.testing.assert_array_equal(h, 0.5 * (cols + cols.T))
            norm = np.linalg.norm(cols)
            assert defect == (0.0 if norm == 0.0 else frob(cols - cols.T) / frob(cols))

    def test_zero_function_defect_defined(self):
        h, defect = hessian(lambda xs: 0.0 * xs[0], np.ones(3),
                            return_defect=True)
        np.testing.assert_array_equal(h, np.zeros((3, 3)))
        assert defect == 0.0


class TestBilinearIdentity:
    def test_quadratic_exact_for_any_step(self):
        """A quadratic has no third-order terms, so the four-corner second
        difference equals dx1^T H dx2 at every h."""
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((3, 3))
        a = 0.5 * (raw + raw.T)

        def quad(xs):
            return sum(a[i, j] * xs[i] * xs[j] for i in range(3)
                       for j in range(3))

        x, d1, d2 = rng.standard_normal((3, 3))
        for h in (1e-1, 1e-2, 1e-4):
            assert bilinear_identity_check(quad, x, d1, d2, h=h) <= 1e-7

    def test_swap_symmetry(self):
        rng = np.random.default_rng(3)
        x, d1, d2 = rng.standard_normal((3, 2))
        r12 = bilinear_identity_check(_workhorse, x, d1, d2)
        r21 = bilinear_identity_check(_workhorse, x, d2, d1)
        assert r12 == pytest.approx(r21, rel=1e-6, abs=1e-12)

    def test_cubic_residual_linear_in_h(self):
        """For a cubic the residual is O(h), so a tenfold step cut shrinks
        it ~10x."""
        cubic = lambda xs: xs[0] ** 3 + xs[1] ** 3
        x = np.array([1.0, 2.0])
        d1 = np.array([1.0, 0.5])
        d2 = np.array([-0.3, 1.0])
        r_coarse = bilinear_identity_check(cubic, x, d1, d2, h=1e-2)
        r_fine = bilinear_identity_check(cubic, x, d1, d2, h=1e-3)
        assert 5.0 <= r_coarse / r_fine <= 20.0

    def test_zero_divisor_is_the_ad_error(self):
        """The AD driver reads f at x before any float evaluation, so a zero
        divisor there is a DivisionByZeroError, as in every AD mode, and
        not float division's ZeroDivisionError."""
        with pytest.raises(DivisionByZeroError):
            bilinear_identity_check(lambda xs: 1.0 / xs[0], [0.0], [1.0], [1.0])
        with pytest.raises(DivisionByZeroError):
            quadratic_model_check(lambda xs: 1.0 / xs[0], [0.0], [[1.0]])


class TestQuadraticModel:
    def test_quadratic_has_no_remainder(self):
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((3, 3))
        a = 0.5 * (raw + raw.T)

        def quad(xs):
            return sum(a[i, j] * xs[i] * xs[j] for i in range(3)
                       for j in range(3))

        rows = quadratic_model_check(quad, rng.standard_normal(3),
                                     [np.array([1.0, 0.0, 0.0])])
        for row in rows:
            assert row.remainder_over_s2 <= 1e-9

    def test_smooth_function_third_order_remainder(self):
        """remainder/s^2 falls linearly with s for a generic smooth f."""
        x = np.array([0.7, -0.3])
        d = np.array([0.6, 0.8])
        rows = quadratic_model_check(_workhorse, x, [d],
                                     scales=(1e-1, 1e-2, 1e-3))
        rems = {r.scale: r.remainder_over_s2 for r in rows}
        assert rems[1e-2] < rems[1e-1]
        assert 3.0 <= rems[1e-1] / rems[1e-2] <= 30.0

    def test_multiple_directions_indexed(self):
        rows = quadratic_model_check(_workhorse, np.array([0.5, 0.5]),
                                     [np.eye(2)[0], np.eye(2)[1]])
        assert {r.direction_index for r in rows} == {0, 1}
        assert len(rows) == 2 * 3


class TestNewtonStep:
    def test_bowl_reaches_origin_in_one_step(self):
        x = np.array([3.0, -4.0])
        result = newton_min_step(lambda xs: sum(v * v for v in xs), x)
        np.testing.assert_allclose(x + result.step, np.zeros(2), atol=1e-12)
        assert result.classification == "minimum"

    def test_maximum_classification(self):
        result = newton_min_step(lambda xs: -xs[0] * xs[0] - 2.0 * xs[1] * xs[1],
                                 np.array([0.5, 0.5]))
        assert result.classification == "maximum"

    def test_saddle_classification(self):
        result = newton_min_step(lambda xs: xs[0] * xs[0] - xs[1] * xs[1],
                                 np.array([1.0, 1.0]))
        assert result.classification == "saddle"

    def test_indeterminate_near_singular_curvature(self):
        result = newton_min_step(
            lambda xs: xs[0] * xs[0] + 1e-10 * xs[1] * xs[1],
            np.array([1.0, 1.0]))
        assert result.classification == "indeterminate"

    def test_matches_det_trace_rule_on_two_by_two(self):
        """For 2x2 Hessians: det > 0 & tr > 0 means minimum, det > 0 &
        tr < 0 maximum, det < 0 saddle."""
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(20):
            raw = rng.standard_normal((2, 2))
            a = 0.5 * (raw + raw.T)

            def quad(xs, a=a):
                return sum(a[i, j] * xs[i] * xs[j] for i in range(2)
                           for j in range(2))

            h = 2.0 * a
            det, tr = np.linalg.det(h), np.trace(h)
            if abs(det) < 1e-3:
                continue
            result = newton_min_step(quad, rng.standard_normal(2))
            if det < 0:
                want = "saddle"
            elif tr > 0:
                want = "minimum"
            else:
                want = "maximum"
            assert result.classification == want
            seen.add(want)
        assert "saddle" in seen   # random symmetric 2x2s hit saddles often

    def test_quartic_converges_quadratically(self):
        """Newton iteration on (1-x0)^2 + 5 (x1 - x0^2)^2 near (1, 1)."""
        def f(xs):
            return (1.0 - xs[0]) ** 2 + 5.0 * sf.powi(xs[1] - xs[0] * xs[0], 2)

        x = np.array([1.2, 1.5])
        errs = []
        for _ in range(7):
            errs.append(np.linalg.norm(x - np.array([1.0, 1.0])))
            x = x + newton_min_step(f, x).step
        assert np.linalg.norm(x - np.array([1.0, 1.0])) <= 1e-10
        mid = [e for e in errs if 1e-10 < e < 0.5]
        for e_prev, e_next in zip(mid, mid[1:]):
            assert e_next <= 20.0 * e_prev**2

    def test_singular_hessian_raises(self):
        with pytest.raises(SingularMatrixError):
            newton_min_step(lambda xs: xs[0] * xs[1] * 0.0 + xs[0],
                            np.array([1.0, 1.0]))


class TestNewtonRoot:
    def test_scalar_square_root(self):
        root = newton_root(lambda xs: [xs[0] * xs[0] - 4.0], [3.0])
        np.testing.assert_allclose(root, [2.0], rtol=1e-12)

    def test_coupled_system(self):
        def f(xs):
            x, y = xs
            return [x * x + y * y - 4.0, x - y]

        root = newton_root(f, [1.0, 0.5])
        np.testing.assert_allclose(root, [np.sqrt(2.0), np.sqrt(2.0)],
                                   rtol=1e-12)

    def test_history_records_iterates(self):
        hist = []
        newton_root(lambda xs: [xs[0] * xs[0] - 4.0], [3.0], history=hist)
        assert len(hist) >= 2
        np.testing.assert_allclose(hist[0], [3.0])

    def test_quadratic_convergence(self):
        """Error roughly squares from one iterate to the next near the root."""
        hist = []
        newton_root(lambda xs: [xs[0] * xs[0] - 2.0], [1.5], history=hist)
        errs = [abs(h[0] - np.sqrt(2.0)) for h in hist]
        mid = [e for e in errs if 1e-12 < e < 1e-2]
        for e_prev, e_next in zip(mid, mid[1:]):
            assert e_next <= 10.0 * e_prev**2

    def test_max_iter_exhaustion(self):
        """exp has no root; each Newton step only walks x down by 1."""
        with pytest.raises(ConvergenceError) as err:
            newton_root(lambda xs: [sf.exp(xs[0])], [1.0], max_iter=8)
        assert err.value.last is not None

    def test_singular_jacobian(self):
        with pytest.raises(SingularMatrixError):
            newton_root(lambda xs: [xs[0] * xs[0] - 4.0], [0.0])

    def test_non_square_system_rejected(self):
        with pytest.raises(ShapeError):
            newton_root(lambda xs: [xs[0], xs[0]], [1.0])

    def test_residuals_run_on_python_floats(self):
        seen = set()
        newton_root(lambda xs: seen.update(map(type, xs)) or [xs[0] * xs[0] - 4.0], [3.0])
        assert seen - {Dual} == {float}  # Duals carry the Jacobian

    def test_residual_division_by_zero_raises(self):
        """As in float evaluation: ZeroDivisionError, not numpy's RuntimeWarning."""
        with pytest.raises(ZeroDivisionError):
            newton_root(lambda xs: [1.0 / xs[0] - 2.0], [0.0])


class TestGradOfGradFunction:
    def test_matches_fd_of_composition(self):
        """h(x) = g(grad f(x)) with f = 1/||x||, g = (sum z)^3 has the
        closed composite form -(sum x)^3 / ||x||^9; central differences of
        that form are the oracle."""
        def g(zs):
            return sf.powi(sum(zs), 3)

        x = np.array([0.9, -0.4, 1.3])
        got = grad_of_grad_function(_inv_norm, g, x)

        def composite(v):
            return -float(np.sum(v)) ** 3 / np.linalg.norm(v) ** 9

        fd = fdcheck.fd_jacobian(composite, x)
        assert np.linalg.norm(got - fd) / np.linalg.norm(fd) <= 1e-6

    def test_quadratic_composition_closed_form(self):
        """f = x.x/2 has gradient x, so h(x) = g(x) and the gradients
        coincide."""
        def g(zs):
            return sum(v * v * v for v in zs)

        x = np.array([0.3, -1.1])
        got = grad_of_grad_function(lambda xs: 0.5 * sum(v * v for v in xs),
                                    g, x)
        np.testing.assert_allclose(got, 3.0 * x**2, rtol=1e-12)

"""Tests for the analytic matrix-derivative rule catalog.

Every rule is checked against an independent finite-difference oracle
written inline with plain numpy; key rules also get a closed-form or AD
cross-check so no two agreeing routes share code.
"""

import numpy as np
import pytest

from matderiv import core, counting, fdcheck, forward, rules
from matderiv.errors import (
    ContractError,
    DomainError,
    ShapeError,
    SingularMatrixError,
)


def _fd_dir(f, a, da, h=1e-6):
    """Central difference of a matrix/vector function along da."""
    return (f(a + h * da) - f(a - h * da)) / (2.0 * h)


def _well_conditioned(rng, n):
    return rng.standard_normal((n, n)) + n * np.eye(n)


class TestDInverse:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(0)
        a = _well_conditioned(rng, 4)
        da = rng.standard_normal((4, 4))
        inv = np.linalg.inv(a)
        np.testing.assert_allclose(rules.d_inverse(a, da), -inv @ da @ inv,
                                   rtol=1e-10, atol=1e-12)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        a = _well_conditioned(rng, 5)
        da = rng.standard_normal((5, 5))
        fd = _fd_dir(np.linalg.inv, a, da)
        got = rules.d_inverse(a, da)
        assert fdcheck.relative_error(got, fd) <= 1e-5

    def test_linear_in_perturbation(self):
        rng = np.random.default_rng(2)
        a = _well_conditioned(rng, 3)
        da, db = rng.standard_normal((2, 3, 3))
        combo = rules.d_inverse(a, 2.0 * da + 3.0 * db)
        parts = 2.0 * rules.d_inverse(a, da) + 3.0 * rules.d_inverse(a, db)
        np.testing.assert_allclose(combo, parts, rtol=1e-9, atol=1e-11)

    def test_shape_contract(self):
        with pytest.raises(ShapeError):
            rules.d_inverse(np.eye(3), np.eye(2))

    def test_singular_input_raises(self):
        with pytest.raises(SingularMatrixError):
            rules.d_inverse(np.zeros((2, 2)), np.eye(2))


class TestGradDet:
    def test_two_by_two_cofactor(self):
        """For [[a,b],[c,d]] the gradient of det is [[d,-c],[-b,a]]."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c, d = rng.standard_normal(4)
            got = rules.grad_det(np.array([[a, b], [c, d]]))
            np.testing.assert_allclose(got, np.array([[d, -c], [-b, a]]),
                                       rtol=1e-12, atol=1e-12)

    def test_directional_match_vs_fd(self):
        """d(det A)[dA] = <grad, dA>_F against a central difference."""
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4))
        da = rng.standard_normal((4, 4))
        pred = float(np.sum(rules.grad_det(a) * da))
        fd = _fd_dir(np.linalg.det, a, da)
        assert pred == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_singular_fallback_matches_minors(self):
        """On a singular 3x3 the gradient is still the cofactor matrix."""
        u = np.array([1.0, 2.0, -1.0])
        v = np.array([0.5, 1.0, 2.0])
        w = np.array([2.0, 4.0, -2.0])    # parallel to u: rank 2
        a = np.column_stack([u, v, w])
        got = rules.grad_det(a)
        cof = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
                cof[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
        np.testing.assert_allclose(got, cof, rtol=1e-10, atol=1e-12)

    def test_large_singular_rejected(self):
        a = np.zeros((5, 5))
        with pytest.raises(SingularMatrixError):
            rules.grad_det(a)


class TestDLogDet:
    def test_matches_fd(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((4, 4))
        a = raw @ raw.T + 4 * np.eye(4)   # symmetric positive definite
        da = rng.standard_normal((4, 4))
        fd = _fd_dir(lambda m: np.log(np.linalg.det(m)), a, da)
        assert rules.d_logdet(a, da) == pytest.approx(fd, rel=1e-6)

    def test_equals_trace_identity(self):
        rng = np.random.default_rng(6)
        raw = rng.standard_normal((3, 3))
        a = raw @ raw.T + 3 * np.eye(3)
        da = rng.standard_normal((3, 3))
        want = float(np.trace(np.linalg.inv(a) @ da))
        assert rules.d_logdet(a, da) == pytest.approx(want, rel=1e-10)

    def test_domain_gate(self):
        with pytest.raises(DomainError):
            rules.d_logdet(-np.eye(3), np.eye(3))


class TestDCharpoly:
    def test_matches_fd(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4))
        x = 9.0   # safely outside the spectrum of a standard normal 4x4
        fd = (np.linalg.det((x + 1e-6) * np.eye(4) - a)
              - np.linalg.det((x - 1e-6) * np.eye(4) - a)) / 2e-6
        assert rules.d_charpoly(a, x) == pytest.approx(fd, rel=1e-6)

    def test_monic_leading_behavior(self):
        """p(x) = det(xI - A) is monic of degree n, so p'(x) ~ n x^(n-1)
        far from the spectrum."""
        a = np.diag([1.0, 2.0, 3.0])
        x = 1e3
        assert rules.d_charpoly(a, x) == pytest.approx(3 * x**2, rel=1e-2)

    def test_eigenvalue_proximity_rejected(self):
        s = np.diag([1.0, 2.0, 3.0])
        with pytest.raises(SingularMatrixError):
            rules.d_charpoly(s, 2.0)


class TestSecondDet:
    def test_matches_mixed_second_difference(self):
        rng = np.random.default_rng(8)
        a = _well_conditioned(rng, 3)
        da, db = rng.standard_normal((2, 3, 3))
        h = 1e-3
        f = np.linalg.det
        fd = (f(a + h * da + h * db) - f(a + h * da - h * db)
              - f(a - h * da + h * db) + f(a - h * da - h * db)) / (4 * h * h)
        got = rules.second_det(a, da, db)
        assert got == pytest.approx(fd, rel=1e-3, abs=1e-6)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(9)
        a = _well_conditioned(rng, 4)
        da, db = rng.standard_normal((2, 4, 4))
        assert rules.second_det(a, da, db) == pytest.approx(
            rules.second_det(a, db, da), rel=1e-12)

    def test_bilinear(self):
        rng = np.random.default_rng(10)
        a = _well_conditioned(rng, 3)
        da, db, dc = rng.standard_normal((3, 3, 3))
        combo = rules.second_det(a, 2.0 * da + db, dc)
        parts = 2.0 * rules.second_det(a, da, dc) + rules.second_det(a, db, dc)
        assert combo == pytest.approx(parts, rel=1e-10, abs=1e-12)


def _det_beyond_float_range():
    """n = 200 with log|det| = 712.1 (float max is e^709.8) but every
    cofactor at most e^708.7, and directions for second_det."""
    rng = np.random.default_rng(13)
    a = rng.standard_normal((200, 200)) + 35.2 * np.eye(200)
    da, db = rng.standard_normal((2, 200, 200))
    return a, da, 0.5 * db


def _log_space(sign, logabs, x):
    """sign * det * x entrywise, through logs (no intermediate overflow)."""
    return sign * np.sign(x) * np.exp(logabs + np.log(np.abs(x)))


class TestDetFromOneElimination:
    """grad_det, d_charpoly and second_det read det(A) from the elimination
    of their own solve, scaled in log space where the pivot product leaves
    the normal float range (warnings are errors in this suite)."""

    def test_grad_det_finite_where_det_overflows(self):
        a, _, _ = _det_beyond_float_range()
        sign, logabs = np.linalg.slogdet(a)
        assert logabs > np.log(np.finfo(float).max)
        ref = _log_space(sign, logabs, np.linalg.solve(a, np.eye(200)).T)
        got = rules.grad_det(a)
        assert np.isfinite(got).all()
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_second_det_finite_where_det_overflows(self):
        a, da, db = _det_beyond_float_range()
        sign, logabs = np.linalg.slogdet(a)
        x1, x2 = np.linalg.solve(a, da), np.linalg.solve(a, db)
        bracket = np.trace(x2) * np.trace(x1) - np.trace(x2 @ x1)
        ref = float(_log_space(sign, logabs, bracket))
        got = rules.second_det(a, da, db)
        assert np.isfinite(ref) and np.isfinite(got)
        assert got == pytest.approx(ref, rel=1e-10)

    def test_grad_det_where_det_underflows(self):
        """det(1e-110 I) = 1e-330 underflows to 0; the cofactors 1e-220
        do not."""
        got = rules.grad_det(1e-110 * np.eye(3))
        np.testing.assert_allclose(got, 1e-220 * np.eye(3), rtol=1e-12, atol=0.0)

    def test_d_logdet_accepts_a_positive_det_that_underflows(self):
        got = rules.d_logdet(1e-110 * np.eye(3), np.diag([1.0, 2.0, 3.0]))
        assert got == pytest.approx(6e110, rel=1e-14)

    @pytest.mark.parametrize("rule", ["grad_det", "d_charpoly", "second_det"])
    def test_one_elimination_per_call(self, rule, monkeypatch):
        calls = []
        eliminate = core._eliminate
        monkeypatch.setattr(core, "_eliminate",
                            lambda *args: calls.append(1) or eliminate(*args))
        rng = np.random.default_rng(14)
        a, da, db = _well_conditioned(rng, 4), *rng.standard_normal((2, 4, 4))
        {"grad_det": lambda: rules.grad_det(a),
         "d_charpoly": lambda: rules.d_charpoly(a + a.T, 30.0),
         "second_det": lambda: rules.second_det(a, da, db)}[rule]()
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_counts(self, n):
        """One solve each; second_det solves [dA | dA'] as one block."""
        rng = np.random.default_rng(15 + n)
        a, da, db = _well_conditioned(rng, n), *rng.standard_normal((2, n, n))
        spd = a @ a.T
        lu = core._lu_factor_flops(n)
        for call, flops in [(lambda: rules.grad_det(a), lu + 2 * n**3),
                            (lambda: rules.d_logdet(spd, da), lu + 2 * n**3),
                            (lambda: rules.d_charpoly(a, 3.0 * n), lu + 2 * n**3),
                            (lambda: rules.d_charpoly(spd, -1.0), lu + 2 * n**3),
                            (lambda: rules.second_det(a, da, db), lu + 4 * n**3)]:
            with counting.tally() as c:
                call()
            assert (c.flops, c.solves) == (flops, 1)


class TestGradQuadform:
    def test_matches_fd(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 5))
        x = rng.standard_normal(5)
        dx = rng.standard_normal(5)
        pred = float(rules.grad_quadform(a, x) @ dx)
        fd = _fd_dir(lambda v: float(v @ a @ v), x, dx)
        assert pred == pytest.approx(fd, rel=1e-7)

    def test_symmetric_case_is_twice_ax(self):
        rng = np.random.default_rng(12)
        raw = rng.standard_normal((4, 4))
        a = 0.5 * (raw + raw.T)
        x = rng.standard_normal(4)
        np.testing.assert_allclose(rules.grad_quadform(a, x), 2.0 * a @ x,
                                   rtol=1e-13)

    def test_size_contract(self):
        with pytest.raises(ShapeError):
            rules.grad_quadform(np.eye(3), np.zeros(2))


class TestGradFrobenius:
    def test_unit_norm_and_direction(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((3, 4))
        g = rules.grad_frobenius(a)
        assert np.linalg.norm(g) == pytest.approx(1.0, rel=1e-14)
        np.testing.assert_allclose(g, a / np.linalg.norm(a), rtol=1e-14)

    def test_matches_fd(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((3, 3))
        da = rng.standard_normal((3, 3))
        pred = float(np.sum(rules.grad_frobenius(a) * da))
        fd = _fd_dir(np.linalg.norm, a, da)
        assert pred == pytest.approx(fd, rel=1e-7)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            rules.grad_frobenius(np.zeros((2, 2)))


class TestGradBilinear:
    def test_outer_product_and_fd(self):
        rng = np.random.default_rng(15)
        x, y = rng.standard_normal((2, 4))
        a = rng.standard_normal((4, 4))
        da = rng.standard_normal((4, 4))
        g = rules.grad_bilinear_xay(x, y)
        np.testing.assert_allclose(g, np.outer(x, y), rtol=1e-15)
        pred = float(np.sum(g * da))
        fd = _fd_dir(lambda m: float(x @ m @ y), a, da)
        assert pred == pytest.approx(fd, rel=1e-8)


class TestDMatpow:
    def test_k_equals_one_is_identity_action(self):
        rng = np.random.default_rng(16)
        a, da = rng.standard_normal((2, 3, 3))
        np.testing.assert_array_equal(rules.d_matpow(a, da, 1), da)

    def test_k_equals_two_product_rule(self):
        rng = np.random.default_rng(17)
        a, da = rng.standard_normal((2, 4, 4))
        np.testing.assert_allclose(rules.d_matpow(a, da, 2), a @ da + da @ a,
                                   rtol=1e-13, atol=1e-13)

    def test_matches_fd_k_four(self):
        rng = np.random.default_rng(18)
        a, da = rng.standard_normal((2, 3, 3))
        fd = _fd_dir(lambda m: np.linalg.matrix_power(m, 4), a, da)
        assert fdcheck.relative_error(rules.d_matpow(a, da, 4), fd) <= 1e-5

    def test_exponent_contract(self):
        with pytest.raises(ContractError):
            rules.d_matpow(np.eye(2), np.eye(2), 0)
        with pytest.raises(ContractError):
            rules.d_matpow(np.eye(2), np.eye(2), 1.5)


class TestShermanMorrison:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(19)
        a = _well_conditioned(rng, 6)
        y, x, b = rng.standard_normal((3, 6))
        got = rules.sherman_morrison_solve(np.linalg.inv(a), y, x, b)
        want = np.linalg.solve(a + np.outer(y, x), b)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_singular_update_rejected(self):
        """y = -x/(x.x) makes 1 + x^T A^-1 y vanish for A = I."""
        x = np.array([1.0, 2.0, 2.0])
        y = -x / float(x @ x)
        with pytest.raises(SingularMatrixError):
            rules.sherman_morrison_solve(np.eye(3), y, x, np.ones(3))

    def test_quadratic_cost_scaling(self):
        """Doubling n multiplies the nominal op count by ~4, not ~8."""
        rng = np.random.default_rng(20)
        counts = {}
        for n in (64, 128):
            a_inv = np.eye(n)
            y, x, b = rng.standard_normal((3, n))
            with counting.tally() as c:
                rules.sherman_morrison_solve(a_inv, y, x, b)
            counts[n] = c.flops
        assert counts[128] / counts[64] <= 4.4

    def test_size_contract(self):
        with pytest.raises(ShapeError):
            rules.sherman_morrison_solve(np.eye(3), np.zeros(2), np.zeros(3),
                                         np.zeros(3))


class TestRank1ResolventJacobian:
    def _setting(self):
        rng = np.random.default_rng(21)
        a = _well_conditioned(rng, 2)
        y = rng.standard_normal(2)
        b = rng.standard_normal(2)
        x0 = rng.standard_normal(2)
        return a, y, b, x0

    @staticmethod
    def _cramer_program(a, y, b):
        """f(x) = (A + y x^T)^{-1} b written out by Cramer's rule, so the
        same text runs on floats, duals and tape variables."""

        def program(xs):
            m00 = a[0, 0] + y[0] * xs[0]
            m01 = a[0, 1] + y[0] * xs[1]
            m10 = a[1, 0] + y[1] * xs[0]
            m11 = a[1, 1] + y[1] * xs[1]
            det = m00 * m11 - m01 * m10
            return [(m11 * b[0] - m01 * b[1]) / det,
                    (m00 * b[1] - m10 * b[0]) / det]

        return program

    def test_triple_agreement(self):
        a, y, b, x0 = self._setting()
        jac = rules.jacobian_rank1_resolvent(np.linalg.inv(a), y, x0, b)
        program = self._cramer_program(a, y, b)
        ad = forward.jacobian_forward(program, x0)
        assert fdcheck.relative_error(ad, jac) <= 1e-10
        fd = np.column_stack([
            _fd_dir(lambda v: np.linalg.solve(a + np.outer(y, v), b), x0, e)
            for e in np.eye(2)
        ])
        assert fdcheck.relative_error(fd, jac) <= 1e-6

    def test_rank_one_structure(self):
        a, y, b, x0 = self._setting()
        jac = rules.jacobian_rank1_resolvent(np.linalg.inv(a), y, x0, b)
        assert np.linalg.matrix_rank(jac, tol=1e-10) == 1


class TestGradDiagmQuadratic:
    def test_matches_fd_and_ad(self):
        rng = np.random.default_rng(22)
        raw = rng.standard_normal((4, 4))
        a = 0.5 * (raw + raw.T)
        x0 = rng.standard_normal(4)

        def program(xs):
            u = [sum(a[i, j] * xs[j] for j in range(4)) + xs[i] * xs[i]
                 for i in range(4)]
            return sum(v * v for v in u)   # x^T M^2 x = ||Mx||^2, M symmetric

        g = rules.grad_diagm_quadratic(a, x0)
        ad = forward.jacobian_forward(program, x0).ravel()
        np.testing.assert_allclose(g, ad, rtol=1e-10, atol=1e-11)
        f = lambda v: float(v @ np.linalg.matrix_power(a + np.diag(v), 2) @ v)
        for e in np.eye(4):
            assert g @ e == pytest.approx(_fd_dir(f, x0, e), rel=1e-5,
                                          abs=1e-7)

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError):
            rules.grad_diagm_quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]),
                                       np.zeros(2))


class TestProjectionMaps:
    def test_d_projection_matches_fd(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(4)
        dx = rng.standard_normal(4)
        proj = lambda v: np.outer(v, v) / float(v @ v)
        fd = _fd_dir(proj, x, dx)
        assert fdcheck.relative_error(rules.d_projection(x, dx), fd) <= 1e-6

    def test_d_projection_linear_in_dx(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal(3)
        d1, d2 = rng.standard_normal((2, 3))
        combo = rules.d_projection(x, 2.0 * d1 - d2)
        parts = 2.0 * rules.d_projection(x, d1) - rules.d_projection(x, d2)
        np.testing.assert_allclose(combo, parts, rtol=1e-12, atol=1e-13)

    def test_projection_b_triple_agreement(self):
        rng = np.random.default_rng(25)
        x0 = rng.standard_normal(3)
        b = rng.standard_normal(3)

        def program(xs):
            xtx = sum(v * v for v in xs)
            xb = sum(v * w for v, w in zip(xs, b))
            return [v * xb / xtx for v in xs]

        jac = rules.jacobian_projection_b(x0, b)
        ad = forward.jacobian_forward(program, x0)
        assert fdcheck.relative_error(ad, jac) <= 1e-10
        g = lambda v: (np.outer(v, v) / float(v @ v)) @ b
        fd = np.column_stack([_fd_dir(g, x0, e) for e in np.eye(3)])
        assert fdcheck.relative_error(fd, jac) <= 1e-6

    def test_consistency_between_projection_ops(self):
        """Applying d_projection to b columnwise reproduces the Jacobian of
        the projected vector."""
        rng = np.random.default_rng(26)
        x = rng.standard_normal(3)
        b = rng.standard_normal(3)
        jac = rules.jacobian_projection_b(x, b)
        assembled = np.column_stack(
            [rules.d_projection(x, e) @ b for e in np.eye(3)])
        np.testing.assert_allclose(assembled, jac, rtol=1e-11, atol=1e-12)

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            rules.d_projection(np.zeros(3), np.ones(3))
        with pytest.raises(DomainError):
            rules.jacobian_projection_b(np.zeros(3), np.ones(3))


class TestPlaneTransforms:
    THETA = 0.37
    POINT = np.array([0.9, -0.4])

    @pytest.mark.parametrize("kind", rules.TRANSFORM_KINDS)
    def test_triple_agreement(self, kind):
        theta, point = self.THETA, self.POINT
        jac = rules.analytic_transform_jacobians(kind, theta, point)
        program = lambda xs: rules.transform_map(kind, theta, xs)
        for mode in ("forward", "reverse"):
            report = fdcheck.triple_check(program, lambda d: jac @ d, mode,
                                          point, n_directions=5, seed=0)
            assert report.passed, report.summary()

    def test_rotation_is_orthogonal(self):
        jac = rules.analytic_transform_jacobians("rotate", self.THETA,
                                                 self.POINT)
        np.testing.assert_allclose(jac.T @ jac, np.eye(2), atol=1e-14)
        assert np.linalg.det(jac) == pytest.approx(1.0, rel=1e-14)

    def test_hyperbolic_determinant_is_one(self):
        """cosh^2 - sinh^2 = 1 makes the hyperbolic map area-preserving."""
        for theta in (-1.3, 0.0, 0.8, 2.1):
            jac = rules.analytic_transform_jacobians("hyperbolic", theta,
                                                     self.POINT)
            assert np.linalg.det(jac) == pytest.approx(1.0, rel=1e-12)

    def test_shear_determinant_is_one(self):
        jac = rules.analytic_transform_jacobians("shear", self.THETA,
                                                 self.POINT)
        assert np.linalg.det(jac) == pytest.approx(1.0, rel=1e-14)

    def test_warp_reduces_to_rotation_composition(self):
        """At any point, the warp value equals a plain rotation by
        theta*||p|| applied to the point."""
        theta, point = self.THETA, self.POINT
        out = rules.transform_map("warp", theta, list(point))
        phi = theta * np.linalg.norm(point)
        rot = np.array([[np.cos(phi), np.sin(phi)],
                        [-np.sin(phi), np.cos(phi)]])
        np.testing.assert_allclose(out, rot @ point, rtol=1e-13)

    def test_warp_origin_rejected(self):
        with pytest.raises(DomainError):
            rules.analytic_transform_jacobians("warp", 0.5, np.zeros(2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError):
            rules.transform_map("twist", 0.5, [1.0, 0.0])
        with pytest.raises(ContractError):
            rules.analytic_transform_jacobians("twist", 0.5, np.ones(2))

"""Tests for the analytic matrix-derivative rule catalog.

Every rule is an entry of ``rules.RULE_CHECKS``, judged against a central
difference of an independent numpy primal (``np.linalg.inv``, ``det``,
``slogdet`` and ``@``) and for linearity in dx by ``fdcheck.rule_residual``,
the driver ``matderiv check`` also runs; so is every derivative route of
``eigsens``, ``kron``, ``linsys_adjoint`` and ``second_order`` that EXEMPT
below does not name, each beside a numpy primal of its own.  The classes
below keep what the table does not check: closed forms, AD cross-checks,
contracts, counts, and the finite differences whose tolerance is tighter
than the table's.
"""

import inspect

import numpy as np
import pytest

from matderiv import (core, counting, eigsens, fdcheck, forward, kron, linsys_adjoint, odesens,
                      rules, second_order)
from matderiv.errors import (
    ContractError,
    DomainError,
    ShapeError,
    SingularMatrixError,
)


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

    @pytest.mark.parametrize("diag, error", [
        ([1.0, 1.0, 0.0], DomainError),
        ([-1.0, 1.0, 1e-300], DomainError),
        ([1.0, 1.0, 1e-300], SingularMatrixError),
    ])
    def test_singular_to_tolerance(self, diag, error):
        """A det <= 0 is a domain error even where the solve's pivot test
        fails first; a det > 0 keeps the solve's singular-matrix error."""
        with pytest.raises(error):
            rules.d_logdet(np.diag(diag), np.eye(3))


class TestDCharpoly:
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

    def test_eigensolver_invariant_error_propagates(self, monkeypatch):
        """Symmetry is read from ``core.is_symmetric``, so an invariant
        violation inside ``jacobi_eigen`` is raised; it was taken for an
        asymmetric input, and the proximity guard skipped, when the
        eigensolver's ContractError was the symmetry test."""
        def violated(x, tol, what):
            raise ContractError(f"jacobi_eigen: {what} invariant violated")

        monkeypatch.setattr(core, "_require_within", violated)
        with pytest.raises(ContractError, match="invariant violated"):
            rules.d_charpoly(np.diag([1.0, 2.0, 3.0]), 5.0)
        # an asymmetric input never reaches the eigensolver
        a = np.array([[1.0, 2.0], [0.0, 3.0]])
        assert rules.d_charpoly(a, 5.0) == pytest.approx(2 * 5.0 - 4.0, rel=1e-14)


class TestSecondDet:
    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(9)
        a = _well_conditioned(rng, 4)
        da, db = rng.standard_normal((2, 4, 4))
        assert rules.second_det(a, da, db) == pytest.approx(
            rules.second_det(a, db, da), rel=1e-12)


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

    @pytest.mark.parametrize("rule", ["grad_det", "d_charpoly", "second_det",
                                      "d_logdet"])
    def test_one_elimination_per_call(self, rule, monkeypatch):
        calls = []
        eliminate = core._eliminate
        monkeypatch.setattr(core, "_eliminate",
                            lambda *args: calls.append(1) or eliminate(*args))
        rng = np.random.default_rng(14)
        a, da, db = _well_conditioned(rng, 4), *rng.standard_normal((2, 4, 4))
        {"grad_det": lambda: rules.grad_det(a),
         "d_charpoly": lambda: rules.d_charpoly(a + a.T, 30.0),
         "second_det": lambda: rules.second_det(a, da, db),
         "d_logdet": lambda: rules.d_logdet(a @ a.T, da)}[rule]()
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
        fd = fdcheck.directional_fd(lambda v: float(v @ a @ v), x, dx)
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
        fd = fdcheck.directional_fd(np.linalg.norm, a, da)
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
        fd = fdcheck.directional_fd(lambda m: float(x @ m @ y), a, da)
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
        """Analytic against forward mode; the FD leg is the table's entry."""
        a, y, b, x0 = self._setting()
        jac = rules.jacobian_rank1_resolvent(np.linalg.inv(a), y, x0, b)
        program = self._cramer_program(a, y, b)
        ad = forward.jacobian_forward(program, x0)
        assert fdcheck.relative_error(ad, jac) <= 1e-10

    def test_rank_one_structure(self):
        a, y, b, x0 = self._setting()
        jac = rules.jacobian_rank1_resolvent(np.linalg.inv(a), y, x0, b)
        assert np.linalg.matrix_rank(jac, tol=1e-10) == 1


class TestGradDiagmQuadratic:
    def test_matches_fd_and_ad(self):
        """Analytic against forward mode; the FD leg is the table's entry."""
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

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError):
            rules.grad_diagm_quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]),
                                       np.zeros(2))


class TestProjectionMaps:
    def test_projection_b_triple_agreement(self):
        """Analytic against forward mode; the FD leg is the table's entry."""
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


@pytest.mark.parametrize("seed", [0, 1, 90017])
@pytest.mark.parametrize("entry", rules.RULE_CHECKS, ids=lambda e: e.name)
def test_rule_table(entry, seed):
    assert fdcheck.rule_residual(entry, seed) <= fdcheck.RULE_TOL


def test_rule_residual_judges_linearity_at_roundoff():
    """An operator off by 1e-8 ||dx|| relative passes the FD tolerance, not linearity."""
    e = rules.RULE_CHECKS[0]

    def bent_action(p, a):
        derivative = e.action(p, a)
        return lambda da: derivative(da) * (1 + 1e-8 * np.linalg.norm(da))

    bent = e._replace(action=bent_action)
    assert fdcheck.rule_residual(e, 0) <= fdcheck.RULE_TOL < fdcheck.rule_residual(bent, 0)


def test_rule_residual_builds_the_operator_once():
    """One action call gives f'(x); the driver applies it four times."""
    e = rules.RULE_CHECKS[0]
    built, applied = [], []

    def counted(p, a):
        derivative = e.action(p, a)
        built.append(1)
        return lambda da: applied.append(1) or derivative(da)

    fdcheck.rule_residual(e._replace(action=counted), 0)
    assert (len(built), len(applied)) == (1, 4)


# Public functions of the covered modules that have no entry, by reason.
EXEMPT = {
    "not a derivative": {
        "eigsens.decompose", "kron.vec", "kron.unvec", "kron.kron", "kron.kron_vec_identity_check",
        "kron.apply_bcat", "kron.apply_kron_vec", "kron.matrix_function",
        "kron.matrix_function_general", "kron.theoretical_jacdet", "kron.kron_identity_suite",
        "linsys_adjoint.solve_state", "linsys_adjoint.g_eval", "linsys_adjoint.partial_dA",
        "linsys_adjoint.random_instance", "second_order.bilinear_identity_check",
        "second_order.quadratic_model_check", "second_order.newton_min_step",
        "odesens.integrate_rk4", "odesens.integrate_euler", "odesens.simpson", "odesens.loss_G",
        "odesens.loss_discrete", "odesens.reference_instance"},
    "a finite-difference reference route": {
        "kron.jacobian_matrix_function_fd", "linsys_adjoint.fd_directional", "odesens.grad_G_fd",
        "odesens.grad_discrete_fd"},
    "dlambda and dq in one conjugation, checked through both": {"eigsens.perturbation"},
    "a Taylor prediction, checked by its eps^3 remainder": {
        "eigsens.second_order_taylor", "eigsens.second_order_taylor_general"},
    "hvp composed, pinned against fd_jacobian in test_second_order": {
        "second_order.hessian", "second_order.grad_of_grad_function"},
    "an ODE route, waiting on an exact discrete RK4 adjoint": {
        "odesens.forward_sensitivity", "odesens.grad_G_forward", "odesens.adjoint_solve",
        "odesens.grad_G_adjoint", "odesens.grad_G_discrete_data"},
}


def _public_functions(module):
    short = module.__name__.rsplit(".", 1)[-1]
    return {f"{short}.{name}" for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


def test_rule_table_is_complete():
    """Every public d_*, grad_* and jacobian_* rule of ``rules`` has an entry,
    and so does every public function of the other derivative modules that
    EXEMPT does not name."""
    names = {e.name for e in rules.RULE_CHECKS}
    public = {name for name in dir(rules) if name.startswith(("d_", "grad_", "jacobian_"))}
    assert public <= names
    routes = set().union(*map(_public_functions, (eigsens, kron, linsys_adjoint, odesens,
                                                  second_order)))
    exempt = set().union(*EXEMPT.values())
    assert routes - exempt <= names
    assert exempt <= routes and not exempt & names


def test_rule_table_holds_at_arbitrary_seeds():
    """``matderiv check`` draws its seed from [0, 2^31); 50 such seeds per
    entry stay within the one tolerance."""
    seeds = np.random.default_rng(15).integers(0, 2**31, 50)
    worst = {e.name: max(fdcheck.rule_residual(e, int(s)) for s in seeds)
             for e in rules.RULE_CHECKS}
    assert max(worst.values()) <= fdcheck.RULE_TOL, worst

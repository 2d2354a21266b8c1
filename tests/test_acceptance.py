"""Acceptance gate: one test per shipped guarantee, with pinned tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test states its guarantee in the docstring and checks
it end to end against an independent oracle (closed forms, finite
differences, hand-derived instances, or instrumented op counts).
"""

import math
from functools import partial

import numpy as np

import progen
from matderiv import (
    core,
    counting,
    eigsens,
    fdcheck,
    forward,
    kron,
    linsys_adjoint,
    odesens,
    reverse,
    rules,
    second_order,
)
from matderiv import scalarfn as sf


class TestAcceptance:
    def test_01_babylonian_golden_values(self):
        """Babylonian(4, N) hits the tabulated iterates to 15 significant
        digits and its dual-mode derivative at 49 equals 1/14."""
        golden = {
            1: 2.5,
            2: 2.05,
            3: 2.000609756097561,
            4: 2.0000000929222947,
            10: 2.0,
        }
        for n, want in golden.items():
            got = forward.babylonian(4.0, n)
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        deriv = forward.derivative(lambda t: forward.babylonian(t, 40), 49.0)
        assert abs(deriv - 0.07142857142857142) <= 1e-15

    def test_02_matrix_function_jacobian_determinants(self):
        """On M_ij = (i-j)^2 the 9x9 Jacobian determinant of A->f(A) matches
        the eigenvalue product formula for f = square, exp, sin: the square
        case gives 4096 and exp gives 939.059 (both to 0.1%); the sin case
        has magnitude 8.41346e-6 to 1% with the FD determinant and the
        formula agreeing in sign; FD vs formula within 1% everywhere."""
        s = np.array([[float((i - j) ** 2) for j in range(3)]
                      for i in range(3)])
        lam = core.jacobi_eigen(s).lam
        cases = {
            "square": (lambda t: t * t, lambda t: 2.0 * t, 4096.0, 1e-3),
            "exp": (math.exp, math.exp, 939.059, 1e-3),
            "sin": (math.sin, math.cos, 8.41346e-6, 1e-2),
        }
        for name, (f, fp, magnitude, tol) in cases.items():
            fd_det = core.det(kron.jacobian_matrix_functions_fd([f], s)[0])
            formula = kron.theoretical_jacdet(f, fp, lam)
            assert abs(abs(formula) - magnitude) / magnitude <= tol, name
            assert abs(abs(fd_det) - magnitude) / magnitude <= tol, name
            assert fd_det * formula > 0, name
            assert abs(fd_det - formula) / abs(formula) <= 1e-2, name

    def test_03_kronecker_structure(self):
        """jac_square_vec reproduces the symbolic 2x2 pattern, the
        (A (x) B) vec C = vec(B C A^T) identity holds to 1e-12 over 200
        random triples, and the seven-identity suite stays under 1e-10."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            p, q, r, s = rng.uniform(-3.0, 3.0, size=4)
            a = np.array([[p, r], [q, s]])
            want = np.array([
                [2 * p, r, q, 0],
                [q, p + s, 0, q],
                [r, 0, p + s, r],
                [0, r, q, 2 * s],
            ])
            assert np.max(np.abs(kron.jac_square_vec(a) - want)) <= 1e-12
        for _ in range(200):
            m, n, k, p = rng.integers(1, 5, size=4)
            a = rng.standard_normal((p, k))
            b = rng.standard_normal((m, n))
            c = rng.standard_normal((n, k))
            assert kron.kron_vec_identity_check(a, b, c) <= 1e-12
        residuals = kron.kron_identity_suite(seed=0, trials=50)
        assert len(residuals) == 7
        assert max(residuals.values()) <= 1e-10

    def test_04_determinant_and_inverse_rules(self):
        """grad_det matches the 2x2 cofactor pattern to 1e-12; the rule
        table's d_inverse, grad_det, d_logdet, d_charpoly and second_det
        entries pass their central-difference oracle at 1e-6."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            a2, b2, c2, d2 = rng.uniform(-3.0, 3.0, size=4)
            m = np.array([[a2, b2], [c2, d2]])
            cof = np.array([[d2, -c2], [-b2, a2]])
            assert np.max(np.abs(rules.grad_det(m) - cof)) <= 1e-12

        names = {"d_inverse", "grad_det", "d_logdet", "d_charpoly", "second_det"}
        for entry in rules.RULE_CHECKS:
            if entry.name in names:
                assert fdcheck.rule_residual(entry, 7) <= 1e-6, entry.name

    def test_05_tridiagonal_adjoint(self):
        """The adjoint gradient of the tridiagonal quadratic objective
        matches directional FD at rel err 1e-3 for n in {10, 100, 1000},
        uses exactly 2 tridiagonal solves, scales linearly in n, and
        reproduces the hand value dg/dp_1 = 10/27 on the documented
        instance."""
        for n in (10, 100, 1000):
            prob = linsys_adjoint.random_instance(n, seed=n)
            with counting.tally() as counted:
                grad = linsys_adjoint.grad_g(prob)
            assert counted.solves == 2, n
            rng = np.random.default_rng(n + 1)
            dp = rng.uniform(-1.0, 1.0, size=n - 1) * 1e-6 * (1.0 + np.abs(prob.p))
            directional = float(grad @ dp)
            fd = linsys_adjoint.fd_directional(prob, dp)
            assert abs(directional - fd) / abs(directional) <= 1e-3, n

        flops = {}
        for n in (200, 400, 800):
            prob = linsys_adjoint.random_instance(n, seed=3)
            with counting.tally() as counted:
                linsys_adjoint.grad_g(prob)
            flops[n] = counted.flops
        assert 1.8 <= flops[400] / flops[200] <= 2.3
        assert 1.8 <= flops[800] / flops[400] <= 2.3

        hand = linsys_adjoint.TridiagProblem(
            a=np.array([2.0, 2.0]), p=np.array([1.0]),
            b=np.array([1.0, 0.0]), c=np.array([0.0, 1.0]),
        )
        grad = linsys_adjoint.grad_g(hand)
        assert abs(grad[0] - 10.0 / 27.0) <= 1e-12

    def test_06_ode_sensitivity(self):
        """Forward-sensitivity, adjoint, and central-FD gradients of the
        trajectory-misfit loss agree pairwise at rel err 1e-3 with 2000 RK4
        steps and 1e-4 with 8000; the adjoint route costs exactly 2
        integrations regardless of the parameter count."""
        prob = odesens.reference_instance()
        for steps, tol in ((2000, 1e-3), (8000, 1e-4)):
            gf = odesens.grad_G_forward(prob, steps)
            with counting.tally() as counted:
                ga = odesens.grad_G_adjoint(prob, steps)
            gd = odesens.grad_G_fd(prob, steps)
            assert counted.integrations == 2, steps
            assert fdcheck.relative_error(ga, gf) <= tol, steps
            assert fdcheck.relative_error(gd, gf) <= tol, steps
            assert fdcheck.relative_error(gd, ga) <= tol, steps

    def test_07_finite_difference_sweep(self):
        """The FD error-vs-scale curve for f(A) = A^2 is V-shaped with an
        interior argmin in [1e-10, 1e-6]; at scale 1e-8 the true derivative
        sits below 1e-6 while the wrong candidate 2A*dA never beats 0.1."""
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        d = fdcheck.gaussian_direction(rng, (4, 4))
        scales = [10.0 ** (-k) for k in range(0, 17)]
        rows = fdcheck.error_sweep(
            lambda m: m @ m, lambda dm: a @ dm + dm @ a, a, d, scales)
        best = fdcheck.best_scale(rows)
        assert 1e-10 <= best <= 1e-6
        by_scale = {r.scale: r.relative_error for r in rows}
        idx_best = scales.index(best)
        assert 0 < idx_best < len(scales) - 1
        for coarse, finer in zip(scales[:idx_best], scales[1:idx_best + 1]):
            assert by_scale[finer] < by_scale[coarse]
        for tail_scale in scales[-3:]:
            assert by_scale[tail_scale] > 5.0 * by_scale[best]
        assert by_scale[1e-8] <= 1e-6
        wrong = fdcheck.error_sweep(
            lambda m: m @ m, lambda dm: 2.0 * a * dm, a, d, scales)
        for row in wrong:
            if row.scale <= 1e-4:
                assert row.relative_error >= 0.1

    def test_08_eigenvalue_perturbation(self):
        """First-order eigenvalue derivatives match FD at 1e-4 on a random
        symmetric 5x5, their sum equals tr(dS) to 1e-12, Q^T dQ is
        antisymmetric to 1e-12, and the second-order Taylor remainder
        scales like eps^3 under a tenfold step cut."""
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((5, 5))
        s = 0.5 * (raw + raw.T) + np.diag(np.arange(5, dtype=float))
        raw_ds = rng.standard_normal((5, 5))
        ds = 0.5 * (raw_ds + raw_ds.T)
        dec = eigsens.decompose(s)
        dl = eigsens.dlambda(dec, ds)

        fd = fdcheck.directional_fd(lambda m: core.jacobi_eigen(m).lam, s, ds)
        assert np.max(np.abs(dl - fd) / np.maximum(np.abs(fd), 1e-12)) <= 1e-4
        assert abs(float(np.sum(dl)) - float(np.trace(ds))) <= 1e-12

        pert = eigsens.perturbation(dec, ds)
        assert np.max(np.abs(pert.qt_dq + pert.qt_dq.T)) <= 1e-12

        def remainder(eps):
            truth = core.jacobi_eigen(s + eps * ds).lam
            pred = eigsens.second_order_taylor_general(dec, ds, eps)
            return float(np.max(np.abs(truth - pred)))

        ratio = remainder(1e-2) / remainder(1e-3)
        assert 200.0 <= ratio <= 5000.0

    def test_09_hessians(self):
        """The assembled Hessian of sin(x1) + x1^2 x2^3 matches its closed
        form entrywise to 1e-10; over 50 generated programs the raw
        symmetry defect stays under 1e-10 and the Hessian matches FD of the
        gradient at 1e-5; the gradient of g(grad f) matches FD at 1e-6 for
        f = 1/||x||, g = (sum z)^3."""
        f = lambda xs: sf.sin(xs[0]) + xs[0] * xs[0] * sf.powi(xs[1], 3)
        x = np.array([0.8, -1.2])
        x1, x2 = x
        exact = np.array([
            [-math.sin(x1) + 2.0 * x2**3, 6.0 * x1 * x2**2],
            [6.0 * x1 * x2**2, 6.0 * x1**2 * x2],
        ])
        np.testing.assert_allclose(second_order.hessian(f, x), exact,
                                   rtol=1e-10, atol=1e-10)

        for seed in range(50):
            prog = progen.make_scalar_program(7000 + seed, need_hessian=True)
            h, defect = second_order.hessian(prog, prog.x0, return_defect=True)
            assert defect <= 1e-10, f"seed {seed}"
            fd = fdcheck.fd_jacobian(partial(reverse.gradient, prog), prog.x0)
            scale = max(1.0, float(np.max(np.abs(h))))
            assert np.max(np.abs(h - fd)) / scale <= 1e-5, f"seed {seed}"

        inv_norm = lambda xs: 1.0 / sf.sqrt(sum(v * v for v in xs))
        cube_sum = lambda zs: sf.powi(sum(zs), 3)
        x = np.array([0.9, -0.4, 1.3])
        got = second_order.grad_of_grad_function(inv_norm, cube_sum, x)
        composite = lambda v: -float(np.sum(v)) ** 3 / np.linalg.norm(v) ** 9
        fd = fdcheck.fd_jacobian(composite, x)
        assert np.linalg.norm(got - fd) / np.linalg.norm(fd) <= 1e-6

    def test_10_ad_cross_mode_and_analytic_jacobians(self):
        """Reverse gradients equal forward-Jacobian transposes to 1e-10 on
        100 generated scalar programs, and every hand-derived plane
        transform, projection, rank-1 resolvent, and diagonal-update
        quadratic passes analytic/AD/FD triple agreement."""
        for seed in range(100):
            prog = progen.make_scalar_program(9000 + seed)
            g_rev = reverse.gradient(prog, prog.x0)
            jac = forward.jacobian_forward(lambda xs: [prog(xs)], prog.x0)
            scale = max(1.0, float(np.max(np.abs(jac))))
            assert np.max(np.abs(g_rev - jac[0])) / scale <= 1e-10, seed

        theta, point = 0.37, np.array([0.9, -0.4])
        for kind in rules.TRANSFORM_KINDS:
            jac = rules.analytic_transform_jacobians(kind, theta, point)
            for mode in ("forward", "reverse"):
                report = fdcheck.triple_check(
                    lambda xs: rules.transform_map(kind, theta, xs),
                    lambda d: jac @ d, mode, point, seed=3)
                assert report.passed, (kind, mode, report.summary())
        for t in (0.0, 0.37, -1.1, 2.0):
            j = rules.analytic_transform_jacobians("hyperbolic", t, point)
            assert abs(core.det(j) - 1.0) <= 1e-12

        rng = np.random.default_rng(21)
        x0 = rng.uniform(0.5, 1.5, size=3)
        b = rng.standard_normal(3)
        jac_proj = rules.jacobian_projection_b(x0, b)

        def proj_prog(xs):
            xtx = sum(v * v for v in xs)
            xb = sum(v * bi for v, bi in zip(xs, b))
            return [v * xb / xtx for v in xs]

        report = fdcheck.triple_check(proj_prog, lambda d: jac_proj @ d,
                                      "forward", x0, seed=4)
        assert report.passed, report.summary()

        a = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
        a_inv = core.lu_solve(a, np.eye(2))
        y = rng.standard_normal(2)
        rhs = rng.standard_normal(2)
        xr = rng.uniform(0.2, 0.8, size=2)
        jac_res = rules.jacobian_rank1_resolvent(a_inv, y, xr, rhs)

        def resolvent_prog(xs):
            m00 = a[0, 0] + y[0] * xs[0]
            m01 = a[0, 1] + y[0] * xs[1]
            m10 = a[1, 0] + y[1] * xs[0]
            m11 = a[1, 1] + y[1] * xs[1]
            det = m00 * m11 - m01 * m10
            return [(m11 * rhs[0] - m01 * rhs[1]) / det,
                    (m00 * rhs[1] - m10 * rhs[0]) / det]

        report = fdcheck.triple_check(resolvent_prog, lambda d: jac_res @ d,
                                      "reverse", xr, seed=5)
        assert report.passed, report.summary()

        raw = rng.standard_normal((3, 3))
        sym = 0.5 * (raw + raw.T)
        xd = rng.uniform(-1.0, 1.0, size=3)
        grad_dq = rules.grad_diagm_quadratic(sym, xd)

        def diagm_prog(xs):
            total = 0.0
            for i in range(3):
                u = sum(sym[i, j] * xs[j] for j in range(3)) + xs[i] * xs[i]
                total = total + u * u
            return total

        report = fdcheck.triple_check(diagm_prog, lambda d: float(grad_dq @ d),
                                      "forward", xd, seed=6)
        assert report.passed, report.summary()

    def test_11_cost_model_properties(self):
        """Instrumented op counts: doubling n at most quadruples (x4.4) the
        Sherman-Morrison solve cost across n in {32..512}, and materializing
        the Kronecker matrix costs at least m/2 times the direct B C A^T
        route at m = 32."""
        rng = np.random.default_rng(13)
        flops = {}
        for n in (32, 64, 128, 256, 512):
            a_inv = np.eye(n) + 0.01 * rng.standard_normal((n, n))
            y, x, b = rng.standard_normal((3, n))
            with counting.tally() as counted:
                rules.sherman_morrison_solve(a_inv, y, x, b)
            flops[n] = counted.flops
        for small, big in ((32, 64), (64, 128), (128, 256), (256, 512)):
            assert flops[big] / flops[small] <= 4.4, (small, big)

        m = 32
        a, b, c = rng.standard_normal((3, m, m))
        with counting.tally() as counted:
            direct = kron.apply_bcat(a, b, c)
        direct_flops = counted.flops
        with counting.tally() as counted:
            materialized = kron.apply_kron_vec(a, b, c)
        np.testing.assert_allclose(materialized, direct, rtol=1e-12,
                                   atol=1e-10)
        assert counted.flops / direct_flops >= m / 2

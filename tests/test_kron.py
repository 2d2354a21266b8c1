"""Tests for vec/Kronecker algebra and matrix-function Jacobians.

The golden 3x3 test point is M_ij = (i-j)^2, whose eigenvalues are the
roots of t^3 - 18t - 8 (-4 and 2 +/- sqrt(6)); the Jacobian determinants
of squaring, exp and sin at that point have known values checked here
against both the product formula and a finite-difference determinant.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matderiv import core, counting, fdcheck, kron
from matderiv.errors import (
    ContractError,
    DegenerateEigenvaluesError,
    ShapeError,
)

GOLDEN = np.array([[(i - j) ** 2 for j in range(3)] for i in range(3)],
                  dtype=float)

# the three functions of ``matderiv jacdet``, whose S is GOLDEN
JACDET_FUNCTIONS = [lambda t: t * t, math.exp, math.sin]


def _spread_spectrum(n):
    """A seeded symmetric n x n matrix with eigenvalue gaps of at least 0.6."""
    rng = np.random.default_rng(100 + n)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = 0.8 * (np.arange(n) - 0.5 * (n - 1)) + rng.uniform(-0.1, 0.1, n)
    s = (q * lam) @ q.T
    return 0.5 * (s + s.T)


class TestVec:
    def test_column_stacking_order(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(kron.vec(a), [1.0, 3.0, 2.0, 4.0])

    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(0)
        for m, n in [(1, 1), (2, 3), (4, 2), (5, 5)]:
            a = rng.standard_normal((m, n))
            np.testing.assert_array_equal(kron.unvec(kron.vec(a), m, n), a)

    def test_unvec_length_contract(self):
        with pytest.raises(ShapeError):
            kron.unvec(np.zeros(5), 2, 3)

    def test_vec_rejects_vectors(self):
        with pytest.raises(ShapeError):
            kron.vec(np.zeros(4))


class TestKron:
    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((4, 2))
        np.testing.assert_array_equal(kron.kron(a, b), np.kron(a, b))

    def test_flop_count_is_product_of_sizes(self):
        with counting.tally() as c:
            kron.kron(np.ones((2, 3)), np.ones((4, 5)))
        assert c.flops == 6 * 20

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_vec_identity_random(self, seed):
        """(A (x) B) vec C == vec(B C A^T) for random rectangular triples."""
        rng = np.random.default_rng(seed)
        m, n, p, q = rng.integers(1, 5, size=4)
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((p, q))
        c = rng.standard_normal((q, n))
        assert kron.kron_vec_identity_check(a, b, c) <= 1e-12

    def test_identity_check_shape_contract(self):
        with pytest.raises(ShapeError):
            kron.kron_vec_identity_check(np.eye(2), np.eye(3), np.eye(2))


class TestApplyRoutes:
    def test_routes_agree(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((5, 2))
        c = rng.standard_normal((2, 4))
        np.testing.assert_allclose(kron.apply_kron_vec(a, b, c),
                                   kron.apply_bcat(a, b, c),
                                   rtol=1e-12, atol=1e-13)

    def test_cost_separation(self):
        """Materializing A (x) B costs at least m/2 times the direct
        B C A^T route at m = 32."""
        m = 32
        rng = np.random.default_rng(3)
        a, b, c = (rng.standard_normal((m, m)) for _ in range(3))
        with counting.tally() as direct:
            kron.apply_bcat(a, b, c)
        with counting.tally() as materialized:
            kron.apply_kron_vec(a, b, c)
        assert materialized.flops / direct.flops >= m / 2


class TestClosedFormJacobians:
    def test_symbolic_two_by_two_square(self):
        """The 4x4 Jacobian of squaring a 2x2 matrix, with entries named
        down the columns (p, q first column; r, s second)."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            p, q, r, s = rng.standard_normal(4)
            a = np.array([[p, r], [q, s]])
            want = np.array([[2 * p, r, q, 0.0],
                             [q, p + s, 0.0, q],
                             [r, 0.0, p + s, r],
                             [0.0, r, q, 2 * s]])
            np.testing.assert_allclose(kron.jac_square_vec(a), want,
                                       rtol=1e-12, atol=1e-12)

    def test_square_action_is_product_rule(self):
        """J_square vec(E) == vec(AE + EA)."""
        rng = np.random.default_rng(5)
        a, e = rng.standard_normal((2, 4, 4))
        got = kron.jac_square_vec(a) @ kron.vec(e)
        np.testing.assert_allclose(got, kron.vec(a @ e + e @ a),
                                   rtol=1e-12, atol=1e-13)

    def test_cube_action(self):
        """J_cube vec(E) == vec(A^2 E + A E A + E A^2)."""
        rng = np.random.default_rng(6)
        a, e = rng.standard_normal((2, 3, 3))
        got = kron.jac_cube_vec(a) @ kron.vec(e)
        want = kron.vec(a @ a @ e + a @ e @ a + e @ a @ a)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_inverse_action(self):
        """J_inverse vec(E) == vec(-A^-1 E A^-1)."""
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        e = rng.standard_normal((3, 3))
        inv = np.linalg.inv(a)
        got = kron.jac_inverse_vec(a) @ kron.vec(e)
        np.testing.assert_allclose(got, kron.vec(-inv @ e @ inv),
                                   rtol=1e-10, atol=1e-12)


class TestMatrixFunction:
    def test_square_matches_direct_product(self):
        rng = np.random.default_rng(9)
        raw = rng.standard_normal((4, 4))
        s = 0.5 * (raw + raw.T)
        np.testing.assert_allclose(kron.matrix_function(lambda t: t * t, s),
                                   s @ s, rtol=1e-9, atol=1e-10)

    def test_exp_matches_numpy_eigh_route(self):
        rng = np.random.default_rng(10)
        raw = rng.standard_normal((4, 4))
        s = 0.5 * (raw + raw.T)
        lam, q = np.linalg.eigh(s)
        want = (q * np.exp(lam)) @ q.T
        np.testing.assert_allclose(kron.matrix_function(math.exp, s), want,
                                   rtol=1e-9, atol=1e-10)

    def test_identity_function_returns_input(self):
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((3, 3))
        s = 0.5 * (raw + raw.T)
        np.testing.assert_allclose(kron.matrix_function(lambda t: t, s), s,
                                   rtol=1e-10, atol=1e-11)

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError):
            kron.matrix_function(math.exp, np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bitwise_q_f_lambda_qt(self, n):
        """f(S) is (Q * f(lam)) @ Q^T of ``jacobi_eigen``'s Q and lam, bit
        for bit."""
        raw = np.random.default_rng(40 + n).standard_normal((n, n))
        s = 0.5 * (raw + raw.T)
        dec = core.jacobi_eigen(s)
        for f in JACDET_FUNCTIONS:
            want = (dec.q * np.array([float(f(v)) for v in dec.lam])) @ dec.q.T
            assert kron.matrix_function(f, s).tobytes() == want.tobytes()

    def test_general_route_agrees_on_symmetric_input(self):
        np.testing.assert_allclose(
            kron.matrix_function_general(math.exp, GOLDEN),
            kron.matrix_function(math.exp, GOLDEN),
            rtol=1e-7, atol=1e-9)

    def test_general_route_squares_slightly_asymmetric_input(self):
        """f(M) = M^2 has an exact target even when M is not symmetric."""
        rng = np.random.default_rng(12)
        skew = rng.standard_normal((3, 3))
        m = GOLDEN + 1e-6 * skew
        got = kron.matrix_function_general(lambda t: t * t, m)
        assert np.max(np.abs(got - m @ m)) <= 1e-6

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(DegenerateEigenvaluesError):
            kron.matrix_function_general(math.exp, np.eye(3))

    def test_non_normal_gap_measured_against_frobenius_norm(self):
        """The pair 0, 2.2e-7 is within GAP_RTOL * ||M||_F (||M||_F = 23.07)
        though not within GAP_RTOL * ||lam||_2 (||lam||_2 = 21.65)."""
        m = np.diag([0.0, 2.2e-7, 10.0, 20.0])
        m[2, 3], m[3, 2] = 4.0, -4.0
        with pytest.raises(DegenerateEigenvaluesError):
            kron.matrix_function_general(math.exp, m)


def _jacdet_points():
    """The 2 n^2 = 18 perturbed matrices of ``matderiv jacdet``, in the
    order ``fdcheck.fd_jacobian`` evaluates them."""
    seen = []
    fdcheck.fd_jacobian_stacked(lambda pts: seen.extend(pts) or np.zeros(len(pts)),
                                kron.vec(GOLDEN))
    return np.array([kron.unvec(p, 3, 3) for p in seen])


def _near_symmetric(n, k, seed):
    """k seeded matrices _spread_spectrum(n) + 1e-6 G, G Gaussian."""
    rng = np.random.default_rng(seed)
    return np.array([_spread_spectrum(n) + 1e-6 * rng.standard_normal((n, n))
                     for _ in range(k)])


def _bits(factors):
    """(X, lams, X^{-1}) member by member, as bytes."""
    return [[np.asarray(a).tobytes() for a in member] for member in zip(*factors)]


class TestStackedSpectralFactors:
    """``_spectral_factors`` of a (k, n, n) stack: the symmetric parts through
    ``_by_size``, each inverse-iteration step as one stacked solve and X^{-1}
    from one inversion, each member bitwise its own stack of one and with
    its counts (jacdet's 126 solves and 4554 flops are pinned in
    test_cli)."""

    @pytest.mark.parametrize("stack", [
        pytest.param(_jacdet_points, id="jacdet"),
        *(pytest.param(lambda n=n, k=k: _near_symmetric(n, k, 60 + n), id=f"n{n}-k{k}")
          for n in (2, 3, 4, 5) for k in (3, 9)),
    ])
    def test_members_are_their_own_stacks_of_one(self, stack):
        ms = stack()
        with counting.tally() as together:
            got = _bits(kron._spectral_factors(ms))
        with counting.tally() as alone:
            own = [_bits(kron._spectral_factors(m[None]))[0] for m in ms]
        assert got == own
        assert together == alone

    def test_singular_shift_keeps_its_jacobi_pair(self):
        """Member 0 is diag(1, d) with d = 1 + 1e-8 (1 + 1), exactly the
        shift of its first pair, so that pair's shifted matrix is singular:
        the pair stays the Jacobi (e_0, 1.0) and makes no solve, while its
        other pair and the other members iterate as in their own stacks."""
        d = 1.0 + 1e-8 * (1.0 + abs(1.0))
        ms = np.concatenate(([np.diag([1.0, d])], _near_symmetric(2, 3, 7)))
        with counting.tally() as c:
            x, lams = kron._eig_near_symmetric(ms)
        assert c.solves == 2 * ms.shape[0] * 2 - 2
        assert x[0, :, 0].tolist() == [1.0, 0.0] and lams[0, 0] == 1.0
        assert lams[0, 1] == d
        for i, m in enumerate(ms):
            own = kron._eig_near_symmetric(m[None])
            assert (x[i].tobytes(), lams[i].tobytes()) == (own[0][0].tobytes(), own[1][0].tobytes())

    def test_stacked_gap_error_names_its_member(self):
        ms = _near_symmetric(3, 4, 8)
        ms[2] = np.diag([1.0, 1.0, 2.0])
        with pytest.raises(DegenerateEigenvaluesError, match=r"stack member 2\)"):
            kron._spectral_factors(ms)
        with pytest.raises(DegenerateEigenvaluesError, match=r"^matrix_function_general:"):
            kron._spectral_factors(ms[2:3])


@pytest.mark.parametrize("route", [kron.matrix_function,
                                   kron.jacobian_matrix_function])
def test_symmetry_tested_once(route, monkeypatch):
    """Each spectral route leaves the symmetry test to jacobi_eigen."""
    calls = []
    is_symmetric = core.is_symmetric
    monkeypatch.setattr(core, "is_symmetric",
                        lambda *args: calls.append(1) or is_symmetric(*args))
    route(math.exp, GOLDEN)
    assert len(calls) == 1


class TestMatrixFunctionJacobian:
    def test_identity_function_gives_identity_jacobian(self):
        jac = kron.jacobian_matrix_function(lambda t: t, GOLDEN)
        np.testing.assert_allclose(jac, np.eye(9), atol=1e-6)

    def test_square_matches_closed_form(self):
        jac = kron.jacobian_matrix_function(lambda t: t * t, GOLDEN)
        np.testing.assert_allclose(jac, kron.jac_square_vec(GOLDEN),
                                   rtol=1e-5, atol=1e-4)

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError):
            kron.jacobian_matrix_function(math.exp,
                                          np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateEigenvaluesError):
            kron.jacobian_matrix_function(math.exp, np.eye(3))

    def test_fd_route_keeps_the_guards(self):
        """Both finite-difference routes, one function or several."""
        for route in (lambda s: kron.jacobian_matrix_functions_fd([math.exp], s)[0],
                      lambda s: kron.jacobian_matrix_functions_fd(JACDET_FUNCTIONS, s)):
            with pytest.raises(ContractError):
                route(np.array([[0.0, 1.0], [0.0, 0.0]]))
            with pytest.raises(DegenerateEigenvaluesError):
                route(np.eye(3))

    def test_fd_routes_need_a_function(self):
        with pytest.raises(ContractError, match="at least one function"):
            kron.jacobian_matrix_functions_fd([], GOLDEN)

    @pytest.mark.parametrize("s", [GOLDEN] + [_spread_spectrum(n) for n in (3, 4, 5)],
                             ids=["golden", "n3", "n4", "n5"])
    def test_each_shared_jacobian_is_bitwise_its_own_call(self, s):
        """One decomposition per perturbed point serves every function, and
        the central quotient is elementwise, so each block of the stack has
        the bits of a call with its function alone."""
        fs = JACDET_FUNCTIONS + [np.exp, lambda v: v**3 + v]
        jacs = kron.jacobian_matrix_functions_fd(fs, s)
        assert jacs.shape == (len(fs), s.size, s.size)
        for f, jac in zip(fs, jacs):
            assert jac.tobytes() == kron.jacobian_matrix_functions_fd([f], s)[0].tobytes()

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("f", [math.exp, np.exp, math.sin,
                                   lambda v: v**3 + v],
                             ids=["math.exp", "np.exp", "math.sin", "cubic"])
    def test_closed_form_matches_fd_jacobian(self, n, f):
        """Daleckii-Krein against the finite-difference Jacobian on a
        symmetric matrix with eigenvalue gaps of at least 0.6."""
        s = _spread_spectrum(n)
        jac = kron.jacobian_matrix_function(f, s)
        fd = kron.jacobian_matrix_functions_fd([f], s)[0]
        assert np.max(np.abs(jac - fd)) <= 1e-6

    @pytest.mark.parametrize("f, fp", [
        (lambda t: t * t, lambda t: 2 * t),
        (math.exp, math.exp),
        (math.sin, math.cos),
    ])
    def test_closed_form_determinant_matches_formula(self, f, fp):
        jac = kron.jacobian_matrix_function(f, GOLDEN)
        formula = kron.theoretical_jacdet(f, fp, np.linalg.eigvalsh(GOLDEN))
        assert float(np.linalg.det(jac)) == pytest.approx(formula, rel=1e-6)


class TestJacobianDeterminants:
    def _lam(self):
        return np.linalg.eigvalsh(GOLDEN)

    def test_eigenvalues_solve_cubic(self):
        """The golden point's eigenvalues satisfy t^3 - 18t - 8 = 0."""
        lam = self._lam()
        np.testing.assert_allclose(lam**3 - 18 * lam - 8, np.zeros(3),
                                   atol=1e-12)
        np.testing.assert_allclose(
            np.sort(lam), [-4.0, 2.0 - math.sqrt(6), 2.0 + math.sqrt(6)],
            rtol=1e-12)

    def test_square_determinant_is_4096(self):
        got = kron.theoretical_jacdet(lambda t: t * t, lambda t: 2 * t,
                                      self._lam())
        assert got == pytest.approx(4096.0, rel=1e-3)

    def test_exp_determinant(self):
        got = kron.theoretical_jacdet(math.exp, math.exp, self._lam())
        assert got == pytest.approx(939.059, rel=1e-3)

    def test_sin_determinant_magnitude_and_sign(self):
        """|det| = 8.41346e-6; the sign is fixed positive by the formula:
        cos is negative at two of the three eigenvalues, and every squared
        divided-difference factor is positive."""
        lam = self._lam()
        got = kron.theoretical_jacdet(math.sin, math.cos, lam)
        assert abs(got) == pytest.approx(8.41346e-6, rel=1e-2)
        assert got > 0
        sign_from_cos = np.prod(np.sign(np.cos(lam)))
        assert sign_from_cos == 1.0

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_loewner_product_matches_pairwise_loop(self, n):
        """The product of all n^2 Loewner entries against the formula's
        f' product times squared off-diagonal quotients; only the order of
        the n^2 roundings differs."""
        rng = np.random.default_rng(40 + n)
        lam = np.sort(rng.standard_normal(n)) + np.arange(n)
        want = 1.0
        for v in lam:
            want *= math.cos(v)
        for i in range(n):
            for j in range(i + 1, n):
                ratio = (math.sin(lam[i]) - math.sin(lam[j])) / (lam[i] - lam[j])
                want *= ratio * ratio
        got = kron.theoretical_jacdet(math.sin, math.cos, lam)
        assert got == pytest.approx(want, rel=n * n * np.finfo(float).eps)

    def test_partial_product_leaving_the_float_range(self):
        """f = exp(300 t): the running product of the Loewner entries goes
        subnormal, and to 0, before det J = 1.28e-65 is reached; for exp at
        (-700, -690, 600, 610) it goes to 0 before det J overflows to inf."""
        lam = np.array([-1.0, -0.9, 0.2, 0.3])
        f, fp = (lambda t: math.exp(300.0 * t)), (lambda t: 300.0 * math.exp(300.0 * t))
        ref = math.exp(math.fsum(np.log(kron._lowner(f, fp, lam)).ravel()))
        assert kron.theoretical_jacdet(f, fp, lam) == pytest.approx(ref, rel=1e-12, abs=0.0)
        lam = np.array([-700.0, -690.0, 600.0, 610.0])
        assert kron.theoretical_jacdet(math.exp, math.exp, lam) == math.inf

    def test_zero_entry_is_zero_without_warning(self):
        got = kron.theoretical_jacdet(lambda t: t**3, lambda t: 3.0 * t * t,
                                      np.array([-1.0, 0.0, 2.0]))
        assert got == 0.0

    def test_overflow_is_inf_without_warning(self):
        got = kron.theoretical_jacdet(math.exp, math.exp, np.linspace(0.0, 1.0, 40))
        assert got == math.inf

    @pytest.mark.parametrize("f, fp, tol", [
        (lambda t: t * t, lambda t: 2 * t, 1e-2),
        (math.exp, math.exp, 1e-2),
        (math.sin, math.cos, 1e-2),
    ])
    def test_fd_determinant_matches_formula(self, f, fp, tol):
        jac = kron.jacobian_matrix_functions_fd([f], GOLDEN)[0]
        fd_det = float(np.linalg.det(jac))
        formula = kron.theoretical_jacdet(f, fp, self._lam())
        assert fd_det == pytest.approx(formula, rel=tol)
        assert fd_det * formula > 0


def _per_trial_suite(seed, trials):
    """``kron.kron_identity_suite`` as one loop that decomposes S_a, S_b and
    S_a (x) S_b with a ``core.jacobi_eigen`` call each, trial by trial."""
    rng = np.random.default_rng(seed)
    worst = {name: 0.0 for name in kron.KRON_IDENTITIES}

    def note(name, delta, ref):
        worst[name] = max(worst[name], delta / (1.0 + ref))

    frob = core.frob
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        b = rng.uniform(-1.0, 1.0, size=(m, m))
        c = rng.uniform(-1.0, 1.0, size=(n, n))
        d = rng.uniform(-1.0, 1.0, size=(m, m))
        ab = np.kron(a, b)
        note("transpose", frob(ab.T - np.kron(a.T, b.T)), frob(ab))
        rhs = np.kron(a @ c, b @ d)
        note("mixed_product", frob(ab @ np.kron(c, d) - rhs), frob(rhs))
        a1 = a + (n + 1.0) * np.eye(n)
        b1 = b + (m + 1.0) * np.eye(m)
        inv_big = core.lu_solve(np.kron(a1, b1), np.eye(n * m))
        inv_ab = np.kron(core.lu_solve(a1, np.eye(n)), core.lu_solve(b1, np.eye(m)))
        note("inverse", frob(inv_big - inv_ab), frob(inv_big))
        sa = 0.5 * (a + a.T)
        sb = 0.5 * (b + b.T)
        dec_a = core.jacobi_eigen(sa)
        dec_b = core.jacobi_eigen(sb)
        qq = np.kron(dec_a.q, dec_b.q)
        note("orthogonality", frob(qq.T @ qq - np.eye(n * m)), math.sqrt(n * m))
        rhs_d = core.det(a) ** m * core.det(b) ** n
        note("determinant", abs(core.det(ab) - rhs_d), abs(rhs_d))
        tr = float(np.trace(a)) * float(np.trace(b))
        note("trace", abs(float(np.trace(ab)) - tr), abs(tr))
        products = np.sort(np.outer(dec_a.lam, dec_b.lam).ravel())
        direct = np.sort(core.jacobi_eigen(np.kron(sa, sb)).lam)
        note("eigenpairs", float(np.max(np.abs(products - direct))),
             float(np.max(np.abs(products))))
    return worst


class TestIdentitySuite:
    def test_all_residuals_small(self):
        worst = kron.kron_identity_suite(seed=0, trials=50)
        assert set(worst) == set(kron.KRON_IDENTITIES)
        for name, residual in worst.items():
            assert residual <= 1e-10, f"{name}: {residual}"

    def test_deterministic_in_seed(self):
        assert kron.kron_identity_suite(seed=7, trials=5) == \
            kron.kron_identity_suite(seed=7, trials=5)

    def test_a_size_that_occurs_once_is_decomposed_as_a_matrix(self, monkeypatch):
        """Sizes 2 (the elementwise regime) and 6 (stacked products) occur
        often enough to go as stacks; 3, with one member fewer than its
        regime's threshold, and 8, which occurs once, go as 2-D calls.
        Every member has the bits of its own call."""
        few = kron._STACK_MIN["jacobi_eigen"]
        rng = np.random.default_rng(3)
        sizes = [2, 3] * (few - 1) + [2, 6, 8, 6]
        mats = [0.5 * (r + r.T) for r in (rng.standard_normal((n, n)) for n in sizes)]
        shapes = []
        jacobi_eigen = core.jacobi_eigen
        monkeypatch.setattr(core, "jacobi_eigen",
                            lambda s: shapes.append(np.shape(s)) or jacobi_eigen(s))
        decs = kron._by_size(mats, "jacobi_eigen")
        assert shapes == [(few, 2, 2)] + [(3, 3)] * (few - 1) + [(2, 6, 6), (8, 8)]
        for m, dec in zip(mats, decs):
            own = jacobi_eigen(m)
            assert (dec.q.tobytes(), dec.lam.tobytes()) == (own.q.tobytes(), own.lam.tobytes())

    @pytest.mark.parametrize("kernel", ["inverse", "det"])
    def test_lu_kernels_grouped_by_size(self, monkeypatch, kernel):
        """A size with _STACK_MIN[kernel] members goes as one stack, one
        with fewer as 2-D calls; each result is bitwise its own call, and the
        counts are those of one call per matrix."""
        few = kron._STACK_MIN[kernel]
        rng = np.random.default_rng(4)
        sizes = [3] * few + [5] * (few - 1) + [17] * few
        mats = [rng.standard_normal((n, n)) + n * np.eye(n) for n in sizes]
        name = "det" if kernel == "det" else "lu_solve"
        shapes = []
        original = getattr(core, name)
        monkeypatch.setattr(core, name,
                            lambda a, *b: shapes.append(np.shape(a)) or original(a, *b))
        with counting.tally() as together:
            got = kron._by_size(mats, kernel)
        with counting.tally() as alone:
            own = [original(m) if kernel == "det" else original(m, np.eye(len(m))) for m in mats]
        assert shapes == [(few, 3, 3)] + [(5, 5)] * (few - 1) + [(few, 17, 17)]
        assert together == alone
        assert [np.float64(g).tobytes() for g in got] == [np.float64(o).tobytes() for o in own]
        if kernel == "det":
            assert all(type(g) is float for g in got)

    @pytest.mark.parametrize("trials", [4, 7, 12, 50])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_trial_reference(self, seed, trials):
        """Running every trial's kernels in one call per size changes no
        residual and no count: the dicts are equal float for float."""
        with counting.tally() as together:
            worst = kron.kron_identity_suite(seed=seed, trials=trials)
        with counting.tally() as alone:
            reference = _per_trial_suite(seed, trials)
        assert worst == reference
        assert together == alone

"""Tests for the dense/tridiagonal linear algebra substrate.

numpy.linalg serves as the reference oracle throughout; the routines under
test never call it themselves.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matderiv import core, counting, scalarfn as sf
from matderiv.forward import Dual
from matderiv.errors import (
    ContractError,
    ConvergenceError,
    ShapeError,
    SingularMatrixError,
)


def _random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _in_both_regimes(monkeypatch, cut, f):
    """[f() with the Python-float regime forced, f() with the array regime
    forced], by setting the module constant ``cut`` above and below every n."""
    out = []
    for value in (1 << 30, 0):
        monkeypatch.setattr(core, cut, value)
        out.append(f())
    return out


class TestShapeHelpers:
    def test_as_vector_accepts_lists(self):
        v = core.as_vector([1, 2, 3])
        assert v.dtype == float and v.shape == (3,)

    def test_as_vector_rejects_matrices(self):
        with pytest.raises(ShapeError):
            core.as_vector(np.zeros((2, 2)))

    def test_as_vector_rejects_nan(self):
        with pytest.raises(ContractError):
            core.as_vector([1.0, np.nan])

    def test_as_matrix_rejects_vectors(self):
        with pytest.raises(ShapeError):
            core.as_matrix(np.zeros(3))

    def test_as_square_rejects_rectangular(self):
        with pytest.raises(ShapeError):
            core.as_square(np.zeros((2, 3)))

    def test_frob_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 6))
        assert core.frob(a) == pytest.approx(np.linalg.norm(a), rel=1e-15)


class TestCountedArithmetic:
    def test_matmul_value_and_count(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        with counting.tally() as c:
            prod = core.matmul(a, b)
        np.testing.assert_allclose(prod, a @ b, rtol=1e-15)
        assert c.flops == 2 * 3 * 4 * 5

    def test_matvec_value_and_count(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 4))
        x = rng.standard_normal(4)
        with counting.tally() as c:
            y = core.matvec(a, x)
        np.testing.assert_allclose(y, a @ x, rtol=1e-15)
        assert c.flops == 2 * 3 * 4

    def test_dot_value_and_count(self):
        with counting.tally() as c:
            s = core.dot([1.0, 2.0], [3.0, 4.0])
        assert s == 11.0
        assert c.flops == 4

    def test_dimension_mismatches_raise(self):
        with pytest.raises(ShapeError):
            core.matmul(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            core.matvec(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ShapeError):
            core.dot(np.zeros(2), np.zeros(3))

    def test_nested_tallies_are_independent(self):
        with counting.tally() as outer:
            core.dot([1.0], [1.0])
            with counting.tally() as inner:
                core.dot([1.0, 2.0], [1.0, 2.0])
        assert inner.flops == 4
        assert outer.flops == 2 + 4

    def test_empty_nested_tallies_exit_by_identity(self):
        """Two tallies opened with nothing counted between them compare
        equal; leaving the inner one must still pop the inner one."""
        with counting.tally() as outer:
            with counting.tally() as inner:
                pass
            core.dot([1.0], [1.0])
        assert inner.flops == 0
        assert outer.flops == 2

    def test_no_tally_is_a_noop(self):
        core.dot([1.0], [1.0])  # must not raise without an active tally


class TestTridiagSym:
    def test_densify_round_trip(self):
        t = core.TridiagSym(diag=[2.0, 3.0, 4.0], offdiag=[1.0, -1.0])
        dense = t.densify()
        expected = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, -1.0], [0.0, -1.0, 4.0]])
        np.testing.assert_array_equal(dense, expected)

    def test_norm_matches_dense_frobenius(self):
        rng = np.random.default_rng(3)
        t = core.TridiagSym(diag=rng.standard_normal(7),
                            offdiag=rng.standard_normal(6))
        assert t.norm() == pytest.approx(np.linalg.norm(t.densify()), rel=1e-14)

    def test_band_length_contract(self):
        with pytest.raises(ShapeError):
            core.TridiagSym(diag=[1.0, 2.0], offdiag=[1.0, 2.0])
        with pytest.raises(ShapeError):
            core.TridiagSym(diag=[], offdiag=[])


class TestLU:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_solve_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        np.testing.assert_allclose(core.lu_solve(a, b), np.linalg.solve(a, b),
                                   rtol=1e-10, atol=1e-12)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(11)
        a = _random_spd(rng, 4)
        b = rng.standard_normal((4, 3))
        np.testing.assert_allclose(core.lu_solve(a, b), np.linalg.solve(a, b),
                                   rtol=1e-10, atol=1e-12)

    def test_factorization_reconstructs(self):
        """Packed LU satisfies A[perm] == L @ U."""
        rng = np.random.default_rng(12)
        a = rng.standard_normal((5, 5))
        lu, perm, sign = core.lu_factor(a)
        low = np.tril(lu, -1) + np.eye(5)
        up = np.triu(lu)
        np.testing.assert_allclose(low @ up, a[perm], rtol=1e-12, atol=1e-13)
        assert sign in (1.0, -1.0)

    def test_singular_matrix_raises_with_step(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError) as err:
            core.lu_factor(a)
        assert err.value.pivot_index == 1

    def test_solve_counts_one_solve_event(self):
        rng = np.random.default_rng(13)
        a = _random_spd(rng, 4)
        with counting.tally() as c:
            core.lu_solve(a, rng.standard_normal(4))
        assert c.solves == 1
        assert c.flops > 0

    def test_flop_count_closed_form(self):
        """The closed form is the per-step sum of r + 2 r^2 it replaced."""
        for n in range(301):
            assert core._lu_factor_flops(n) == sum(r + 2 * r * r for r in range(n))
        with counting.tally() as c:
            core.lu_factor(_random_spd(np.random.default_rng(14), 7))
        assert c.flops == core._lu_factor_flops(7)

    def test_pivoting_handles_zero_leading_entry(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(core.lu_solve(a, np.array([2.0, 3.0])),
                                   np.array([3.0, 2.0]), rtol=1e-15)

    @pytest.mark.parametrize("rhs, error", [
        (1.0, ShapeError),
        (np.ones((2, 1, 1)), ShapeError),
        ([np.nan, 1.0], ContractError),
        ([np.inf, 1.0], ContractError),
    ])
    def test_bad_rhs_raises_typed_error(self, rhs, error):
        with pytest.raises(error):
            core.lu_solve(np.eye(2), rhs)


def _lu_outputs(a, b):
    """Every LU output for (a, b) as comparable values and bytes: the
    zero-tolerance elimination, det, slogdet, and lu_solve_pivots or the
    pivot_index it raises."""
    # overflowing eliminations warn in the array regime only
    with np.errstate(all="ignore"):
        lu, perm, sign, k = core._eliminate(a, 0.0)
        out = [lu.shape, lu.tobytes(), perm.dtype, perm.tobytes(), sign, k,
               np.float64(core.det(a)).tobytes(), np.array(core.slogdet(a)).tobytes()]
        try:
            x, sign, piv = core.lu_solve_pivots(a, b)
            out += [x.shape, x.tobytes(), sign, piv.tobytes()]
        except SingularMatrixError as err:
            out.append(err.pivot_index)
    return out


class TestLURegimes:
    """The Python-float and array regimes of the elimination and the
    substitution give bitwise-equal results at every n up to just above the
    cut."""

    @pytest.mark.parametrize("n", range(1, core.LU_SCALAR_MAX_N + 2))
    def test_bitwise_equal(self, monkeypatch, n):
        rng = np.random.default_rng(90 + n)
        dup = rng.integers(-3, 4, (n, n)).astype(float)
        dup[-1] = dup[0]
        zero_col = rng.standard_normal((n, n))
        zero_col[:, n // 2] = 0.0
        # entries near the float maximum: the elimination overflows to inf
        # and NaN, where np.argmax's pivot is the first NaN
        overflow = rng.choice([-1.7e308, 1.7e308], (n, n))
        cases = [
            rng.standard_normal((n, n)),
            rng.choice([-1.0, 1.0], (n, n)),       # pivot ties in every column
            dup,                                   # exactly singular
            zero_col,                              # det 0.0, slogdet (0, -inf)
            overflow,
        ]
        for a in cases:
            for b in (rng.standard_normal(n), rng.standard_normal((n, n))):
                scalar, array = _in_both_regimes(monkeypatch, "LU_SCALAR_MAX_N",
                                                 lambda: _lu_outputs(a, b))
                assert scalar == array
        assert core.det(zero_col) == 0.0
        assert core.slogdet(zero_col) == (0.0, -np.inf)
        if n >= 2:
            assert core.det(dup) == 0.0
        if n >= 4:
            with np.errstate(all="ignore"):
                assert np.isnan(core._eliminate(overflow, 0.0)[0]).any()

    def test_zero_pivot_divides_out(self, monkeypatch):
        """A factorization with a zero pivot (one lu_factor never returns)
        gives +-inf as IEEE division does in both regimes, not
        ZeroDivisionError."""
        lu = np.array([[2.0, 1.0], [0.5, 0.0]])
        with np.errstate(divide="ignore"):
            got = _in_both_regimes(monkeypatch, "LU_SCALAR_MAX_N",
                                   lambda: core.lu_solve_factored(lu, np.arange(2), [1.0, 1.0]))
        for x in got:
            assert x.tolist() == [-np.inf, np.inf]

    def test_wide_rhs_takes_the_array_regime(self, monkeypatch):
        """More right-hand-side numbers than 2 * LU_SCALAR_MAX_N: the
        substitution runs on arrays, with the same bits."""
        rng = np.random.default_rng(94)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 2 * core.LU_SCALAR_MAX_N))
        lu, perm, _ = core.lu_factor(a)
        monkeypatch.setattr(core, "_substitute_scalar", None)
        wide = core.lu_solve_factored(lu, perm, b)
        np.testing.assert_allclose(a @ wide, b, atol=1e-12)


class TestDet:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(20 + n)
        a = rng.standard_normal((n, n))
        assert core.det(a) == pytest.approx(np.linalg.det(a), rel=1e-10)

    def test_singular_gives_zero(self):
        assert core.det(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0.0

    def test_counts_nothing(self):
        a = np.random.default_rng(24).standard_normal((5, 5))
        with counting.tally() as c:
            core.det(a)
        assert c == counting.Counter()

    def test_triangular_is_diagonal_product(self):
        a = np.triu(np.arange(1.0, 10.0).reshape(3, 3))
        assert core.det(a) == pytest.approx(1.0 * 5.0 * 9.0, rel=1e-14)

    def test_permutation_sign(self):
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert core.det(p) == pytest.approx(-1.0, rel=1e-15)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_product_rule_random(self, seed):
        """det(AB) == det(A) det(B) for random 3x3 pairs."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        assert core.det(a @ b) == pytest.approx(core.det(a) * core.det(b),
                                                rel=1e-8, abs=1e-10)

    def test_overflow_is_inf_without_warning(self):
        """log|det| = 1060 at n = 200 is beyond the float range: +-inf with
        no overflow warning from the pivot product."""
        rng = np.random.default_rng(25)
        a = rng.standard_normal((200, 200)) + 200.0 * np.eye(200)
        sign_ref, log_ref = np.linalg.slogdet(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = core.det(a)
            sign, logabs = core.slogdet(a)
        assert log_ref > np.log(np.finfo(float).max)
        assert d == sign_ref * np.inf
        assert sign == sign_ref
        assert logabs == pytest.approx(log_ref, rel=1e-12)

    def test_partial_overflow_keeps_a_representable_value(self):
        """Pivots 1e200, 1e200, 1e-200: the running product overflows, but
        the determinant 1e200 is representable."""
        a = np.diag([1e200, -1e200, 1e-200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = core.det(a)
        assert d == pytest.approx(-1e200, rel=1e-12)

    def test_partial_underflow_keeps_a_representable_value(self):
        """Pivots 1e-200, 1e-200, 1e300: the running product underflows to
        0, but the determinant 1e-100 is representable."""
        assert core.det(np.diag([1e-200, 1e-200, 1e300])) == pytest.approx(
            1e-100, rel=1e-12, abs=0.0)

    def test_subnormal_partial_product_goes_through_logs(self):
        """Pivots 1e-160, 1e-160, 1e200: the running product 1e-320 is
        subnormal and has lost digits that the last pivot would scale back
        into the normal result 1e-120."""
        a = np.diag([1e-160, 1e-160, 1e200])
        assert core.det(a) == pytest.approx(np.linalg.det(a), rel=1e-14, abs=0.0)

    def test_det_times_keeps_a_normal_product(self):
        x = np.array([[0.1, -3.0], [0.0, 7.0]])
        got = core.det_times(-1.0, np.array([2.0, 3.0, 0.7]), x)
        assert got.tobytes() == ((-1.0 * 2.0 * 3.0 * 0.7) * x).tobytes()

    def test_det_times_scales_in_log_space(self):
        """Pivots 1e200, 1e200, 1e-250: det = 1e150 after a partial
        overflow.  Entries come out finite, zero or +-inf as the true
        values are, with no warning."""
        x = np.array([2e100, -1e200, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = core.det_times(-1.0, np.array([1e200, 1e200, 1e-250]), x)
        assert got[0] == pytest.approx(-2e250, rel=1e-12)
        assert got[1] == np.inf and got[2] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 20])
    def test_slogdet_matches_numpy(self, n):
        rng = np.random.default_rng(30 + n)
        a = rng.standard_normal((n, n))
        sign, logabs = core.slogdet(a)
        sign_ref, log_ref = np.linalg.slogdet(a)
        assert sign == sign_ref
        assert logabs == pytest.approx(log_ref, rel=1e-12, abs=1e-12)
        assert sign * np.exp(logabs) == pytest.approx(core.det(a), rel=1e-12)

    def test_slogdet_of_singular(self):
        assert core.slogdet(np.array([[1.0, 2.0], [2.0, 4.0]])) == (0.0, -np.inf)


class TestThomas:
    def _instance(self, rng, n):
        return core.TridiagSym(diag=3.0 + rng.uniform(0, 1, n),
                               offdiag=rng.uniform(-1, 1, n - 1))

    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_matches_dense_solve(self, n):
        rng = np.random.default_rng(30 + n)
        t = self._instance(rng, n)
        b = rng.standard_normal(n)
        np.testing.assert_allclose(core.thomas_solve(t, b),
                                   np.linalg.solve(t.densify(), b),
                                   rtol=1e-10, atol=1e-12)

    def test_single_equation(self):
        t = core.TridiagSym(diag=[4.0], offdiag=[])
        np.testing.assert_allclose(core.thomas_solve(t, [8.0]), [2.0])

    def test_flops_linear_in_n(self):
        rng = np.random.default_rng(31)
        counts = {}
        for n in (100, 200):
            t = self._instance(rng, n)
            with counting.tally() as c:
                core.thomas_solve(t, rng.standard_normal(n))
            counts[n] = c.flops
        ratio = counts[200] / counts[100]
        assert 1.8 <= ratio <= 2.3
        assert counts[100] == 8 * 100 - 7

    def test_counts_one_solve(self):
        t = core.TridiagSym(diag=[2.0, 2.0], offdiag=[1.0])
        with counting.tally() as c:
            core.thomas_solve(t, [1.0, 1.0])
        assert c.solves == 1

    def test_zero_band_raises(self):
        t = core.TridiagSym(diag=[0.0, 1.0], offdiag=[1.0])
        with pytest.raises(SingularMatrixError):
            core.thomas_solve(t, [1.0, 1.0])

    def test_rhs_length_contract(self):
        t = core.TridiagSym(diag=[2.0, 2.0], offdiag=[0.5])
        with pytest.raises(ShapeError):
            core.thomas_solve(t, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("diag, offdiag, row", [
        ([0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 0),
        # row 1 eliminates to 1 - 1 * 1 = 0
        ([1.0, 1.0, 5.0, 1.0], [1.0, 0.5, 0.5], 1),
        # rows 0..2 stay at 2, row 3 eliminates to 0.5 - 0.5 * 1 = 0
        ([2.0, 2.0, 2.0, 0.5], [0.0, 0.0, 1.0], 3),
        ([0.0], [], 0),
    ])
    def test_zero_pivot_reports_its_row(self, diag, offdiag, row):
        t = core.TridiagSym(diag=diag, offdiag=offdiag)
        with pytest.raises(SingularMatrixError) as err:
            core.thomas_solve(t, np.ones(len(diag)))
        assert err.value.pivot_index == row

    def test_inputs_unchanged(self):
        rng = np.random.default_rng(32)
        t = self._instance(rng, 30)
        b = rng.standard_normal(30)
        before = (t.diag.copy(), t.offdiag.copy(), b.copy())
        core.thomas_solve(t, b)
        for now, then in zip((t.diag, t.offdiag, b), before):
            np.testing.assert_array_equal(now, then)

    def test_strided_and_read_only_inputs(self):
        """A strided rhs and read-only bands solve bitwise like contiguous
        copies."""
        rng = np.random.default_rng(33)
        t = self._instance(rng, 25)
        wide = rng.standard_normal(75)
        strided = wide[::3]
        assert not strided.flags.c_contiguous
        diag, offdiag = t.diag.copy(), t.offdiag.copy()
        diag.flags.writeable = offdiag.flags.writeable = False
        got = core.thomas_solve(core.TridiagSym(diag, offdiag), strided)
        ref = core.thomas_solve(core.TridiagSym(diag.copy(), offdiag.copy()),
                                strided.copy())
        assert got.tobytes() == ref.tobytes()


def _einsum_jacobi_reference(s):
    """The Jacobi round as the matrix-product round replaced it: the rotations
    of a round applied as batched 2x2 einsum updates of the column pairs of
    the stacked [A; Q], then of the row pairs of A, on the same schedule,
    rotation formula, stopping test, ordering and column signs."""
    n = s.shape[0]
    aq = np.concatenate((0.5 * (s + s.T), np.eye(n)))
    a = aq[:n]
    diag = a.diagonal()
    off_tol = core.JACOBI_OFF_RTOL * core.frob(s)
    for _ in range(core.JACOBI_MAX_SWEEPS):
        if core.frob(a - np.diag(diag)) <= off_tol:
            break
        for pr in core._jacobi_schedule(n):
            p, r = pr
            apr2 = 2.0 * a[p, r]
            d = diag[r] - diag[p]
            t = apr2 / np.copysign(
                np.fmax(np.abs(d) + np.hypot(d, apr2), core._TINY), d)
            c = 1.0 / np.hypot(t, 1.0)
            sn = t * c
            rot = np.array([[c, sn], [-sn, c]])
            aq[:, pr] = np.einsum("xki,kji->xji", aq[:, pr], rot)
            a.T[:, pr] = np.einsum("xki,kji->xji", a.T[:, pr], rot)
            a[pr, pr[::-1]] = 0.0
    else:
        raise ConvergenceError("reference Jacobi did not converge")
    order = np.argsort(diag, kind="stable")
    q = aq[n:, order]
    lead = q[np.argmax(np.abs(q), axis=0), np.arange(n)]
    return diag[order], np.where(lead < 0.0, -q, q)


def _gapped_symmetric(rng, n):
    """Random orthogonal similarity of a spectrum whose gaps are >= 0.5."""
    lam = np.cumsum(0.5 + rng.uniform(0.0, 1.0, n)) - 0.4 * n
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = (q * lam) @ q.T
    return 0.5 * (s + s.T)


class TestJacobiEigen:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 31, 60])
    def test_agrees_with_einsum_round(self, n):
        """Tolerances fixed beforehand: eigenvalues within
        1e-13 max(||S||_F, 1), sign-fixed eigenvectors within 1e-10."""
        rng = np.random.default_rng(70 + n)
        for _ in range(3):
            s = _gapped_symmetric(rng, n)
            dec = core.jacobi_eigen(s)
            lam_ref, q_ref = _einsum_jacobi_reference(s)
            assert np.max(np.abs(dec.lam - lam_ref)) <= 1e-13 * max(core.frob(s), 1.0)
            assert np.max(np.abs(dec.q - q_ref)) <= 1e-10

    @pytest.mark.parametrize("n", range(1, core.JACOBI_SCALAR_MAX_N + 2))
    def test_regimes_agree(self, monkeypatch, n):
        """The Python-float rounds and the matrix-product rounds, each forced
        on either side of the cut, within test_agrees_with_einsum_round's
        tolerances."""
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            s = _gapped_symmetric(rng, n)
            scalar, array = _in_both_regimes(monkeypatch, "JACOBI_SCALAR_MAX_N",
                                             lambda: core.jacobi_eigen(s))
            assert np.max(np.abs(scalar.lam - array.lam)) <= 1e-13 * max(core.frob(s), 1.0)
            assert np.max(np.abs(scalar.q - array.q)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_power_of_two_scaling_is_bitwise(self, n):
        """jacobi_eigen(2 S) has the q of S bit for bit and eigenvalues
        exactly 2 lam: the kron identity suite relies on it."""
        rng = np.random.default_rng(80 + n)
        for _ in range(50):
            raw = rng.uniform(-1.0, 1.0, (n, n))
            half = core.jacobi_eigen(0.5 * (raw + raw.T))
            full = core.jacobi_eigen(raw + raw.T)
            assert full.q.tobytes() == half.q.tobytes()
            assert full.lam.tobytes() == (2.0 * half.lam).tobytes()

    def test_plan_holds_only_indices(self):
        """The cached plan keeps flat indices, no float matrix per round."""
        n = 60
        plan = core._jacobi_plan(n)
        assert len(plan) == n - 1
        assert all(idx.dtype.kind == "i" for idx in plan)
        assert sum(idx.nbytes for idx in plan) <= 16 * n * n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16, 31, 60])
    def test_matches_numpy_eigh(self, n):
        rng = np.random.default_rng(40 + n)
        raw = rng.standard_normal((n, n))
        s = 0.5 * (raw + raw.T)
        dec = core.jacobi_eigen(s)
        np.testing.assert_allclose(dec.lam, np.linalg.eigvalsh(s),
                                   rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 31])
    def test_round_robin_covers_every_pair_once(self, n):
        """Each round pairs disjoint indices; a sweep visits every (p, r),
        p < r, exactly once in n - 1 rounds (even n) or n rounds (odd n)."""
        rounds = core._jacobi_schedule(n)
        assert len(rounds) == (n - 1 if n % 2 == 0 else n)
        seen = []
        for p, r in rounds:
            assert np.all(p < r)
            assert len(set(p) | set(r)) == 2 * len(p)
            seen += list(zip(p.tolist(), r.tolist()))
        assert sorted(seen) == [(p, r) for p in range(n) for r in range(p + 1, n)]

    def test_zero_pair_with_equal_diagonal(self):
        """a_pr = 0 with a_pp = a_rr (d = 0) must give the identity
        rotation, not 0/0."""
        s = np.array([[2.0, 0.0, 1.0, 0.0],
                      [0.0, 2.0, 0.0, 0.5],
                      [1.0, 0.0, 2.0, 0.0],
                      [0.0, 0.5, 0.0, 2.0]])
        dec = core.jacobi_eigen(s)
        assert np.all(np.isfinite(dec.q))
        np.testing.assert_allclose(dec.lam, np.linalg.eigvalsh(s),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dec.q @ np.diag(dec.lam) @ dec.q.T, s,
                                   atol=1e-12)

    def test_tiny_coupling_next_to_large_diagonal_gap(self):
        """Pair (0, 2) has |d / (2 a_pr)| = 5e12: its rotation angle is
        about a_pr / d = 1e-13, which must survive in the eigenvectors."""
        s = np.array([[1.0, 0.5, 1e-10],
                      [0.5, 2.0, 0.0],
                      [1e-10, 0.0, 1e3]])
        dec = core.jacobi_eigen(s)
        lam_ref, q_ref = np.linalg.eigh(s)
        np.testing.assert_allclose(dec.lam, lam_ref, rtol=1e-14, atol=1e-12)
        np.testing.assert_allclose(np.abs(dec.q), np.abs(q_ref),
                                   rtol=1e-6, atol=1e-16)
        assert abs(dec.q[0, 2]) == pytest.approx(1e-13, rel=1e-2, abs=0.0)

    def test_sweep_budget_exhausted_raises(self, monkeypatch):
        """Above the Jacobi cut (n = 6, matrix products) and below it
        (n = 3, Python floats)."""
        monkeypatch.setattr(core, "JACOBI_MAX_SWEEPS", 1)
        rng = np.random.default_rng(45)
        for n in (6, 3):
            raw = rng.standard_normal((n, n))
            with pytest.raises(ConvergenceError):
                core.jacobi_eigen(0.5 * (raw + raw.T))

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(41)
        raw = rng.standard_normal((6, 6))
        dec = core.jacobi_eigen(0.5 * (raw + raw.T))
        assert np.all(np.diff(dec.lam) >= 0)

    def test_orthogonality_and_reconstruction(self):
        rng = np.random.default_rng(42)
        raw = rng.standard_normal((7, 7))
        s = 0.5 * (raw + raw.T)
        dec = core.jacobi_eigen(s)
        np.testing.assert_allclose(dec.q.T @ dec.q, np.eye(7), atol=1e-12)
        np.testing.assert_allclose(dec.q @ np.diag(dec.lam) @ dec.q.T, s,
                                   atol=1e-11)

    def test_column_sign_convention(self):
        """Largest-magnitude entry of each eigenvector column is positive."""
        rng = np.random.default_rng(43)
        raw = rng.standard_normal((5, 5))
        dec = core.jacobi_eigen(0.5 * (raw + raw.T))
        for j in range(5):
            i = int(np.argmax(np.abs(dec.q[:, j])))
            assert dec.q[i, j] > 0

    def test_deterministic_output(self):
        rng = np.random.default_rng(44)
        raw = rng.standard_normal((5, 5))
        s = 0.5 * (raw + raw.T)
        d1, d2 = core.jacobi_eigen(s), core.jacobi_eigen(s)
        np.testing.assert_array_equal(d1.lam, d2.lam)
        np.testing.assert_array_equal(d1.q, d2.q)

    def test_diagonal_input_is_exact(self):
        dec = core.jacobi_eigen(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(dec.lam, [-1.0, 2.0, 3.0], atol=1e-14)

    def test_zero_matrix(self):
        dec = core.jacobi_eigen(np.zeros((3, 3)))
        np.testing.assert_array_equal(dec.lam, np.zeros(3))
        np.testing.assert_array_equal(dec.q, np.eye(3))

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError):
            core.jacobi_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestJacobiStack:
    """A (k, n, n) stack gives each member's q and lam bitwise as its own
    call does, in either regime, whichever sweep each member stops at."""

    @staticmethod
    def _assert_members_are_single_calls(stack):
        dec = core.jacobi_eigen(stack)
        k, n = stack.shape[:2]
        assert dec.q.shape == (k, n, n) and dec.lam.shape == (k, n)
        for member, q, lam in zip(stack, dec.q, dec.lam):
            alone = core.jacobi_eigen(member)
            assert q.tobytes() == alone.q.tobytes()
            assert lam.tobytes() == alone.lam.tobytes()

    @staticmethod
    def _symmetric_stack(rng, k, n):
        raw = rng.uniform(-1.0, 1.0, (k, n, n))
        return 0.5 * (raw + raw.transpose(0, 2, 1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12, 16])
    def test_random_stacks(self, n):
        rng = np.random.default_rng(200 + n)
        for k in (1, 2, 7):
            self._assert_members_are_single_calls(self._symmetric_stack(rng, k, n))

    @pytest.mark.parametrize("n", [3, 8])
    def test_members_stop_at_different_sweeps(self, n):
        """A diagonal member stops before the first round, beside dense
        members and members scaled by 1e+-8, each stopping against its own
        norm."""
        stack = self._symmetric_stack(np.random.default_rng(300 + n), 5, n)
        stack[1] = np.diag(np.diag(stack[1]))
        stack[3] *= 1e8
        stack[4] *= 1e-8
        self._assert_members_are_single_calls(stack)

    @pytest.mark.parametrize("n", [4, 6])
    def test_zero_and_scaled_members(self, n):
        """A zero member gives (I, 0); members past 2^(+-400) are swept
        scaled, as alone."""
        stack = self._symmetric_stack(np.random.default_rng(400 + n), 4, n)
        stack[0] = 0.0
        stack[2] = np.ldexp(stack[2], 500)
        stack[3] = np.ldexp(stack[3], -500)
        dec = core.jacobi_eigen(stack)
        assert dec.lam[0].tobytes() == np.zeros(n).tobytes()
        assert dec.q[0].tobytes() == np.eye(n).tobytes()
        self._assert_members_are_single_calls(stack)

    def test_two_dimensional_input_is_one_matrix(self):
        """A matrix keeps its (n, n) and (n,) results, bitwise those of a
        stack holding it."""
        s = self._symmetric_stack(np.random.default_rng(500), 3, 7)
        for member in s:
            dec = core.jacobi_eigen(member)
            assert dec.q.shape == (7, 7) and dec.lam.shape == (7,)
        self._assert_members_are_single_calls(s[1:2])

    def test_empty_stack(self):
        dec = core.jacobi_eigen(np.zeros((0, 3, 3)))
        assert dec.q.shape == (0, 3, 3) and dec.lam.shape == (0, 3)

    @pytest.mark.parametrize("n", [3, 6])
    def test_asymmetric_member_named(self, n):
        stack = self._symmetric_stack(np.random.default_rng(600 + n), 4, n)
        stack[2, 0, 1] += 0.5
        with pytest.raises(ContractError, match="stack member 2"):
            core.jacobi_eigen(stack)

    def test_non_finite_member_named(self):
        stack = self._symmetric_stack(np.random.default_rng(700), 3, 4)
        stack[1, 2, 2] = np.nan
        with pytest.raises(ContractError, match="stack member 1"):
            core.jacobi_eigen(stack)

    @pytest.mark.parametrize("n", [3, 6])
    def test_unconverged_member_named(self, monkeypatch, n):
        """With one sweep allowed, the diagonal member 0 stops and the dense
        member 1 is the first left above its tolerance."""
        monkeypatch.setattr(core, "JACOBI_MAX_SWEEPS", 1)
        stack = self._symmetric_stack(np.random.default_rng(800 + n), 3, n)
        stack[0] = np.diag(np.diag(stack[0]))
        with pytest.raises(ConvergenceError, match="stack member 1"):
            core.jacobi_eigen(stack)

    @pytest.mark.parametrize("shape", [(2, 2, 3, 3), (2, 3, 4), (3,), ()])
    def test_other_shapes_rejected(self, shape):
        with pytest.raises(ShapeError):
            core.jacobi_eigen(np.ones(shape))


class TestNormRange:
    """``frob`` stays accurate where the plain sum of squares overflows or
    underflows, and so do the tolerances scaled by it (numpy still warns of
    the overflowing squares, which these tests silence)."""

    @pytest.mark.parametrize("scale", [1e-200, 1e-170, 1e160, 1e200])
    def test_frob_far_from_one(self, scale):
        a = scale * np.array([[3.0, 0.0], [0.0, 4.0]])
        with np.errstate(over="ignore"):
            assert core.frob(a) == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)

    def test_frob_keeps_zero_inf_and_nan(self):
        assert core.frob(np.zeros((2, 2))) == 0.0
        assert core.frob(np.zeros(0)) == 0.0
        assert core.frob([np.inf, 1.0]) == np.inf
        assert np.isnan(core.frob([np.nan, np.inf]))
        with np.errstate(over="ignore"):
            assert core.frob([1.7e308, 1.7e308]) == np.inf

    def test_lu_solve_with_large_entries(self):
        """A well-conditioned matrix with entries past 1e154 failed its first
        pivot test against an inf norm."""
        a = 1e155 * np.array([[2.0, 1.0], [1.0, 3.0]])
        with np.errstate(over="ignore"):
            x = core.lu_solve(a, [1.0, 1.0])
        np.testing.assert_allclose(x, np.linalg.solve(a, [1.0, 1.0]), rtol=1e-14)

    def test_lu_pivot_test_stays_relative_at_large_norms(self):
        """diag(1e155, 1) has condition number 1e155, so its second pivot is
        singular to PIVOT_RTOL * ||A||_F; the first one, which an inf norm
        failed, passes."""
        with np.errstate(over="ignore"), pytest.raises(SingularMatrixError) as err:
            core.lu_solve(np.diag([1e155, 1.0]), [1.0, 1.0])
        assert err.value.pivot_index == 1

    @pytest.mark.parametrize("scale", [1e-200, 1e-170, 1e160, 1e200])
    def test_tridiag_norm_far_from_one(self, scale):
        """Its squares overflowed to an inf norm or underflowed to zero, and
        numpy warned of the overflow; the warning is an error here."""
        base = core.TridiagSym(diag=[2.0, -3.0, 2.0], offdiag=[1.0, 1.0])
        t = core.TridiagSym(diag=scale * base.diag, offdiag=scale * base.offdiag)
        assert t.norm() == pytest.approx(scale * base.norm(), rel=1e-15, abs=0.0)

    def test_tridiag_norm_of_zero_and_single_entry_bands(self):
        assert core.TridiagSym(diag=[0.0, 0.0], offdiag=[0.0]).norm() == 0.0
        assert core.TridiagSym(diag=[-1e200], offdiag=[]).norm() == 1e200

    def test_thomas_solve_with_large_entries(self):
        """1e155 times a well-conditioned band failed its first pivot test
        against an inf tolerance; it solves to 1e-155 times the solution of
        the unscaled band."""
        big = core.TridiagSym(diag=[2e155, 3e155, 2e155], offdiag=[1e155, 1e155])
        unit = core.TridiagSym(diag=[2.0, 3.0, 2.0], offdiag=[1.0, 1.0])
        b = np.array([1.0, 2.0, 4.0])
        np.testing.assert_allclose(core.thomas_solve(big, b),
                                   1e-155 * core.thomas_solve(unit, b), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("s", [
        pytest.param(np.array([[1e155, 1e154], [1e154, 1.0]]), id="2x2-1e155"),
        pytest.param(1e-170 * np.array([[2.0, 1.0], [1.0, 3.0]]), id="2x2-1e-170"),
        pytest.param(1e-170 * _gapped_symmetric(np.random.default_rng(5), 4), id="4x4-1e-170"),
        pytest.param(1e160 * _gapped_symmetric(np.random.default_rng(6), 3), id="3x3-1e160"),
        pytest.param(1e-170 * _gapped_symmetric(np.random.default_rng(7), 8), id="8x8-1e-170"),
        pytest.param(1e160 * _gapped_symmetric(np.random.default_rng(8), 8), id="8x8-1e160"),
    ])
    def test_jacobi_far_from_one(self, s):
        """Entries past 1e154 gave an inf norm, so the sweeps stopped at
        once; entries around 1e-170 gave a zero norm and zero eigenvalues."""
        with np.errstate(over="ignore"):
            dec = core.jacobi_eigen(s)
        ref = np.linalg.eigvalsh(s)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(dec.lam - ref)) <= 1e-13 * scale
        np.testing.assert_allclose(dec.q @ np.diag(dec.lam / scale) @ dec.q.T, s / scale,
                                   atol=1e-13)

    def test_jacobi_scaling_is_exact(self):
        """Swept as S / 2^e, a matrix and its power-of-two multiples give the
        same eigenvectors and exactly scaled eigenvalues."""
        s = _gapped_symmetric(np.random.default_rng(9), 4)
        base = core.jacobi_eigen(s)
        for e in (-600, 600):
            with np.errstate(over="ignore"):
                dec = core.jacobi_eigen(np.ldexp(s, e))
            np.testing.assert_array_equal(dec.lam, np.ldexp(base.lam, e))
            np.testing.assert_array_equal(dec.q, base.q)


class TestNewtonRoot:
    def test_scalar_square_root(self):
        root = core.newton_root(lambda xs: [xs[0] * xs[0] - 4.0], [3.0])
        np.testing.assert_allclose(root, [2.0], rtol=1e-12)

    def test_coupled_system(self):
        def f(xs):
            x, y = xs
            return [x * x + y * y - 4.0, x - y]

        root = core.newton_root(f, [1.0, 0.5])
        np.testing.assert_allclose(root, [np.sqrt(2.0), np.sqrt(2.0)],
                                   rtol=1e-12)

    def test_history_records_iterates(self):
        hist = []
        core.newton_root(lambda xs: [xs[0] * xs[0] - 4.0], [3.0], history=hist)
        assert len(hist) >= 2
        np.testing.assert_allclose(hist[0], [3.0])

    def test_quadratic_convergence(self):
        """Error roughly squares from one iterate to the next near the root."""
        hist = []
        core.newton_root(lambda xs: [xs[0] * xs[0] - 2.0], [1.5], history=hist)
        errs = [abs(h[0] - np.sqrt(2.0)) for h in hist]
        mid = [e for e in errs if 1e-12 < e < 1e-2]
        for e_prev, e_next in zip(mid, mid[1:]):
            assert e_next <= 10.0 * e_prev**2

    def test_max_iter_exhaustion(self):
        """exp has no root; each Newton step only walks x down by 1."""
        with pytest.raises(ConvergenceError) as err:
            core.newton_root(lambda xs: [sf.exp(xs[0])], [1.0], max_iter=8)
        assert err.value.last is not None

    def test_singular_jacobian(self):
        with pytest.raises(SingularMatrixError):
            core.newton_root(lambda xs: [xs[0] * xs[0] - 4.0], [0.0])

    def test_non_square_system_rejected(self):
        with pytest.raises(ShapeError):
            core.newton_root(lambda xs: [xs[0], xs[0]], [1.0])

    def test_residuals_run_on_python_floats(self):
        seen = set()
        core.newton_root(lambda xs: seen.update(map(type, xs)) or [xs[0] * xs[0] - 4.0], [3.0])
        assert seen - {Dual} == {float}  # Duals carry the Jacobian

    def test_residual_division_by_zero_raises(self):
        """As in float evaluation: ZeroDivisionError, not numpy's RuntimeWarning."""
        with pytest.raises(ZeroDivisionError):
            core.newton_root(lambda xs: [1.0 / xs[0] - 2.0], [0.0])

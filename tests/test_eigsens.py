"""Tests for symmetric eigenvalue/eigenvector perturbation theory.

numpy.linalg.eigh on perturbed matrices is the oracle: the first-order
routes are entries of ``rules.RULE_CHECKS``, judged against central
differences of numpy's eigh, and here the second-order expansion must leave
only an O(eps^3) remainder.
"""

import numpy as np
import pytest

from matderiv import core, eigsens
from matderiv.errors import (
    ContractError,
    DegenerateEigenvaluesError,
)


def _random_symmetric(rng, n, spread=True):
    raw = rng.standard_normal((n, n))
    s = 0.5 * (raw + raw.T)
    if spread:
        s += np.diag(np.arange(n, dtype=float))  # keeps eigenvalues apart
    return s


class TestDecompose:
    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        s = _random_symmetric(rng, 5)
        dec = eigsens.decompose(s)
        np.testing.assert_allclose(dec.q @ np.diag(dec.lam) @ dec.q.T, s,
                                   atol=1e-11)

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError):
            eigsens.decompose(np.array([[1.0, 2.0], [0.0, 3.0]]))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateEigenvaluesError):
            eigsens.decompose(np.eye(3))

    def test_symmetry_tested_once(self, monkeypatch):
        calls = []
        is_symmetric = core.is_symmetric
        monkeypatch.setattr(core, "is_symmetric",
                            lambda *args: calls.append(1) or is_symmetric(*args))
        eigsens.decompose(np.diag([1.0, 2.0, 3.0]))
        assert len(calls) == 1

    def test_min_gap(self):
        assert core.min_gap([3.0, 1.0, 1.5]) == pytest.approx(0.5)


class TestDLambda:
    def test_trace_identity(self):
        """Sum of first-order eigenvalue changes equals tr(dS) (similarity
        preserves the trace)."""
        rng = np.random.default_rng(2)
        s = _random_symmetric(rng, 6)
        ds = _random_symmetric(rng, 6, spread=False)
        dl = eigsens.dlambda(eigsens.decompose(s), ds)
        assert abs(np.sum(dl) - np.trace(ds)) <= 1e-12 * max(1.0, abs(np.trace(ds)))

    def test_diagonal_base_reads_diagonal(self):
        """Around diag(lam), the first-order change of lambda_i is just
        dS_ii."""
        lam = np.array([0.0, 1.0, 3.0])
        rng = np.random.default_rng(3)
        ds = _random_symmetric(rng, 3, spread=False)
        dec = eigsens.decompose(np.diag(lam))
        dl = eigsens.dlambda(dec, ds)
        np.testing.assert_allclose(np.sort(dl), np.sort(np.diag(ds)),
                                   atol=1e-12)

    def test_asymmetric_perturbation_rejected(self):
        rng = np.random.default_rng(4)
        dec = eigsens.decompose(_random_symmetric(rng, 3))
        with pytest.raises(ContractError):
            eigsens.dlambda(dec, np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]]))

    def test_size_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        dec = eigsens.decompose(_random_symmetric(rng, 3))
        with pytest.raises(ContractError):
            eigsens.dlambda(dec, np.zeros((2, 2)))


class TestOneErrorPerInput:
    @pytest.mark.parametrize("ds, error", [
        (np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
         ContractError),
        (np.zeros((2, 2)), ContractError),
        (np.diag([1.0, 2.0, 3.0]), DegenerateEigenvaluesError),
    ])
    def test_first_order_routes_agree(self, ds, error):
        """dlambda, perturbation and dq check dS before the gaps, alike."""
        dec = core.EigenDecomp(q=np.eye(3), lam=np.array([1.0, 1.0, 2.0]))
        for route in (eigsens.dlambda, eigsens.perturbation, eigsens.dq):
            with pytest.raises(error) as caught:
                route(dec, ds)
            assert type(caught.value) is error


class TestGradLambda:
    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(6)
        s = _random_symmetric(rng, 4)
        dec = eigsens.decompose(s)
        for i in range(4):
            g = eigsens.grad_lambda(dec, i)
            np.testing.assert_allclose(g, np.outer(dec.q[:, i], dec.q[:, i]),
                                       rtol=1e-13)
            assert np.trace(g) == pytest.approx(1.0, rel=1e-12)

    def test_inner_product_reproduces_dlambda(self):
        """<grad_lambda_i, dS>_F equals the i-th first-order change."""
        rng = np.random.default_rng(7)
        s = _random_symmetric(rng, 4)
        ds = _random_symmetric(rng, 4, spread=False)
        dec = eigsens.decompose(s)
        dl = eigsens.dlambda(dec, ds)
        for i in range(4):
            assert float(np.sum(eigsens.grad_lambda(dec, i) * ds)) == \
                pytest.approx(dl[i], rel=1e-11, abs=1e-13)

    def test_index_contract(self):
        rng = np.random.default_rng(8)
        dec = eigsens.decompose(_random_symmetric(rng, 3))
        with pytest.raises(IndexError):
            eigsens.grad_lambda(dec, 3)


class TestDq:
    def test_antisymmetry_of_rotation_coefficients(self):
        """Q^T dQ must be antisymmetric: eigenvector perturbations only
        rotate the orthonormal frame."""
        rng = np.random.default_rng(9)
        s = _random_symmetric(rng, 5)
        ds = _random_symmetric(rng, 5, spread=False)
        dec = eigsens.decompose(s)
        w = dec.q.T @ eigsens.dq(dec, ds)
        np.testing.assert_allclose(w + w.T, np.zeros((5, 5)), atol=1e-12)

    def test_reconstructs_perturbed_eigenvectors(self):
        """Q + h dQ matches the eigenvectors of S + h dS up to O(h^2),
        verified against a fresh eigendecomposition with matched column
        signs."""
        rng = np.random.default_rng(10)
        s = _random_symmetric(rng, 4)
        ds = _random_symmetric(rng, 4, spread=False)
        dec = eigsens.decompose(s)
        dq = eigsens.dq(dec, ds)
        errs = {}
        for h in (1e-4, 1e-5):
            fresh = eigsens.decompose(s + h * ds)
            q_pred = dec.q + h * dq
            # align fresh columns with the prediction's signs
            signs = np.sign(np.sum(fresh.q * q_pred, axis=0))
            errs[h] = np.max(np.abs(fresh.q * signs - q_pred))
        assert errs[1e-4] <= 5e-7                 # O(h^2) remainder
        assert errs[1e-5] <= errs[1e-4] / 50.0    # shrinks ~100x per decade

    def test_first_order_normalization(self):
        """Columns of Q + h dQ stay unit length to first order: the norm
        error is O(h^2)."""
        rng = np.random.default_rng(11)
        s = _random_symmetric(rng, 4)
        ds = _random_symmetric(rng, 4, spread=False)
        dec = eigsens.decompose(s)
        dq = eigsens.dq(dec, ds)
        h = 1e-5
        norms = np.linalg.norm(dec.q + h * dq, axis=0)
        np.testing.assert_allclose(norms, np.ones(4), atol=1e-9)


class TestPerturbationBundle:
    def test_consistent_with_individual_ops(self):
        rng = np.random.default_rng(12)
        s = _random_symmetric(rng, 5)
        ds = _random_symmetric(rng, 5, spread=False)
        dec = eigsens.decompose(s)
        bundle = eigsens.perturbation(dec, ds)
        np.testing.assert_allclose(bundle.dlambda, eigsens.dlambda(dec, ds),
                                   rtol=1e-13)
        np.testing.assert_allclose(dec.q @ bundle.qt_dq,
                                   eigsens.dq(dec, ds), rtol=1e-12,
                                   atol=1e-14)

    def test_qt_dq_antisymmetric(self):
        rng = np.random.default_rng(13)
        s = _random_symmetric(rng, 6)
        ds = _random_symmetric(rng, 6, spread=False)
        bundle = eigsens.perturbation(eigsens.decompose(s), ds)
        np.testing.assert_allclose(bundle.qt_dq, -bundle.qt_dq.T, atol=1e-13)


class TestSecondOrderTaylor:
    def test_remainder_is_cubic_in_eps(self):
        """Two-epsilon ratio: shrinking eps tenfold shrinks the expansion
        error ~1000x."""
        lam = np.array([0.0, 1.0, 2.5, 4.0])
        rng = np.random.default_rng(14)
        e = _random_symmetric(rng, 4, spread=False)
        errs = {}
        for eps in (1e-2, 1e-3):
            pred = np.sort(eigsens.second_order_taylor(lam, e, eps))
            exact = np.linalg.eigvalsh(np.diag(lam) + eps * e)
            errs[eps] = np.max(np.abs(pred - exact))
        ratio = errs[1e-2] / errs[1e-3]
        assert 200.0 <= ratio <= 5000.0

    def test_beats_first_order(self):
        lam = np.array([0.0, 1.0, 2.5, 4.0])
        rng = np.random.default_rng(15)
        e = _random_symmetric(rng, 4, spread=False)
        eps = 1e-3
        exact = np.linalg.eigvalsh(np.diag(lam) + eps * e)
        second = np.sort(eigsens.second_order_taylor(lam, e, eps))
        first = np.sort(lam + eps * np.diag(e))
        assert np.max(np.abs(second - exact)) < np.max(np.abs(first - exact)) / 10.0

    @pytest.mark.parametrize("n", [1, 2, 9, 42, 48, 50])
    def test_bitwise_equal_to_scalar_loop(self, n):
        """Each row's quotients are added in index order, as in the scalar
        expansion, so both agree to the last bit."""
        rng = np.random.default_rng(1000 + n)
        lam = np.sort(rng.standard_normal(n)) + np.arange(n)
        e = _random_symmetric(rng, n, spread=False)
        eps = 0.03
        want = np.empty(n)
        for i in range(n):
            second = 0.0
            for k in range(n):
                if k != i:
                    second += e[i, k] ** 2 / (lam[i] - lam[k])
            want[i] = lam[i] + eps * e[i, i] + eps * eps * second
        got = eigsens.second_order_taylor(lam, e, eps)
        assert got.tobytes() == want.tobytes()

    def test_general_base_matches_diagonal_specialization(self):
        """Around a diagonal matrix the general (conjugating) route must
        reproduce the direct formula."""
        lam = np.array([0.0, 1.5, 3.0])
        rng = np.random.default_rng(16)
        e = _random_symmetric(rng, 3, spread=False)
        dec = eigsens.decompose(np.diag(lam))
        general = eigsens.second_order_taylor_general(dec, e, 1e-3)
        direct = eigsens.second_order_taylor(lam, e, 1e-3)
        np.testing.assert_allclose(np.sort(general), np.sort(direct),
                                   rtol=1e-12)

    def test_general_base_tracks_eigh(self):
        rng = np.random.default_rng(17)
        s = _random_symmetric(rng, 5)
        e = _random_symmetric(rng, 5, spread=False)
        dec = eigsens.decompose(s)
        eps = 1e-4
        pred = np.sort(eigsens.second_order_taylor_general(dec, e, eps))
        exact = np.linalg.eigvalsh(s + eps * e)
        assert np.max(np.abs(pred - exact)) <= 1e-9

    def test_contracts(self):
        with pytest.raises(DegenerateEigenvaluesError):
            eigsens.second_order_taylor(np.array([1.0, 1.0]), np.eye(2), 0.1)
        with pytest.raises(ContractError):
            eigsens.second_order_taylor(np.array([1.0, 2.0]),
                                        np.array([[0.0, 1.0], [0.0, 0.0]]),
                                        0.1)
        with pytest.raises(ContractError):
            eigsens.second_order_taylor(np.array([1.0, 2.0]), np.eye(3), 0.1)

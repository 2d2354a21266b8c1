"""Tests for adjoint gradients through parameterized linear systems."""

import numpy as np
import pytest

from matderiv import counting, linsys_adjoint as lin
from matderiv.errors import ShapeError


def _hand_instance():
    """The worked 2x2 instance: A = [[2, 1], [1, 2]], b = (1, 0), c = (0, 1).

    x = (2/3, -1/3), g = (c.x)^2 = 1/9, adjoint v = A^-1(-2(c.x)c) =
    (-2/9, 4/9), and dg/dp_1 = v_1 x_2 + v_2 x_1 = 10/27.
    """
    return lin.TridiagProblem(a=[2.0, 2.0], p=[1.0], b=[1.0, 0.0],
                              c=[0.0, 1.0])


class TestProblemContainer:
    def test_matrix_assembly(self):
        prob = _hand_instance()
        np.testing.assert_array_equal(prob.matrix().densify(),
                                      [[2.0, 1.0], [1.0, 2.0]])

    def test_with_p_replaces_only_parameters(self):
        prob = _hand_instance()
        other = prob.with_p([0.5])
        assert other.p[0] == 0.5
        np.testing.assert_array_equal(other.a, prob.a)
        np.testing.assert_array_equal(prob.p, [1.0])  # original untouched

    def test_shape_contracts(self):
        with pytest.raises(ShapeError):
            lin.TridiagProblem(a=[1.0, 2.0], p=[1.0, 2.0], b=[0.0, 0.0],
                               c=[0.0, 0.0])
        with pytest.raises(ShapeError):
            lin.TridiagProblem(a=[1.0, 2.0], p=[1.0], b=[0.0], c=[0.0, 0.0])


class TestHandInstance:
    def test_state_and_objective(self):
        prob = _hand_instance()
        np.testing.assert_allclose(lin.solve_state(prob), [2 / 3, -1 / 3],
                                   rtol=1e-14)
        assert lin.g_eval(prob) == pytest.approx(1 / 9, rel=1e-14)

    def test_gradient_is_ten_twenty_sevenths(self):
        grad = lin.grad_g(_hand_instance())
        assert abs(grad[0] - 10.0 / 27.0) <= 1e-12

    def test_gradient_matches_forward_difference(self):
        prob = _hand_instance()
        grad = lin.grad_g(prob)
        h = 1e-7
        fd = lin.fd_directional(prob, [h]) / h
        assert grad[0] == pytest.approx(fd, rel=1e-6)


class TestSolveBudget:
    def test_exactly_two_tridiagonal_solves(self):
        """Gradient cost never grows with the parameter count."""
        for n in (2, 16, 257):
            prob = lin.random_instance(n, seed=n)
            with counting.tally() as c:
                lin.grad_g(prob)
            assert c.solves == 2

    def test_op_count_linear_in_n(self):
        counts = {}
        for n in (200, 400, 800):
            prob = lin.random_instance(n, seed=1)
            with counting.tally() as c:
                lin.grad_g(prob)
            counts[n] = c.flops
        assert 1.8 <= counts[400] / counts[200] <= 2.3
        assert 1.8 <= counts[800] / counts[400] <= 2.3


class TestGradientAccuracy:
    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_directional_match_on_random_instances(self, n):
        """grad . dp predicts g(p+dp) - g(p) to a relative 1e-3 for small
        component-scaled steps."""
        prob = lin.random_instance(n, seed=n)
        grad = lin.grad_g(prob)
        rng = np.random.default_rng(10 * n + 1)
        dp = rng.uniform(-1.0, 1.0, size=n - 1) * 1e-6 * (1.0 + np.abs(prob.p))
        predicted = float(grad @ dp)
        actual = lin.fd_directional(prob, dp)
        assert predicted == pytest.approx(actual, rel=1e-3)


class TestPartialStructure:
    def test_positions(self):
        prob = lin.random_instance(5, seed=0)
        assert lin.partial_dA(prob, 0) == ((0, 1), (1, 0))
        assert lin.partial_dA(prob, 3) == ((3, 4), (4, 3))

    def test_out_of_range(self):
        prob = lin.random_instance(5, seed=0)
        with pytest.raises(IndexError):
            lin.partial_dA(prob, 4)
        with pytest.raises(IndexError):
            lin.partial_dA(prob, -1)


class TestDenseGeneralization:
    def _dense_of(self, prob):
        """The tridiagonal instance re-expressed with dense matrices."""
        a = prob.matrix().densify()
        das = []
        for k in range(prob.n - 1):
            da = np.zeros_like(a)
            for i, j in lin.partial_dA(prob, k):
                da[i, j] = 1.0
            das.append(da)
        return a, das

    def test_agrees_with_tridiagonal_specialization(self):
        prob = lin.random_instance(9, seed=4)
        a, das = self._dense_of(prob)
        x = lin.solve_state(prob)
        s = float(prob.c @ x)
        dense = lin.dense_linear_adjoint(a, das, prob.b,
                                         lambda xv: 2.0 * s * prob.c)
        np.testing.assert_allclose(dense, lin.grad_g(prob), rtol=1e-10,
                                   atol=1e-12)

    def test_vector_objective_gradient_accepted(self):
        """grad_f may be a plain vector instead of a callable."""
        prob = lin.random_instance(6, seed=5)
        a, das = self._dense_of(prob)
        x = lin.solve_state(prob)
        gf = 2.0 * float(prob.c @ x) * prob.c
        dense = lin.dense_linear_adjoint(a, das, prob.b, gf)
        np.testing.assert_allclose(dense, lin.grad_g(prob), rtol=1e-10)

    def test_two_lu_solves(self):
        rng = np.random.default_rng(7)
        n = 8
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        das = [rng.standard_normal((n, n)) for _ in range(5)]
        with counting.tally() as c:
            lin.dense_linear_adjoint(a, das, rng.standard_normal(n),
                                     rng.standard_normal(n))
        assert c.solves == 2

    def test_objective_gradient_size_contract(self):
        with pytest.raises(ShapeError):
            lin.dense_linear_adjoint(np.eye(3), [np.eye(3)], np.ones(3),
                                     np.ones(2))

    def test_partial_shape_contract(self):
        with pytest.raises(ShapeError):
            lin.dense_linear_adjoint(np.eye(3), [np.eye(2)], np.ones(3),
                                     np.ones(3))


class TestRandomInstance:
    def test_diagonal_dominance(self):
        prob = lin.random_instance(50, seed=8)
        assert np.all(prob.a >= 2.5)
        assert np.all(np.abs(prob.p) <= 0.5)

    def test_deterministic_in_seed(self):
        p1 = lin.random_instance(10, seed=9)
        p2 = lin.random_instance(10, seed=9)
        np.testing.assert_array_equal(p1.a, p2.a)
        np.testing.assert_array_equal(p1.p, p2.p)

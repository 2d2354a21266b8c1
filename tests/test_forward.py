"""Tests for dual-number forward-mode differentiation."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import progen
from matderiv import forward
from matderiv.errors import ContractError, DomainError, ShapeError
from matderiv.forward import Dual, babylonian, derivative, primal
from matderiv.reverse import Tape, Var

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


class TestDualArithmetic:
    def test_nilpotent_tangent(self):
        """eps**2 == 0: the product of two pure tangents has no value or
        tangent left."""
        eps = Dual(0.0, 1.0)
        prod = eps * eps
        assert prod.val == 0.0 and prod.deriv == 0.0

    def test_constant_promotion(self):
        d = Dual(2.0, 1.0) + 3
        assert (d.val, d.deriv) == (5.0, 1.0)
        d = 3 - Dual(2.0, 1.0)
        assert (d.val, d.deriv) == (1.0, -1.0)
        d = 3 * Dual(2.0, 1.0)
        assert (d.val, d.deriv) == (6.0, 3.0)
        d = 3 / Dual(2.0, 1.0)
        assert (d.val, d.deriv) == (1.5, -0.75)

    @given(finite, finite, finite, finite)
    @settings(max_examples=100, deadline=None)
    def test_product_rule(self, a, da, b, db):
        p = Dual(a, da) * Dual(b, db)
        assert p.val == pytest.approx(a * b, rel=1e-12, abs=1e-12)
        assert p.deriv == pytest.approx(da * b + a * db, rel=1e-12, abs=1e-12)

    @given(finite, finite, finite, finite)
    @settings(max_examples=100, deadline=None)
    def test_quotient_rule(self, a, da, b, db):
        if abs(b) < 1e-3:
            b += 1.0 if b >= 0 else -1.0
        q = Dual(a, da) / Dual(b, db)
        assert q.val == pytest.approx(a / b, rel=1e-12, abs=1e-12)
        assert q.deriv == pytest.approx((da * b - a * db) / b**2,
                                        rel=1e-9, abs=1e-9)

    def test_division_by_zero_primal(self):
        with pytest.raises(DomainError):
            Dual(1.0, 0.0) / Dual(0.0, 1.0)

    def test_quotient_tangent_past_a_huge_divisor(self):
        """d/dt t/b = 1/b = 1e-155 for b = 1e155, whose square overflows:
        the b*b form of the rule returned 0.0."""
        assert derivative(lambda t: t / 1e155, 1.0) == 1.0 / 1e155

    def test_quotient_tangent_past_a_tiny_divisor(self):
        """For b = 1e-160, b*b = 1e-320 is subnormal: the b*b form lost five
        digits and returned 1.000011132941258e+160."""
        assert derivative(lambda t: t / 1e-160, 3.0) == 1.0 / 1e-160

    def test_quotient_of_two_tiny_numbers(self):
        """At a = b = 1e-300 the quotient is 1 and its gradient (1/b, -a/b^2)
        = (1e300, -1e300); b*b underflowed to 0, which raised a plain
        ZeroDivisionError (scalar tangent) or numpy's RuntimeWarning (block
        tangent)."""
        tiny = 1e-300
        assert derivative(lambda t: t / tiny, tiny) == 1.0 / tiny
        assert derivative(lambda t: tiny / t, tiny) == -1.0 / tiny
        jac = forward.jacobian_forward(lambda xs: [xs[0] / xs[1]], np.array([tiny, tiny]))
        assert jac.tolist() == [[1.0 / tiny, -1.0 / tiny]]

    def test_comparisons_read_primal_only(self):
        assert Dual(1.0, 99.0) < Dual(2.0, -99.0)
        assert Dual(2.0, 0.0) >= 2.0
        assert not Dual(1.0, 5.0) > 1.0

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt,
                                    operator.ge])
    def test_ordering_against_tape_variable(self, op):
        """A Dual defers to the tape variable's mirrored comparison, so
        both operand orders give the comparison of the primals."""
        tape = Tape()
        for a, b in [(1.0, 2.0), (2.0, 2.0), (3.0, 2.0)]:
            assert op(Dual(a, 7.0), tape.input(b)) is op(a, b)
            assert op(tape.input(b), Dual(a, 7.0)) is op(b, a)

    # (op, d op(dual, x)/dx, d op(x, dual)/dx) for a Dual and a tape variable x
    _MIXED = [
        (operator.add, lambda d, x: 1.0, lambda d, x: 1.0),
        (operator.sub, lambda d, x: -1.0, lambda d, x: 1.0),
        (operator.mul, lambda d, x: d, lambda d, x: d),
        (operator.truediv, lambda d, x: -d / (x * x), lambda d, x: 1.0 / d),
    ]

    @pytest.mark.parametrize("op, dx_dual_left, dx_var_left", _MIXED,
                             ids=["add", "sub", "mul", "truediv"])
    def test_arithmetic_with_tape_variable(self, op, dx_dual_left, dx_var_left):
        """A Dual returns NotImplemented for a tape variable, so Python runs
        the variable's reflected method: both operand orders record a node
        whose primal is the dual result and whose adjoint is the partial."""
        d = Dual(1.5, 0.5)
        for dual_left, dx in ((True, dx_dual_left), (False, dx_var_left)):
            tape = Tape()
            x = tape.input(2.0)
            out = op(d, x) if dual_left else op(x, d)
            assert isinstance(out, Var)
            want = op(d, 2.0) if dual_left else op(2.0, d)
            assert (out.val.val, out.val.deriv) == pytest.approx((want.val, want.deriv))
            adj = tape.backward({out.index: 1.0})[x.index]
            assert self._pair(adj) == pytest.approx(self._pair(dx(d, 2.0)))

    @staticmethod
    def _pair(x):
        """(val, deriv) of a Dual, or of the constant (x, 0.0)."""
        return (x.val, x.deriv) if isinstance(x, Dual) else (float(x), 0.0)

    def test_block_tangent(self):
        """An ndarray tangent is kept as a block; each component follows the
        scalar rule.  Any other tangent is converted to a float."""
        a = Dual(2.0, np.array([1.0, 0.0, 3.0]))
        b = Dual(-0.5, np.array([0.0, 1.0, 2.0]))
        e = math.exp(-0.5)
        for got, want in ((a * b, [-0.5, 2.0, 2.5]), (a + 1.0, [1.0, 0.0, 3.0]),
                          (forward.exp(b), [0.0, e, 2.0 * e])):
            np.testing.assert_allclose(got.deriv, want, rtol=1e-15)
        assert type(Dual(1.0, 2).deriv) is float
        assert type(Dual(1.0, np.float64(2.0)).deriv) is float

    def test_negation(self):
        d = -Dual(2.0, 3.0)
        assert (d.val, d.deriv) == (-2.0, -3.0)

    @staticmethod
    def _lifted(op, x, y):
        """op on Duals and numbers by its rule, each number lifted to
        (float(c), 0.0), as (val, deriv)."""
        a, da = (x.val, x.deriv) if isinstance(x, Dual) else (float(x), 0.0)
        b, db = (y.val, y.deriv) if isinstance(y, Dual) else (float(y), 0.0)
        if op is operator.add:
            return a + b, da + db
        if op is operator.sub:
            return a - b, da - db
        if op is operator.mul:
            return a * b, da * b + a * db
        q = a / b
        return q, (da - q * db) / b

    @staticmethod
    def _bits(val, deriv):
        t = deriv.tobytes() if isinstance(deriv, np.ndarray) else deriv.hex()
        return val.hex(), type(deriv), t

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv])
    def test_every_operand_kind_is_bitwise_the_lifted_form(self, op):
        """Dual and float operands take fast paths, every other number is
        lifted: each gives the lifted form's bits in both orders, a -0.0
        tangent included (deriv + 0.0 is +0.0)."""
        duals = [Dual(0.7, -0.0), Dual(-0.7, -0.0), Dual(-0.7, np.array([-0.0, 1.5, 0.0])),
                 Dual(0.7, np.array([-0.0, -0.0, -2.0]))]
        others = [Dual(-1.3, -0.0), Dual(1.3, np.array([0.5, -0.0, 0.0])), -1.3, 0.0, -0.0,
                  3, np.float64(-1.3)]
        for x in duals:
            for y in others:
                for lhs, rhs in ((x, y), (y, x)):
                    if op is operator.truediv and forward.primal(rhs) == 0.0:
                        continue
                    got = op(lhs, rhs)
                    assert type(got) is Dual
                    assert self._bits(got.val, got.deriv) == \
                        self._bits(*self._lifted(op, lhs, rhs)), (lhs, rhs)
        # a 0-d array tangent is read as a float, so no result holds a
        # numpy scalar tangent
        assert type(op(Dual(0.7, np.array(-2.0)), 1.5).deriv) is float

    def test_lift_rejects_foreign_types(self):
        """An operand that is not a number, a Dual or a tape variable gives
        NotImplemented in both orders, so Python raises TypeError."""
        with pytest.raises(TypeError):
            Dual(1.0) + "x"
        with pytest.raises(TypeError):
            "x" - Dual(1.0)
        with pytest.raises(TypeError):
            "x" / Dual(1.0)


class TestElementaryFunctions:
    @pytest.mark.parametrize("fn, dfn", [
        (forward.sin, math.cos),
        (forward.cos, lambda v: -math.sin(v)),
        (forward.exp, math.exp),
    ])
    def test_unrestricted_primitives(self, fn, dfn):
        for x in (-2.0, -0.5, 0.0, 0.7, 3.0):
            out = fn(Dual(x, 1.0))
            assert out.deriv == pytest.approx(dfn(x), rel=1e-14, abs=1e-14)

    def test_log_value_and_derivative(self):
        out = forward.log(Dual(2.0, 1.0))
        assert out.val == pytest.approx(math.log(2.0), rel=1e-15)
        assert out.deriv == pytest.approx(0.5, rel=1e-15)

    def test_log_domain(self):
        with pytest.raises(DomainError):
            forward.log(Dual(0.0, 1.0))
        with pytest.raises(DomainError):
            forward.log(-1.0)

    def test_sqrt_value_and_derivative(self):
        out = forward.sqrt(Dual(4.0, 1.0))
        assert out.val == 2.0
        assert out.deriv == pytest.approx(0.25, rel=1e-15)

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            forward.sqrt(-1.0)
        with pytest.raises(DomainError):
            forward.sqrt(Dual(0.0, 1.0))  # value fine, derivative is not

    def test_plain_number_passthrough(self):
        assert forward.sin(0.5) == math.sin(0.5)
        assert forward.sqrt(9.0) == 3.0

    def test_powi_basic(self):
        out = forward.powi(Dual(3.0, 1.0), 4)
        assert out.val == 81.0
        assert out.deriv == pytest.approx(4 * 27.0, rel=1e-15)

    def test_powi_zero_exponent(self):
        out = forward.powi(Dual(3.0, 1.0), 0)
        assert (out.val, out.deriv) == (1.0, 0.0)

    def test_powi_negative_exponent(self):
        out = forward.powi(Dual(2.0, 1.0), -2)
        assert out.val == 0.25
        assert out.deriv == pytest.approx(-2 * 2.0**-3, rel=1e-15)

    def test_powi_contracts(self):
        with pytest.raises(ContractError):
            forward.powi(Dual(2.0, 1.0), 0.5)
        with pytest.raises(DomainError):
            forward.powi(Dual(0.0, 1.0), -1)

    def test_chain_rule_composition(self):
        """d/dx sin(x^2) = 2x cos(x^2)."""
        x = 0.731
        out = forward.sin(forward.powi(Dual(x, 1.0), 2))
        assert out.deriv == pytest.approx(2 * x * math.cos(x * x), rel=1e-14)


class TestPrimal:
    def test_unwraps_plain_and_dual(self):
        assert primal(3) == 3.0
        assert primal(Dual(2.5, 9.0)) == 2.5

    def test_unwraps_nested_value_attributes(self):
        from matderiv.reverse import Tape

        tape = Tape()
        v = tape.input(Dual(1.25, 1.0))
        assert primal(v) == 1.25


class TestDerivativeDriver:
    def test_polynomial_exact(self):
        # d/dx (x^3 - 2x) = 3x^2 - 2
        f = lambda t: t * t * t - 2.0 * t
        assert derivative(f, 1.7) == pytest.approx(3 * 1.7**2 - 2, rel=1e-14)

    def test_constant_program(self):
        assert derivative(lambda t: 4.0, 1.0) == 0.0


class TestBabylonian:
    def test_golden_iterates_at_four(self):
        """First iterates of the square-root recurrence at x=4."""
        expected = {1: 2.5, 2: 2.05, 3: 2.000609756097561,
                    4: 2.0000000929222947, 10: 2.0}
        for n, want in expected.items():
            got = babylonian(4.0, n_steps=n)
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_derivative_at_49(self):
        got = derivative(lambda t: babylonian(t, n_steps=10), 49.0)
        assert abs(got - 0.07142857142857142) <= 1e-15

    def test_tangent_converges_to_half_inverse_sqrt(self):
        for x in (0.25, 2.0, 9.0, 100.0):
            got = derivative(lambda t: babylonian(t, n_steps=40), x)
            assert got == pytest.approx(0.5 / math.sqrt(x), rel=1e-12)

    def test_contracts(self):
        with pytest.raises(ContractError):
            babylonian(4.0, n_steps=0)
        with pytest.raises(DomainError):
            babylonian(-1.0)
        with pytest.raises(DomainError):
            babylonian(Dual(0.0, 1.0))


class TestDirectionalDerivative:
    def test_linear_map(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))

        def f(xs):
            return [sum(a[i, j] * xs[j] for j in range(4)) for i in range(3)]

        x = rng.standard_normal(4)
        v = rng.standard_normal(4)
        np.testing.assert_allclose(forward.directional_derivative(f, x, v),
                                   a @ v, rtol=1e-12, atol=1e-13)

    def test_seeds_round_trip(self):
        """Input i is seeded as Dual(x[i], v[i])."""
        seen = []

        def f(xs):
            seen.extend((s.val, s.deriv) for s in xs)
            return xs

        forward.directional_derivative(f, np.array([1.0, 2.0]), np.array([0.5, -0.5]))
        assert seen == [(1.0, 0.5), (2.0, -0.5)]

    def test_shape_contract(self):
        """A direction of another length and a direction block of more
        than two axes are each a ShapeError."""
        for x, v in [(np.zeros(3), np.zeros(2)),
                     (np.zeros(2), np.zeros((2, 2, 1)))]:
            with pytest.raises(ShapeError):
                forward.directional_derivative(lambda xs: xs, x, v)

    def test_seed_shape_contract(self):
        """Seeding checks x against v: a point of length 3 with a
        direction of length 2, and a 2-D point, are each a ShapeError."""
        for x, v in [(np.zeros(3), np.zeros(2)),
                     (np.zeros((2, 2)), np.zeros((2, 2)))]:
            with pytest.raises(ShapeError):
                forward.directional_derivative(lambda xs: xs, x, v)


class TestJacobianForward:
    def test_analytic_two_by_two(self):
        """f = (x0*x1, sin x0) has Jacobian [[x1, x0], [cos x0, 0]]."""
        def f(xs):
            return [xs[0] * xs[1], forward.sin(xs[0])]

        x = np.array([0.8, -1.3])
        want = np.array([[-1.3, 0.8], [math.cos(0.8), 0.0]])
        np.testing.assert_allclose(forward.jacobian_forward(f, x), want,
                                   rtol=1e-13, atol=1e-14)

    def test_scalar_output_gives_row(self):
        jac = forward.jacobian_forward(lambda xs: xs[0] * xs[1],
                                       np.array([2.0, 3.0]))
        np.testing.assert_allclose(jac, np.array([[3.0, 2.0]]), rtol=1e-14)

    def test_constant_components_give_zero_rows(self):
        jac = forward.jacobian_forward(lambda xs: [1.0, xs[0]],
                                       np.array([2.0]))
        np.testing.assert_allclose(jac, np.array([[0.0], [1.0]]))

    def test_empty_input(self):
        jac = forward.jacobian_forward(lambda xs: [], np.zeros(0))
        assert jac.shape == (0, 0)

    @pytest.mark.parametrize("n", [1, 4, 40])
    def test_one_program_call(self, n):
        """The whole Jacobian comes from a single dual pass, whatever n."""
        calls = []

        def f(xs):
            calls.append(len(xs))
            return [xs[0] * xs[-1], forward.sin(xs[0])]

        assert forward.jacobian_forward(f, np.linspace(0.1, 1.0, n)).shape == (2, n)
        assert calls == [n]

    def test_columns_equal_directional_derivatives(self):
        """Column j of the block pass is bitwise the single-tangent pass
        along e_j, on generated vector programs."""
        for seed in range(30):
            prog = progen.make_vector_program(700 + seed)
            jac = forward.jacobian_forward(prog, prog.x0)
            for j, e in enumerate(np.eye(prog.n_inputs)):
                np.testing.assert_array_equal(
                    jac[:, j], forward.directional_derivative(prog, prog.x0, e))

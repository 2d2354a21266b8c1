"""Tests for tape-based reverse-mode differentiation."""

import math
import operator

import numpy as np
import pytest

import progen
from matderiv import forward, reverse, scalarfn as sf, second_order
from matderiv.errors import ContractError, DivisionByZeroError, DomainError, ShapeError
from matderiv.reverse import Tape, gradient, vjp


class TestTapeMechanics:
    def test_node_count_equals_recorded_primitives(self):
        """Each arithmetic op appends exactly one node."""
        tape = Tape()
        x = tape.input(2.0)
        y = tape.input(3.0)
        _ = x * y + x - y  # mul, add, sub
        assert tape.primitive_count == 3

    def test_constants_are_lifted_once_per_use(self):
        """Arithmetic folds a constant into its node; ``Tape.lift`` records
        one const node per call."""
        tape = Tape()
        x = tape.input(2.0)
        _ = 3.0 * x  # one mul node, the constant folded
        c = tape.lift(3.0)
        _ = c * x + c
        assert tape.lift(c) is c
        kinds = [n.kind for n in tape.nodes]
        assert kinds == ["input", "mul", "const", "mul", "add"]

    def test_cross_tape_mixing_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.input(1.0)
        b = t2.input(1.0)
        with pytest.raises(ContractError):
            _ = a + b

    def test_backward_visits_each_node_once(self):
        """Adjoint of a diamond-shaped graph sums both paths."""
        tape = Tape()
        x = tape.input(2.0)
        u = x * x       # du/dx = 4
        w = u + u       # two paths into u
        adj = tape.backward({w.index: 1.0})
        assert adj[x.index] == pytest.approx(8.0)

    def test_output_seed_and_unused_input(self):
        tape = Tape()
        x = tape.input(2.0)
        y = tape.input(5.0)  # never used
        out = x * 3.0
        adj = tape.backward({out.index: 1.0})
        assert adj[out.index] == 1.0
        assert adj[y.index] == 0.0

    def test_division_by_zero_primal(self):
        tape = Tape()
        x = tape.input(1.0)
        z = tape.input(0.0)
        with pytest.raises(DomainError):
            _ = x / z

    def test_quotient_of_two_tiny_numbers(self):
        """The partials 1/b and -q/b at a = b = 1e-300 are +-1e300; the old
        partial -a/(b*b) divided by an underflowed 0 and raised a plain
        ZeroDivisionError."""
        tiny = 1e-300
        grad = gradient(lambda xs: xs[0] / xs[1], np.array([tiny, tiny]))
        assert grad.tolist() == [1.0 / tiny, -1.0 / tiny]

    def test_quotient_partial_past_a_huge_divisor(self):
        """d(a/b)/db = -a/b^2 = -1e-310 (subnormal) at (1, 1e155); the old
        partial -a/(b*b) overflowed b*b and returned 0.0."""
        grad = gradient(lambda xs: xs[0] / xs[1], np.array([1.0, 1e155]))
        assert grad[0] == 1.0 / 1e155
        assert grad[1] == -(1.0 / 1e155) / 1e155
        assert grad[1] == pytest.approx(-1e-310, rel=1e-5)

    def test_integer_power_contracts(self):
        tape = Tape()
        x = tape.input(2.0)
        with pytest.raises(ContractError):
            _ = x**0.5
        z = tape.input(0.0)
        with pytest.raises(DomainError):
            _ = z**-1

    def test_power_of_zero_exponent_is_constant_one(self):
        tape = Tape()
        x = tape.input(2.0)
        out = x**0
        adj = tape.backward({out.index: 1.0})
        assert forward.primal(out.val) == 1.0
        assert adj[x.index] == 0.0

    def test_comparisons_read_primal(self):
        tape = Tape()
        x = tape.input(1.0)
        assert x < 2.0 and x <= 1.0 and x > 0.0 and x >= 1.0

    def test_ordering_against_variables_duals_and_numbers(self):
        tape = Tape()
        x, y = tape.input(1.0), tape.input(forward.Dual(2.0, -5.0))
        assert x < y and y > x and x <= x and not x > y
        assert y > forward.Dual(1.5, 9.0) and x >= np.float64(1.0) and y <= 2

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    @pytest.mark.parametrize("other", ["2.5", "a"])
    def test_ordering_against_non_numbers_raises(self, op, other):
        """A string is neither read as a number nor parsed: Python raises
        its TypeError for unorderable types, as it does for a Dual."""
        with pytest.raises(TypeError):
            op(Tape().input(1.0), other)


def _covering_program(x0, y0):
    """Every variable of a program with add, sub, mul, div, neg, powi and
    sin, in recording order (no constants)."""
    tape = Tape()
    x, y = tape.input(x0), tape.input(y0)
    a = x + y
    b = a - x
    c = b * y
    d = c / x
    e = -d
    f = e**3
    g = sf.sin(f)
    return tape, [x, y, a, b, c, d, e, f, g]


def _bits(v):
    """Exact representation of a float, Dual or ndarray adjoint."""
    if isinstance(v, forward.Dual):
        return ("dual", _bits(v.val), _bits(v.deriv))
    if isinstance(v, np.ndarray):
        return ("array", v.shape, v.tobytes())
    return ("float", float(v).hex())


def _reference_backward(tape, seeds):
    """The reverse sweep written node by node over ``tape.nodes``."""
    adj = [0.0] * len(tape.nodes)
    for i, s in seeds.items():
        adj[i] = adj[i] + s
    for i in range(len(tape.nodes) - 1, -1, -1):
        a = adj[i]
        if isinstance(a, float) and a == 0.0:
            continue
        node = tape.nodes[i]
        for p, d in zip(node.parents, node.partials):
            adj[p] = adj[p] + d * a
    return adj


class TestFlatTape:
    def test_node_view(self):
        x0, y0 = 0.7, -1.3
        tape, vs = _covering_program(x0, y0)
        a = x0 + y0
        b = a - x0
        c = b * y0
        d = c / x0
        e = -d
        f = e**3
        expected = [
            ("input", (), ()), ("input", (), ()),
            ("add", (0, 1), (1.0, 1.0)),
            ("sub", (2, 0), (1.0, -1.0)),
            ("mul", (3, 1), (y0, b)),
            ("div", (4, 0), (1.0 / x0, -(c / x0) / x0)),
            ("neg", (5,), (-1.0,)),
            ("powi", (6,), (3 * e**2,)),
            ("sin", (7,), (math.cos(f),)),
        ]
        assert len(tape.nodes) == len(expected) == 9
        assert [(n.kind, n.parents, n.partials) for n in tape.nodes] == expected
        assert tape.nodes[-1] == tape.nodes[8] and tape.nodes[-1].val == math.sin(f)
        with pytest.raises(IndexError):
            tape.nodes[9]
        with pytest.raises(TypeError):
            tape.nodes[0] = tape.nodes[1]

    @pytest.mark.parametrize("x0, y0", [(0.7, -1.3), (forward.Dual(0.7, 1.0),
                                                      forward.Dual(-1.3, 0.5))])
    def test_variable_keeps_the_recorded_primal(self, x0, y0):
        tape, vs = _covering_program(x0, y0)
        _ = 2.0 * vs[-1]  # one mul node, the constant folded
        assert len(tape.nodes) == 10
        for v in vs:
            assert v.val is tape.nodes[v.index].val

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv])
    def test_foreign_variable_rejected_in_both_orders(self, op):
        t1, t2 = Tape(), Tape()
        a, b = t1.input(1.5), t2.input(2.5)
        for lhs, rhs in ((a, b), (b, a)):
            with pytest.raises(ContractError):
                op(lhs, rhs)
        assert len(t1.nodes) == len(t2.nodes) == 1

    @pytest.mark.parametrize("driver", [
        lambda f, x: reverse.gradient(f, x),
        lambda f, x: reverse.vjp(lambda xs: [f(xs)], x, [1.0]),
        lambda f, x: reverse.jacobian_reverse(lambda xs: [xs[0], f(xs)], x),
    ], ids=["gradient", "vjp", "jacobian_reverse"])
    def test_foreign_output_rejected_by_every_driver(self, driver):
        """An output that is a variable of another tape is rejected as in
        arithmetic; it used to seed its own index on the driver's tape, so
        the gradient of a foreign v read [1, 0] with no error."""
        v = Tape().input(3.0)
        with pytest.raises(ContractError, match="different tapes"):
            driver(lambda xs: v, [1.0, 2.0])

    @pytest.mark.parametrize("primals, seed", [
        ((0.7, -1.3), 1.0),
        ((0.7, -1.3), forward.Dual(1.0, 0.25)),
        ((0.7, -1.3), np.array([1.0, -0.5, 2.0])),
        ((forward.Dual(0.7, 1.0), forward.Dual(-1.3, 0.5)), 1.0),
    ])
    def test_backward_matches_the_node_sweep_bitwise(self, primals, seed):
        """Both parents of one node, fan-out and a zero adjoint included:
        parent 0 takes its share before parent 1 (u - u rounds differently
        in the other order)."""
        tape, vs = _covering_program(*primals)
        x, y, a, b, c, d, e, f, g = vs
        u = g * x + 0.1
        _ = x * y  # never reaches the output: its adjoint stays 0
        out = (u - u) + u * g + g / y
        seeds = {out.index: seed, e.index: seed * 0.3}
        got = tape.backward(seeds)
        ref = _reference_backward(tape, seeds)
        assert [_bits(v) for v in got] == [_bits(v) for v in ref]


class TestConstantFolding:
    X0, C = 0.7, -1.3

    @pytest.mark.parametrize("op, kind, partial, val", [
        (lambda x, c: x + c, "add", 1.0, X0 + C),
        (lambda x, c: c + x, "add", 1.0, X0 + C),
        (lambda x, c: x - c, "sub", 1.0, X0 - C),
        (lambda x, c: c - x, "sub", -1.0, C - X0),
        (lambda x, c: x * c, "mul", C, X0 * C),
        (lambda x, c: c * x, "mul", C, X0 * C),
        (lambda x, c: x / c, "div", 1.0 / C, X0 / C),
        (lambda x, c: c / x, "div", -(C / X0) / X0, C / X0),
    ], ids=["x+c", "c+x", "x-c", "c-x", "x*c", "c*x", "x/c", "c/x"])
    def test_one_node_with_one_parent(self, op, kind, partial, val):
        tape = Tape()
        x = tape.input(self.X0)
        out = op(x, self.C)
        assert len(tape.nodes) == 2 and out.index == 1
        assert tape.nodes[1] == reverse.TapeNode(kind, (0,), (partial,), val)

    @pytest.mark.parametrize("zero", [0.0, -0.0, 0, np.float64(0.0), forward.Dual(0.0, 1.0)],
                             ids=["float", "-0.0", "int", "float64", "dual"])
    def test_zero_constant_divisor(self, zero):
        tape = Tape()
        x = tape.input(self.X0)
        with pytest.raises(DivisionByZeroError):
            x / zero
        assert len(tape.nodes) == 1

    @staticmethod
    def _adjoints(prog, primals, lift):
        """Input adjoints of prog at primals, its constants folded or
        passed through ``tape.lift``, and the tape's node kinds."""
        tape = Tape()
        xs = [tape.input(v) for v in primals]
        out = prog(xs, tape.lift) if lift else prog(xs)
        adj = tape.backward({out.index: 1.0})
        return [adj[v.index] for v in xs], {n.kind for n in tape.nodes}

    @pytest.mark.parametrize("primal_kind", ["float", "dual", "block dual"])
    def test_adjoints_equal_the_lifted_program_bitwise(self, primal_kind):
        with_constants = 0
        for seed in range(40):
            prog = progen.make_scalar_program(seed)
            n = prog.n_inputs
            x0 = prog.x0.tolist()
            if primal_kind == "float":
                primals = x0
            elif primal_kind == "dual":
                v = np.random.default_rng(seed).standard_normal(n)
                primals = [forward.Dual(a, d) for a, d in zip(x0, v.tolist())]
            else:
                primals = [forward.Dual(a, e) for a, e in zip(x0, np.eye(n))]
            folded, folded_kinds = self._adjoints(prog, primals, lift=False)
            lifted, lifted_kinds = self._adjoints(prog, primals, lift=True)
            assert [_bits(a) for a in folded] == [_bits(a) for a in lifted], seed
            assert "const" not in folded_kinds
            with_constants += "const" in lifted_kinds
        assert with_constants >= 20  # 25 of these 40 programs read a constant


class TestGradient:
    def test_sum_of_squares(self):
        """grad of x.x is 2x."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal(6)
        g = gradient(lambda xs: sum(v * v for v in xs), x)
        np.testing.assert_allclose(g, 2 * x, rtol=1e-13, atol=1e-14)

    def test_two_path_graph(self):
        """z = sin(x)/y + x: dz/dx = cos(x)/y + 1, dz/dy = -sin(x)/y^2."""
        x0, y0 = 1.0, 2.0
        g = gradient(lambda xs: sf.sin(xs[0]) / xs[1] + xs[0],
                     np.array([x0, y0]))
        np.testing.assert_allclose(
            g, [math.cos(x0) / y0 + 1.0, -math.sin(x0) / y0**2],
            rtol=1e-14)

    def test_explicit_path_product_sum(self):
        """The same two-path gradient equals the hand-summed chain products
        1*(1/y)*cos(x) + 1 along the two routes from x to the output."""
        x0, y0 = 1.0, 2.0
        g = gradient(lambda xs: sf.sin(xs[0]) / xs[1] + xs[0],
                     np.array([x0, y0]))
        assert g[0] == pytest.approx(1.0 * (1.0 / y0) * math.cos(x0) + 1.0,
                                     rel=1e-15)

    def test_constant_program_gives_zero_vector(self):
        g = gradient(lambda xs: 7.0, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_vector_output_rejected(self):
        with pytest.raises(ContractError):
            gradient(lambda xs: [xs[0], xs[1]], np.array([1.0, 2.0]))

    def test_elementary_chain(self):
        """grad of exp(sin(x0) * x1) via the tape matches the closed form."""
        x = np.array([0.6, -1.1])
        g = gradient(lambda xs: sf.exp(sf.sin(xs[0]) * xs[1]), x)
        e = math.exp(math.sin(0.6) * -1.1)
        np.testing.assert_allclose(
            g, [e * math.cos(0.6) * -1.1, e * math.sin(0.6)], rtol=1e-13)


class TestVjp:
    def test_rows_of_linear_map(self):
        """Seeding w = e_i against f(x) = Ax recovers row i of A."""
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 4))

        def f(xs):
            return [sum(a[i, j] * xs[j] for j in range(4)) for i in range(3)]

        x = rng.standard_normal(4)
        for i in range(3):
            w = np.zeros(3)
            w[i] = 1.0
            np.testing.assert_allclose(vjp(f, x, w), a[i], rtol=1e-12,
                                       atol=1e-13)

    def test_matches_forward_jacobian_on_random_programs(self):
        """vjp == w^T J on 50 generated vector programs."""
        rng = np.random.default_rng(2)
        for seed in range(50):
            prog = progen.make_vector_program(5000 + seed)
            jac = forward.jacobian_forward(prog, prog.x0)
            w = rng.standard_normal(prog.n_outputs)
            got = vjp(prog, prog.x0, w)
            ref = w @ jac
            assert np.linalg.norm(got - ref) <= 1e-10 * (1.0 + np.linalg.norm(ref))

    def test_length_mismatch(self):
        """A weight of another length, a 0-d weight and a weight block of
        more than two axes are each a ShapeError."""
        for w in (np.array([1.0, 2.0]), np.float64(2.0), np.ones((1, 1, 1))):
            with pytest.raises(ShapeError):
                vjp(lambda xs: [xs[0]], np.array([1.0]), w)

    def test_constant_outputs_contribute_nothing(self):
        got = vjp(lambda xs: [xs[0], 3.0], np.array([2.0]),
                  np.array([1.0, 5.0]))
        np.testing.assert_allclose(got, [1.0])

    def test_weight_block(self):
        """Weights of shape (m, k) give f'(x)^T w of shape (n, k) from one
        recording; column c is bitwise the vjp with weights w[:, c]."""
        rng = np.random.default_rng(8)
        for seed in range(20):
            prog = progen.make_vector_program(900 + seed)
            w = rng.standard_normal((prog.n_outputs, 3))
            got = vjp(prog, prog.x0, w)
            assert got.shape == (prog.n_inputs, 3)
            for c in range(3):
                np.testing.assert_array_equal(got[:, c], vjp(prog, prog.x0, w[:, c]))


class TestCrossMode:
    def test_gradient_equals_forward_jacobian_transpose(self):
        """Reverse gradient == transposed forward Jacobian on 50 generated
        scalar programs (the acceptance gate runs 100 fresh ones)."""
        for seed in range(50):
            prog = progen.make_scalar_program(seed)
            g = gradient(prog, prog.x0)
            jac = forward.jacobian_forward(prog, prog.x0)
            rel = np.linalg.norm(g - jac.T.ravel()) / (1.0 + np.linalg.norm(g))
            assert rel <= 1e-10, f"seed {seed}: cross-mode rel {rel}"

    def test_directional_consistency(self):
        """g . v == forward directional derivative for generated programs."""
        rng = np.random.default_rng(3)
        for seed in range(20):
            prog = progen.make_scalar_program(200 + seed)
            v = rng.standard_normal(prog.n_inputs)
            g = gradient(prog, prog.x0)
            fwd_dir = forward.directional_derivative(prog, prog.x0, v)[0]
            assert g @ v == pytest.approx(fwd_dir, rel=1e-9, abs=1e-11)


class TestModesAgree:
    """Float evaluation, forward mode, reverse mode and forward-over-reverse
    give the same value and derivative on the same program text."""

    @staticmethod
    def _all_modes(f, x):
        return (
            f(x),
            forward.derivative(f, x),
            float(gradient(lambda xs: f(xs[0]), [x])[0]),
            float(second_order.hessian(lambda xs: f(xs[0]), [x])[0, 0]),
        )

    def test_zeroth_power_of_zero(self):
        """x**0 = 1 with derivative 0 everywhere, x = 0 included."""
        f = lambda x: sf.powi(x, 0)
        assert self._all_modes(f, 0.0) == (1.0, 0.0, 0.0, 0.0)

    def test_equality_reads_the_primal(self):
        """``==`` and ``!=`` branch on the primal, as ``<`` and ``>`` do:
        at x = 1 every mode takes the x*x branch (value 1, slope 2,
        curvature 2)."""
        f_eq = lambda x: x * x if x == 1.0 else 3.0 * x
        f_ne = lambda x: 3.0 * x if x != 1.0 else x * x
        for f in (f_eq, f_ne):
            assert self._all_modes(f, 1.0) == (1.0, 2.0, 2.0, 2.0)
            assert self._all_modes(f, 2.0) == (6.0, 3.0, 3.0, 0.0)

    def test_equality_between_variables(self):
        tape = Tape()
        a, b = tape.input(2.0), tape.input(2.0)
        assert a == b and not a != b
        assert forward.Dual(2.0, 1.0) == forward.Dual(2.0, -1.0) == 2.0
        assert forward.Dual(2.0, 1.0) != 3.0

    @staticmethod
    def _kinds(x0):
        """x0 as a float, a Dual, a tape variable and a tape variable
        holding a Dual."""
        return {"float": x0, "dual": forward.Dual(x0, 1.0), "var": Tape().input(x0),
                "var of dual": Tape().input(forward.Dual(x0, 1.0))}

    @pytest.mark.parametrize("x0, f, error", [
        (0.0, sf.log, DomainError),
        (-1.0, sf.log, DomainError),
        (-1.0, sf.sqrt, DomainError),
        (0.0, lambda x: sf.powi(x, -1), DomainError),
        (2.0, lambda x: sf.powi(x, 0.5), ContractError),
        (2.0, lambda x: x + "a", TypeError),
        (2.0, lambda x: "a" / x, TypeError),
        *[(2.0, lambda x, fn=fn: x * fn("a"), TypeError)
          for fn in (sf.sin, sf.cos, sf.exp, sf.log, sf.sqrt)],
        (2.0, lambda x: x * sf.powi("a", 2), TypeError),
        (2.0, lambda x: x * sf.powi("a", 0), TypeError),
    ], ids=["log(0)", "log(-1)", "sqrt(-1)", "powi(0,-1)", "powi(x,0.5)",
            "x+str", "str/x", "sin(str)", "cos(str)", "exp(str)", "log(str)",
            "sqrt(str)", "powi(str,2)", "powi(str,0)"])
    def test_every_kind_rejects_with_one_type(self, x0, f, error):
        raised = {}
        for kind, x in self._kinds(x0).items():
            with pytest.raises(error) as info:
                f(x)
            raised[kind] = type(info.value)
        assert len(set(raised.values())) == 1, raised

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv])
    def test_array_operand_broadcasts_in_every_kind(self, op):
        """An ndarray operand broadcasts in both orders, each entry the
        float result: a tape variable returns NotImplemented for it, as a
        Dual does, where it raised "cannot lift ndarray onto a tape" with
        the variable on the left."""
        arr = np.array([1.0, 2.0])
        for kind, x in self._kinds(2.0).items():
            for out, want in ((op(x, arr), op(2.0, arr)), (op(arr, x), op(arr, 2.0))):
                assert out.shape == (2,), kind
                assert [forward.primal(o) for o in out] == want.tolist(), kind
        with pytest.raises(TypeError, match="cannot lift ndarray"):
            Tape().lift(arr)

    def test_array_constant_gives_one_jacobian_in_every_mode(self):
        prog = lambda xs: xs[0] * np.array([1.0, 2.0])
        want = np.array([[1.0], [2.0]])
        np.testing.assert_array_equal(forward.jacobian_forward(prog, [3.0]), want)
        np.testing.assert_array_equal(reverse.jacobian_reverse(prog, [3.0]), want)
        np.testing.assert_array_equal(forward.evaluate(prog, [3.0]), [3.0, 6.0])

    def test_sqrt_at_zero_has_no_derivative(self):
        kinds = self._kinds(0.0)
        assert sf.sqrt(kinds.pop("float")) == 0.0
        for x in kinds.values():
            with pytest.raises(DomainError):
                sf.sqrt(x)

    def test_zero_divisor_is_a_zero_division_in_every_kind(self):
        """Float division by zero raises ZeroDivisionError; the derivative
        kinds raise, from one check, a DomainError that is also one."""
        messages = set()
        for kind, zero in self._kinds(0.0).items():
            one = zero + 1.0
            for f in (lambda: one / zero, lambda: 1.0 / zero, lambda: zero / zero):
                with pytest.raises(ZeroDivisionError) as info:
                    f()
                if kind != "float":
                    assert isinstance(info.value, DomainError)
                    messages.add(str(info.value))
        assert len(messages) == 1

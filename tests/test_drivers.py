"""One point contract and one output reader across every derivative driver.

Each driver reads its point through ``core.as_vector``: a point that is not
1-D is a ShapeError, a non-finite one a ContractError, and a direction (or
weight vector) of the wrong length a ShapeError, whichever driver is asked.
``forward.evaluate``, the float evaluation, reads it the same way, and
``forward.derivative`` reads its scalar x as the point [x].  Each reads a
vector program's outputs through ``forward.as_outputs``, so a list, a
tuple, a generator and an ndarray of outputs give one Jacobian, and every
scalar driver reads a scalar program's output through
``forward.scalar_output``, so a bare scalar and a one-element list, tuple,
ndarray or generator give one result, and any other number of outputs is
one ContractError.  ``as_outputs`` alone decides what an output may be: an
item that is not a number or a scalar-like with a primal ``val`` (a
string, None, a nested list, a matrix row, a 0-d array, any other object)
is one TypeError naming its position and type, whichever driver is asked,
and so is a bare output that is neither a scalar-like nor iterable (None,
a 0-d array, any other object), naming its type.
"""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest

from matderiv import fdcheck, forward, reverse, second_order
from matderiv import scalarfn as sf
from matderiv.errors import ContractError, ShapeError, SingularMatrixError


def _scalar(xs):
    return xs[0] * xs[1] + sf.sin(xs[0])


def _vector(xs):
    return [xs[0] * xs[1], sf.exp(xs[1])]


def _sum_and_one(xs):
    return [2.5 + sum(xs), 1.0]


# each driver as call(x, v); v is its direction (the weight vector of vjp)
# and is None for the drivers that take none
DRIVERS = {
    "evaluate": lambda x, v: forward.evaluate(_vector, x),
    "directional_derivative": lambda x, v: forward.directional_derivative(_vector, x, v),
    "jacobian_forward": lambda x, v: forward.jacobian_forward(_vector, x),
    "gradient": lambda x, v: reverse.gradient(_scalar, x),
    "vjp": lambda x, v: reverse.vjp(_vector, x, v),
    "jacobian_reverse": lambda x, v: reverse.jacobian_reverse(_vector, x),
    "hvp": lambda x, v: second_order.hvp(_scalar, x, v),
    "hessian": lambda x, v: second_order.hessian(_scalar, x),
    "bilinear_identity_check":
        lambda x, v: second_order.bilinear_identity_check(_scalar, x, v, v),
    "quadratic_model_check":
        lambda x, v: second_order.quadratic_model_check(_scalar, x, [v]),
    "newton_min_step": lambda x, v: second_order.newton_min_step(_scalar, x),
    "grad_of_grad_function":
        lambda x, v: second_order.grad_of_grad_function(_scalar, _scalar, x),
    "fd_jacobian": lambda x, v: fdcheck.fd_jacobian(lambda y: 2.0 * y, x),
    "triple_check_forward":
        lambda x, v: fdcheck.triple_check(_vector, lambda d: d, "forward", x),
    "triple_check_reverse":
        lambda x, v: fdcheck.triple_check(_vector, lambda d: d, "reverse", x),
}
TAKES_DIRECTION = {"directional_derivative", "vjp", "hvp", "bilinear_identity_check",
                   "quadratic_model_check"}

# (point, direction, expected error); every point and program here has two
# entries, so a direction of two entries fits and one of three does not
INPUTS = {
    "2-D point": ([[0.5, -1.0]], [1.0, 0.0], ShapeError),
    "0-d point": (0.5, [1.0], ShapeError),
    "inf point": ([math.inf, -1.0], [1.0, 0.0], ContractError),
    "direction of another length": ([0.5, -1.0], [1.0, 0.0, 0.0], ShapeError),
}

CASES = [(d, i) for d in DRIVERS for i in INPUTS
         if i != "direction of another length" or d in TAKES_DIRECTION]


@pytest.mark.parametrize("driver, case", CASES)
def test_every_driver_rejects_a_point_with_one_type(driver, case):
    x, v, error = INPUTS[case]
    with pytest.raises(error):
        DRIVERS[driver](x, v)


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_every_driver_accepts_the_point_as_a_list(driver):
    DRIVERS[driver]([0.5, -1.0], [1.0, 0.0])


# derivative's x is the point [x], so one axis more is one too many for it,
# as one axis fewer is for the drivers above
SCALAR_INPUTS = {
    "1-D point": ([0.5, -1.0], ShapeError),
    "2-D point": ([[0.5]], ShapeError),
    "nan point": (math.nan, ContractError),
    "inf point": (-math.inf, ContractError),
}


@pytest.mark.parametrize("case", sorted(SCALAR_INPUTS))
def test_derivative_rejects_a_point_with_one_type(case):
    x, error = SCALAR_INPUTS[case]
    with pytest.raises(error):
        forward.derivative(lambda t: t * sf.sin(t), x)


OUTPUT_FORMS = {
    "list": lambda xs: [2.0 * v for v in xs],
    "tuple": lambda xs: tuple(2.0 * v for v in xs),
    "generator": lambda xs: (2.0 * v for v in xs),
    "ndarray": lambda xs: np.array(xs) * 2.0,
}


@pytest.mark.parametrize("form", sorted(OUTPUT_FORMS))
def test_every_output_form_gives_one_jacobian(form):
    prog = OUTPUT_FORMS[form]
    x = np.array([0.5, -1.0, 2.0])
    want = 2.0 * np.eye(3)
    np.testing.assert_array_equal(forward.jacobian_forward(prog, x), want)
    np.testing.assert_array_equal(reverse.jacobian_reverse(prog, x), want)
    np.testing.assert_array_equal(
        np.array([reverse.vjp(prog, x, e) for e in np.eye(3)]), want)
    for mode in ("forward", "reverse"):
        report = fdcheck.triple_check(prog, lambda d: 2.0 * d, mode, x)
        assert report.passed, report.summary()
        assert max(r.ad_vs_analytic for r in report.rows) == 0.0


@pytest.mark.parametrize("f, prog, ad_routes", [
    (partial(forward.evaluate, _sum_and_one), _sum_and_one,
     (forward.jacobian_forward, reverse.jacobian_reverse)),
    (lambda y: 2.5 + float(np.sum(y)), lambda xs: 2.5 + sum(xs), (reverse.gradient,)),
], ids=["vector", "scalar"])
def test_fd_jacobian_at_an_empty_point(f, prog, ad_routes):
    """At a point with no entries fd_jacobian gives the (m, 0) Jacobian of a
    vector f and the (0,) gradient of a scalar one, as the AD drivers do,
    shaped by one evaluation at the point; it raised numpy's "need at least
    one array to stack"."""
    calls = []
    fd = fdcheck.fd_jacobian(lambda y: calls.append(y) or f(y), [])
    assert len(calls) == 1
    assert fd.shape == np.shape(f([])) + (0,)
    assert [route(prog, []).shape for route in ad_routes] == [fd.shape] * len(ad_routes)


# every driver of a scalar program as call(prog) at one point; prog maps a
# list of scalar-likes to an output in one of SCALAR_FORMS (derivative's
# program is prog([t]) of its one variable t)
SCALAR_DRIVERS = {
    "derivative": lambda prog: forward.derivative(lambda t: prog([t]), 0.5),
    "gradient": lambda prog: reverse.gradient(prog, [0.5, -1.0]),
    "hvp": lambda prog: second_order.hvp(prog, [0.5, -1.0], [1.0, 2.0]),
    "hessian": lambda prog: second_order.hessian(prog, [0.5, -1.0]),
    "newton_min_step": lambda prog: second_order.newton_min_step(prog, [0.5, -1.0]),
    "grad_of_grad_function":
        lambda prog: second_order.grad_of_grad_function(prog, prog, [0.5, -1.0]),
    "bilinear_identity_check": lambda prog: second_order.bilinear_identity_check(
        prog, [0.5, -1.0], [1.0, 0.0], [0.0, 1.0]),
    "quadratic_model_check":
        lambda prog: second_order.quadratic_model_check(prog, [0.5, -1.0], [[0.6, 0.8]]),
}
SCALAR_FORMS = {
    "scalar": lambda outs: outs[0],
    "list": list,
    "tuple": tuple,
    "ndarray": np.array,
    "generator": lambda outs: (o for o in outs),
}
# the outputs of each program as a list: one varying output, a constant one,
# and two or no outputs
SCALAR_BODIES = {
    "varying": lambda xs: [xs[0] * xs[-1] + sf.sin(xs[0])],
    "constant": lambda xs: [2.5],
    "two outputs": lambda xs: [xs[0] * xs[-1], xs[0]],
    "no outputs": lambda xs: [],
}

# the one cell whose scalar form raises: a constant has a zero Hessian
SCALAR_ERRORS = {("newton_min_step", "constant"): SingularMatrixError}


def _bits(out):
    """A driver's result as bytes, field by field for a dataclass or a list
    of them, so two results compare bitwise."""
    if isinstance(out, list):
        return [_bits(o) for o in out]
    if dataclasses.is_dataclass(out):
        return [_bits(v) for v in vars(out).values()]
    return np.asarray(out).tobytes()


@pytest.mark.parametrize("form", sorted(SCALAR_FORMS))
@pytest.mark.parametrize("body", ["varying", "constant"])
@pytest.mark.parametrize("driver", sorted(SCALAR_DRIVERS))
def test_every_one_output_form_gives_the_scalar_result(driver, body, form):
    """A one-element list, tuple, ndarray or generator is its element.  The
    list and ndarray forms were a ContractError in the gradient family (the
    gradient, both Hessian routes, the Newton step, the gradient of a
    gradient function and the two checks), which read a tape variable only,
    while forward mode read every form."""
    run, outputs = SCALAR_DRIVERS[driver], SCALAR_BODIES[body]
    prog = lambda xs: SCALAR_FORMS[form](outputs(xs))
    error = SCALAR_ERRORS.get((driver, body))
    if error is not None:
        with pytest.raises(error):
            run(prog)
    else:
        assert _bits(run(prog)) == _bits(run(lambda xs: outputs(xs)[0]))


@pytest.mark.parametrize("form", [f for f in SCALAR_FORMS if f != "scalar"])
@pytest.mark.parametrize("body", ["two outputs", "no outputs"])
@pytest.mark.parametrize("driver", sorted(SCALAR_DRIVERS))
def test_any_other_output_count_is_one_contract_error(driver, body, form):
    outputs = SCALAR_BODIES[body]
    with pytest.raises(ContractError, match="a scalar program has one output"):
        SCALAR_DRIVERS[driver](lambda xs: SCALAR_FORMS[form](outputs(xs)))


# every driver of a vector program as call(prog) at a point of two entries
VECTOR_DRIVERS = {
    "evaluate": lambda prog: forward.evaluate(prog, [0.5, -1.0]),
    "directional_derivative":
        lambda prog: forward.directional_derivative(prog, [0.5, -1.0], [1.0, 2.0]),
    "jacobian_forward": lambda prog: forward.jacobian_forward(prog, [0.5, -1.0]),
    "vjp": lambda prog: reverse.vjp(prog, [0.5, -1.0], [1.0, 2.0]),
    "jacobian_reverse": lambda prog: reverse.jacobian_reverse(prog, [0.5, -1.0]),
    "triple_check_forward":
        lambda prog: fdcheck.triple_check(prog, lambda d: d, "forward", [0.5, -1.0]),
    "triple_check_reverse":
        lambda prog: fdcheck.triple_check(prog, lambda d: d, "reverse", [0.5, -1.0]),
}
# (program, position and type name of the first item that is no output)
BAD_OUTPUTS = {
    "string item": (lambda xs: [xs[0], "a"], 1, "str"),
    "None item": (lambda xs: [xs[0], None], 1, "NoneType"),
    "nested list": (lambda xs: [xs[0], [xs[1]]], 1, "list"),
    "2x2 matrix": (lambda xs: np.array([[xs[0], xs[1]], [xs[1], xs[0]]]), 0, "ndarray"),
    "0-d ndarray item": (lambda xs: [xs[0] * xs[1], np.array(2.0)], 1, "ndarray"),
    "object item": (lambda xs: [xs[0], object()], 1, "object"),
}
# the one output of a scalar program in a form that is no output
BAD_SCALAR_OUTPUTS = {
    "string": (lambda xs: "a", "str"),
    "nested list": (lambda xs: [[xs[0] * xs[-1]]], "list"),
    "1x1 object matrix": (lambda xs: np.array([[xs[0] * xs[-1]]], dtype=object), "ndarray"),
    "None in a list": (lambda xs: [None], "NoneType"),
}


@pytest.mark.parametrize("kind", list(BAD_OUTPUTS))
@pytest.mark.parametrize("driver", list(VECTOR_DRIVERS))
def test_every_vector_driver_rejects_a_non_scalar_output_with_one_type(driver, kind):
    prog, i, name = BAD_OUTPUTS[kind]
    with pytest.raises(TypeError, match=rf"^output {i} has type {name};"):
        VECTOR_DRIVERS[driver](prog)


@pytest.mark.parametrize("form", list(BAD_SCALAR_OUTPUTS))
@pytest.mark.parametrize("driver", sorted(SCALAR_DRIVERS))
def test_every_scalar_driver_rejects_a_non_scalar_output_with_one_type(driver, form):
    prog, name = BAD_SCALAR_OUTPUTS[form]
    with pytest.raises(TypeError, match=rf"^output 0 has type {name};"):
        SCALAR_DRIVERS[driver](prog)


# a bare output that is neither a scalar-like nor iterable, and its type name
BARE_OUTPUTS = {
    "None": (lambda xs: None, "NoneType"),
    "0-d ndarray": (lambda xs: np.array(2.0), "ndarray"),
    "object": (lambda xs: object(), "object"),
}


@pytest.mark.parametrize("kind", list(BARE_OUTPUTS))
@pytest.mark.parametrize("driver", [*SCALAR_DRIVERS, *VECTOR_DRIVERS])
def test_every_driver_rejects_a_bare_output_that_cannot_be_iterated(driver, kind):
    """The rule's TypeError names the output's type, not Python's or
    numpy's message from iterating it."""
    prog, name = BARE_OUTPUTS[kind]
    run = SCALAR_DRIVERS.get(driver) or VECTOR_DRIVERS[driver]
    with pytest.raises(TypeError, match=rf"^the output has type {name};"):
        run(prog)


def test_a_type_error_inside_a_generator_keeps_its_message():
    def prog(xs):
        yield xs[0]
        raise TypeError("raised by the program")

    with pytest.raises(TypeError, match="^raised by the program$"):
        forward.evaluate(prog, [0.5, -1.0])

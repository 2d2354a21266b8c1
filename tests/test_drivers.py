"""One point contract and one output reader across every derivative driver.

Each driver reads its point through ``core.as_vector``: a point that is not
1-D is a ShapeError, a non-finite one a ContractError, and a direction (or
weight vector) of the wrong length a ShapeError, whichever driver is asked.
``forward.evaluate``, the float evaluation, reads it the same way, and
``forward.derivative`` reads its scalar x as the point [x].  Each reads a
vector program's outputs through ``forward.as_outputs``, so a list, a
tuple, a generator and an ndarray of outputs give one Jacobian.
"""

import math

import numpy as np
import pytest

from matderiv import fdcheck, forward, reverse, second_order
from matderiv import scalarfn as sf
from matderiv.errors import ContractError, ShapeError


def _scalar(xs):
    return xs[0] * xs[1] + sf.sin(xs[0])


def _vector(xs):
    return [xs[0] * xs[1], sf.exp(xs[1])]


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

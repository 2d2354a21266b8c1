"""Error and edge branches that no other test reaches, one case each: size,
shape and finiteness contracts that raise, and two degenerate inputs that
return a value instead of an error.
"""

import re

import numpy as np
import pytest

from matderiv import core, kron, linsys_adjoint, odesens, rules
from matderiv.errors import ContractError, ShapeError


def _lu_solve_three_rows_on_two():
    lu, perm, _ = core.lu_factor(np.eye(2))
    core.lu_solve_factored(lu, perm, np.ones(3))


# case -> (call, error, message)
RAISES = {
    "as_matrix-non-finite": (
        lambda: core.as_matrix([[1.0, np.nan]]),
        ContractError, "matrix contains non-finite entries"),
    "lu_solve_factored-rhs-rows": (
        _lu_solve_three_rows_on_two, ShapeError, "rhs has 3 rows, matrix is 2x2"),
    "fd_directional-dp-size": (
        lambda: linsys_adjoint.fd_directional(linsys_adjoint.random_instance(4), np.ones(2)),
        ShapeError, "dp must match the parameter count"),
    "loss_discrete-lengths": (
        lambda: odesens.loss_discrete(odesens.reference_instance(), [0.5], [], 8),
        ContractError, "data_times and g_k_list lengths differ"),
    "grad_diagm_quadratic-size": (
        lambda: rules.grad_diagm_quadratic(np.eye(2), np.ones(3)),
        ShapeError, "grad_diagm_quadratic: size mismatch"),
    "d_projection-size": (
        lambda: rules.d_projection(np.ones(2), np.ones(3)),
        ShapeError, "d_projection: size mismatch"),
    "jacobian_projection_b-size": (
        lambda: rules.jacobian_projection_b(np.ones(2), np.ones(3)),
        ShapeError, "jacobian_projection_b: size mismatch"),
    "analytic_transform_jacobians-3-point": (
        lambda: rules.analytic_transform_jacobians("rotate", 0.3, [1.0, 2.0, 3.0]),
        ShapeError, "transforms act on points in the plane"),
}


@pytest.mark.parametrize("case", sorted(RAISES))
def test_contract_violation_raises(case):
    call, error, message = RAISES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_kron_vec_identity_check_with_a_zero_reference_is_absolute():
    """B C A^T = 0 for A = 0, so the residual is returned unscaled rather
    than divided by a zero norm."""
    b = np.arange(6.0).reshape(2, 3)
    c = np.ones((3, 2))
    assert kron.kron_vec_identity_check(np.zeros((2, 2)), b, c) == 0.0


def test_grad_det_of_a_singular_1x1_is_one():
    """[[0]] has no inverse; its cofactor, the empty minor's determinant,
    is 1."""
    np.testing.assert_array_equal(rules.grad_det([[0.0]]), [[1.0]])

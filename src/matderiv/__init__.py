"""Matrix-calculus derivative engine.

Forward- and reverse-mode automatic differentiation over a small scalar
primitive set, a catalog of analytic matrix derivative rules, vectorized
Jacobians via Kronecker products, adjoint gradients for parameterized
linear systems and ODEs, eigenvalue perturbation theory, and a
finite-difference harness that cross-checks all of it.  The numeric core
(LU, tridiagonal, Jacobi eigensolver) is self-contained.
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
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
    scalarfn,
    second_order,
)
from .core import EigenDecomp, TridiagSym  # noqa: F401
from .counting import Counter, tally  # noqa: F401
from .errors import (  # noqa: F401
    BlowUpError,
    ContractError,
    ConvergenceError,
    DegenerateEigenvaluesError,
    DivisionByZeroError,
    DomainError,
    MatDerivError,
    ShapeError,
    SingularMatrixError,
)
from .forward import (  # noqa: F401
    Dual,
    babylonian,
    derivative,
    directional_derivative,
    jacobian_forward,
)
from .reverse import Tape, Var, gradient, vjp  # noqa: F401
from .second_order import hessian, hvp  # noqa: F401

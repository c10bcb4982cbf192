"""Finite-series summation engines.

Evaluate sums of g(alpha*k) (k = 1..N, with alternating / shifted /
exponentially damped variants) through several independent routes — an
integral representation against a decomposition of the summand into point
masses and smooth density, a transform-side route for Gaussian and
Lorentzian summands, collapsing differences with a lattice-correction tail,
and direct lattice-sum corrections — all cross-checked against a
compensated direct oracle and a verified catalog of closed forms.
"""

from .backend import active as active_backend
from .errors import (CapabilityError, ConditioningWarning, DomainError,
                     EvaluationError, FinsumError, ParseError, PoleError,
                     PreconditionError, RecognitionError)
from .eulermaclaurin import EMJob, em_sum, em_tail
from .expr import as_function, parse_expression
from .fourier import (DirichletForm, dirichlet_factor, recognize_fourier,
                      sum_via_fourier)
from .identities import (VerificationReport, eval_identity, identity_names,
                         verify_all, verify_identity)
from .kernels import Kernel, laplace_of_kernel, recognize_pair
from .laplace import (DeltaComb, delta_type_b, phi, phi_derivative,
                      sum_via_integral, type_b_sum, zeta_expansion_sum)
from .series import (Diagnostics, SeriesSpec, SumResult, Variant,
                     antidifference_sum, direct_sum, effective_term)
from .special import bernoulli, bernoulli_table, hurwitz_zeta, riemann_zeta
from .telescope import telescoping_sum, zeta_power_sum

__version__ = "0.1.0"

__all__ = [
    "CapabilityError", "ConditioningWarning", "DeltaComb", "Diagnostics",
    "DirichletForm", "DomainError", "EMJob", "EvaluationError", "FinsumError",
    "Kernel", "ParseError", "PoleError", "PreconditionError",
    "RecognitionError", "SeriesSpec", "SumResult", "VerificationReport",
    "Variant", "active_backend", "antidifference_sum", "as_function",
    "bernoulli", "bernoulli_table", "delta_type_b", "dirichlet_factor",
    "direct_sum", "effective_term", "em_sum", "em_tail", "eval_identity",
    "hurwitz_zeta", "identity_names", "laplace_of_kernel",
    "parse_expression", "phi", "phi_derivative", "recognize_fourier",
    "recognize_pair", "riemann_zeta", "sum_via_fourier",
    "sum_via_integral", "telescoping_sum", "type_b_sum", "verify_all",
    "verify_identity", "zeta_expansion_sum", "zeta_power_sum",
]

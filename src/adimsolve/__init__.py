"""Derivative-free and Newton-type solvers for nonlinear equations with
adimensional (scale-invariant) preprocessing, a-priori error-bound
recurrences, and empirical convergence-order estimation."""

from .adimensional import (AdimensionalForm, AdimensionalPolynomial,
                           adimensional_polynomial, adimensionalize,
                           check_normalization)
from .bounds import (BoundSequences, ErrorEnvelopes, HypothesesNotSatisfied,
                     MajorizingRoots, bound_table, cubic_positive_roots,
                     error_envelopes, majorizing_roots, newton_on_adim_poly,
                     newton_rate, newton_sequences, steffensen_on_adim_poly,
                     steffensen_sequences)
from .divdiff import (DividedDifference, componentwise_dd, integral_dd,
                      scalar_dd, verify_interpolatory)
from .methods import (ASIS, Bisection, DampedFirstOrder, DampedSteffensen,
                      FixedSlope, HFamily, IterationTrace, Newton, Secant,
                      Steffensen, StoppingCriteria, damped_steffensen_step,
                      h_family_step, logarithmic_convexity, newton_step,
                      secant_step, solve, steffensen_step)
from .orders import (InsufficientDataError, OrderEstimate, aq_order, q_order,
                     r_order)
from .problems import (AlreadyAtRootError, DomainError, KantorovichData,
                       LinearScaling, Problem, SingularOperatorError,
                       apply_scaling, builtin_problem, kantorovich_data)

__version__ = "0.1.0"

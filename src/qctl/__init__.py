"""Quaternionic polynomial algebra and pole placement for discrete-time
SISO systems in the backward-shift operator."""

from .errors import (QctlError, DimensionMismatch, EigensolverFailure,
                     ZeroDivisor, BothZero, NonCausal, AnnihilatorNotFound,
                     Unsolvable, DegenerateKernel, ZeroRoot,
                     NonCausalController, IllPosed, IllPosedLoop,
                     SimulationDiverged, IllConditioned, ParseError)
from .quat import (Quaternion, SimilarityClass, ZERO, ONE, I, J, K,
                   class_of, conjugate, inverse, left_mul_matrix, mul as qmul,
                   norm, right_mul_matrix, similar)
from .qmat import (QuatMatrix, RightSpectrum, add as mat_add, complex_adjoint,
                   matmul, matvec, right_eigenvalues, solve_left_linear,
                   spectral_radius_stable)
from .qpoly import (QPoly, BezoutData, ZeroReport, companion_polynomial,
                    div_quotient_left, div_quotient_right, eval_left,
                    eval_right, gcld, gcrd, left_to_right, mul as pmul,
                    right_to_left, right_zeros, scale_left, scale_right,
                    shift)
from .xfer import (LeftFraction, RightFraction, StateSpace,
                   denominator_classes_agree, fraction_equal, inverse_class,
                   is_stable, markov, pole_classes, realize, series,
                   spectrum_matches_poles, tf_left, tf_right)
from .design import (DesignResult, DiophantineSolution, build_c,
                     closed_loop_response_tfs, place_poles,
                     solve_diophantine)
from .sim import Lcg, random_state, simulate, simulate_feedback
from .serialize import (detect, dump_document, load_document, to_doc,
                        fraction_from_doc, poly_from_doc, quat_from_doc,
                        matrix_from_doc, system_from_doc)

__version__ = "0.1.0"

__all__ = [
    "QctlError", "DimensionMismatch", "EigensolverFailure", "ZeroDivisor",
    "BothZero", "NonCausal", "AnnihilatorNotFound", "Unsolvable",
    "DegenerateKernel", "ZeroRoot", "NonCausalController", "IllPosed",
    "IllPosedLoop", "SimulationDiverged", "IllConditioned", "ParseError",
    "Quaternion", "SimilarityClass", "ZERO", "ONE", "I", "J", "K",
    "class_of", "conjugate", "inverse", "left_mul_matrix", "qmul", "norm",
    "right_mul_matrix", "similar",
    "QuatMatrix", "RightSpectrum", "mat_add", "complex_adjoint", "matmul",
    "matvec", "right_eigenvalues", "solve_left_linear",
    "spectral_radius_stable",
    "QPoly", "BezoutData", "ZeroReport", "companion_polynomial",
    "div_quotient_left", "div_quotient_right", "eval_left", "eval_right",
    "gcld", "gcrd", "is_stable", "left_to_right", "pmul", "right_to_left",
    "right_zeros", "scale_left", "scale_right", "shift",
    "LeftFraction", "RightFraction", "StateSpace",
    "denominator_classes_agree", "fraction_equal",
    "inverse_class", "markov", "pole_classes", "realize", "series",
    "spectrum_matches_poles", "tf_left", "tf_right",
    "DesignResult", "DiophantineSolution", "build_c",
    "closed_loop_response_tfs", "place_poles", "solve_diophantine",
    "Lcg", "random_state", "simulate", "simulate_feedback",
    "detect", "dump_document", "load_document", "to_doc",
    "fraction_from_doc", "poly_from_doc", "quat_from_doc",
    "matrix_from_doc", "system_from_doc",
    "__version__",
]

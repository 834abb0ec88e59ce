"""Exception hierarchy. Every error carries a machine-parsable ``code``."""

from __future__ import annotations

import numpy as np


class SchemeWalkError(Exception):
    """Base class for all library errors."""

    code = "error"


class InvalidIntersectionArray(SchemeWalkError):
    code = "invalid_intersection_array"


class NonIntegerValency(SchemeWalkError):
    code = "non_integer_valency"


class DegenerateAtoms(SchemeWalkError):
    code = "degenerate_atoms"


class EigensolverNoConvergence(SchemeWalkError):
    code = "eigensolver_no_convergence"


class InvalidOrder(SchemeWalkError):
    code = "invalid_order"


class UnsupportedOrder(SchemeWalkError):
    code = "unsupported_order"


class InvalidCycleType(SchemeWalkError):
    code = "invalid_cycle_type"


class ComplexClassesWithoutSymmetrization(SchemeWalkError):
    code = "complex_classes_without_symmetrization"


class NonIntegerResult(SchemeWalkError):
    code = "non_integer_result"


class InfeasibleParameters(SchemeWalkError):
    code = "infeasible_parameters"


class UnknownCatalogName(SchemeWalkError):
    code = "unknown_catalog_name"


class BadParams(SchemeWalkError):
    code = "bad_params"


class BadParameter(SchemeWalkError):
    code = "bad_parameter"


class PoleProximity(SchemeWalkError):
    code = "pole_proximity"


class InconsistentInputs(SchemeWalkError):
    code = "inconsistent_inputs"


class DegenerateSpectrumUnmerged(SchemeWalkError):
    code = "degenerate_spectrum_unmerged"


class EngineSpecMismatch(SchemeWalkError):
    code = "engine_spec_mismatch"


class NumericalInstability(SchemeWalkError):
    """A computed result fails a numerical check although its inputs are valid."""

    code = "numerical_instability"

    @classmethod
    def check(cls, problem: str, residual, bound: float) -> None:
        """Raise when the largest |residual| exceeds ``bound``; the message quotes both."""
        defect = float(np.max(np.abs(residual)))
        if defect > bound:
            raise cls(f"{problem}: defect {defect:.3g} > bound {bound:.3g}")


class TooLarge(SchemeWalkError):
    code = "too_large"


class NonSymmetricGeneratingSet(SchemeWalkError):
    code = "non_symmetric_generating_set"


class NotDistanceRegular(SchemeWalkError):
    code = "not_distance_regular"


class SchemaError(SchemeWalkError):
    code = "schema_error"

"""Exception types shared across the solver modules."""


class XmfgError(Exception):
    """Base class for all solver errors."""

    code = "XMFG"


class SingularCouplingError(XmfgError):
    """Velocity equation has no solution (coupling coefficient equals -1)."""

    code = "SINGULAR_COUPLING"


class ContractionFailureError(XmfgError):
    """Velocity fixed-point iteration did not reach tolerance."""

    code = "CONTRACTION_FAILURE"

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ControlSaturationError(XmfgError):
    """Minimizing control pinned at +-v_max on too many core nodes."""

    code = "CONTROL_SATURATION"


class DomainTooSmallError(XmfgError):
    """Too many gradient/value queries fell outside the spatial grid."""

    code = "DOMAIN_TOO_SMALL"


class FlowBlowupError(XmfgError):
    """State or costate left the representable range during integration."""

    code = "FLOW_BLOWUP"

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ValueBlowupError(FlowBlowupError):
    """The backward value sweep or its starting profile is not finite."""

    code = "VALUE_BLOWUP"


class RiccatiBlowupError(XmfgError):
    """Backward matrix Riccati path escaped to infinity before t=0."""

    code = "RICCATI_BLOWUP"

    def __init__(self, message, blowup_time=None):
        super().__init__(message)
        self.blowup_time = blowup_time


class SingularDenominatorError(XmfgError):
    """Closed-form quartic coefficient has a pole inside the horizon."""

    code = "SINGULAR_DENOMINATOR"


class RootSolveError(XmfgError):
    """Terminal condition or horizon is outside the range of the closed form."""

    code = "ROOT_SOLVE"


class NonSmoothProbeError(XmfgError):
    """Finite differences are inconsistent: Lagrangian not smooth at probe."""

    code = "NON_SMOOTH_PROBE"


class SchemaError(XmfgError):
    """Problem document violates the input schema."""

    code = "SCHEMA"

    def __init__(self, field, expectation):
        super().__init__(f"field {field!r}: {expectation}")
        self.field = field
        self.expectation = expectation

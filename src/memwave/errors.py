"""Exception hierarchy shared by all memwave modules; every concrete error
derives from exactly one of `InputError` and `CertificationFailure`."""


class MemwaveError(Exception):
    """Base class for all errors raised by this package."""


class InputError(MemwaveError, ValueError):
    """An input or parameter is malformed or out of its range or regime (CLI exit 2)."""


class CertificationFailure(MemwaveError):
    """A certified inequality or consistency check failed (CLI exit 1)."""


class NegativeRadicand(InputError):
    """A square-root argument went negative (parameters outside the admissible range)."""


class ComplexRegime(InputError):
    """Cube-root arguments left the real configuration (phi < psi); rejected, not branch-switched."""


class PreconditionViolated(InputError):
    """An operation precondition that the caller must guarantee was violated."""


class OutOfRange(InputError):
    """A parameter is outside its documented interval."""


class RegimeError(InputError):
    """Operation requires the limiting kernel regime (eta = 3*beta/2)."""


class AuditFailure(CertificationFailure):
    """A numerically certified inequality failed; carries the offending datum."""

    def __init__(self, message: str, datum=None):
        super().__init__(message)
        self.datum = datum


class MonotonicityFailure(CertificationFailure):
    """A grid monotonicity / positivity sweep failed; carries the offending abscissa."""

    def __init__(self, message: str, abscissa=None):
        super().__init__(message)
        self.abscissa = abscissa


class PoleError(InputError):
    """Kernel evaluated too close to its pole."""


class HypothesisError(InputError):
    """One or more separated-exponent hypotheses failed; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"{len(self.violations)} hypothesis violation(s): {lines}")


class GridTooCoarse(InputError):
    """Sample grid cannot resolve the requested number of modes."""


class DegenerateExponents(InputError):
    """Two mode exponents coincide; the coefficient system is singular."""


class RealityViolation(CertificationFailure):
    """Recovered coefficients do not reproduce the initial data of a real mode."""


class NoUsableModes(InputError):
    """No mode with a nonzero oscillatory coefficient is available."""


class DegenerateMode(InputError):
    """A mode has vanishing oscillatory coefficient but a nonzero decaying one."""


class ThetaOutOfRange(InputError):
    """Decay exponent theta must exceed 1/2."""


class ParseError(InputError):
    """Config file could not be parsed; carries the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(InputError):
    """A named configuration field failed validation."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class NotPositiveWarning(UserWarning):
    """The observability constant came out nonpositive (time horizon at or below threshold)."""

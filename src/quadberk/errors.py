"""Exception hierarchy shared across the package."""


class QuadberkError(Exception):
    """Base class for all errors raised by quadberk."""


class NegativeValuationError(QuadberkError):
    """Residue reduction requested for a rational with a pole at p."""


class ZeroLeadingError(QuadberkError):
    """Newton polygon input has a vanishing leading coefficient."""


class ZeroConstantError(QuadberkError):
    """Newton polygon input has a vanishing constant coefficient
    (zero roots must be stripped by the caller first)."""


class SingularMatrixError(QuadberkError):
    """Moebius matrix with determinant zero."""


class DegenerateMapError(QuadberkError):
    """Homogeneous lift with vanishing resultant (not a degree-2 map)."""


class NonIntegralRadiusError(QuadberkError):
    """Type II point whose radius exponent is not an integer; the
    conjugating matrix would not be rational."""


class DegenerateMultipliersError(QuadberkError):
    """Multiplier pair with product 1; the associated normal form is
    degenerate."""


class UnhandledResidueCaseError(QuadberkError):
    """Multiplier data outside the supported case tree.  Nothing raises it
    any more: the case it stood for (no repelling multiplier, product
    congruent to 1, residues not all 1) is now answered by re-pairing."""


class UnboundedProfileError(QuadberkError):
    """Piecewise-affine function with no single minimizer."""


class NotNormalFormError(QuadberkError):
    """Lift not recognized as one of the two supported normal forms and
    no segment centers supplied."""


class ConsistencyFailure(QuadberkError):
    """The independent computation routes disagree.  Firing on valid
    input means an implementation bug; carries a diagnostic dump."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}

    def __str__(self) -> str:
        base = super().__str__()
        if not self.details:
            return base
        lines = [base]
        for key, value in self.details.items():
            lines.append(f"  {key} = {value!r}")
        return "\n".join(lines)


class InternalInvariantError(ConsistencyFailure):
    """An internal cross-check failed (dual routes disagree): a bug, so CLI exit code 2."""


class MapSyntaxError(QuadberkError):
    """Malformed map expression; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class DegreeError(QuadberkError):
    """Parsed rational function is not of degree 2."""

"""Exception taxonomy shared by all dyncross modules."""


class DyncrossError(Exception):
    """Base class for every error raised by this package."""


class InvalidTopology(DyncrossError):
    """The minimal-open-neighbourhood map does not generate a topology."""


class NotHomeomorphism(DyncrossError):
    """The given map is not a bijection or not bicontinuous."""


class BadWindow(DyncrossError):
    """Window radius violates the backend constraints."""


class TooLarge(DyncrossError):
    """An input would build a model beyond its module's size budget."""


class ForeignPoint(DyncrossError):
    """A point does not belong to the space it was used with."""


class NotContinuous(DyncrossError):
    """A raw value assignment fails the continuity gate."""


class SpaceMismatch(DyncrossError):
    """Operands live over different spaces."""


class WindowOverflow(DyncrossError):
    """An exact result would need data outside the fixed window."""


class ProjectionUnavailable(DyncrossError):
    """No norm-one projection onto the commutant exists for this system.

    Carries a topological witness: the shift power ``k`` whose fixed-point
    interior is not closed, and a boundary ``point`` in its closure.
    """

    def __init__(self, k, point):
        self.k = k
        self.point = point
        super().__init__(
            f"no projection: interior of the k={k} fixed-point set "
            f"is not closed (witness point {point})"
        )


class NotInCommutant(DyncrossError):
    """The element is not in the commutant of the function algebra."""


class TruncationTooSmall(DyncrossError):
    """Truncation radius too small for the element's degree."""


class ParseError(DyncrossError):
    """Malformed input: a space or element description, or a CLI value."""

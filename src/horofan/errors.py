"""Exception types shared across the package.

The hierarchy mirrors how the CLI maps failures to exit codes: parse errors
(malformed documents), validation errors (structurally invalid mathematical
data), and precondition errors (valid data fed to an operation whose
hypotheses it does not satisfy).
"""

from __future__ import annotations


class HorofanError(Exception):
    """Base class for every error raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class ParseError(HorofanError):
    """Malformed input document."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class UnresolvedIdentifier(ParseError):
    """A node or colour identifier does not resolve against the group."""


class ValidationError(HorofanError):
    """Structurally invalid mathematical data."""


class PreconditionError(HorofanError):
    """Operation applied to data outside its stated preconditions."""


# --- diagram-level ---------------------------------------------------------

class UnknownDiagram(ValidationError):
    """A component is not one of the finite-type decorated graphs A-G."""


class BadParabolic(ValidationError):
    """The parabolic subset is not contained in the node set."""


class UnknownNode(ValidationError):
    """A node identifier is not part of the diagram."""


class UnknownColour(ValidationError):
    """A colour identifier is not part of the universal colour set."""


# --- lattice / cone level --------------------------------------------------

class DimensionMismatch(ValidationError):
    """Vectors of inconsistent length for the ambient lattice."""


class ZeroVector(ValidationError):
    """A nonzero vector was required."""


class NotStronglyConvex(ValidationError):
    """The cone contains a line."""


# --- coloured fan level ----------------------------------------------------

class ColourPointOutsideCone(ValidationError):
    """A cone lists a colour whose point does not lie on the cone."""


class ZeroColourPoint(ValidationError):
    """A cone lists a colour whose point is the origin."""


class OverlappingCones(ValidationError):
    """Two cones intersect in something that is not a common face."""


class InconsistentColours(ValidationError):
    """The same cone appears with two different colour sets."""


class ColourSetMismatch(ValidationError):
    """Lattice colours do not match the diagram's colour set."""


# --- preconditions ---------------------------------------------------------

class HasTorusFactors(PreconditionError):
    """Cox construction requires a fan without torus factors; split first."""

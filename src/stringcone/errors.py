"""Exception types shared across the package.

Every error carries a ``stage`` label so the command line tool can map
failures to distinct exit codes.
"""


class StringConeError(Exception):
    """Base class for all package errors."""

    stage = "general"


class RootSystemError(StringConeError):
    """Unsupported root-system request or inconsistent Cartan data."""

    stage = "cartan"


class WordError(StringConeError):
    """A Weyl word failed validation (letter range, reducedness, length)."""

    stage = "cartan"


class WeightError(StringConeError):
    """A weight failed validation, typically a dominance requirement."""

    stage = "crystal"


class EnumerationCapError(StringConeError):
    """A combinatorial enumeration exceeded its configured cap."""

    stage = "crystal"


class InvariantViolation(StringConeError):
    """A structural invariant that the pipeline certifies was violated."""

    stage = "strings"


class PolyhedralError(StringConeError):
    """Invalid polyhedral input (empty hull, bad grading, unpointed cone)."""

    stage = "polyhedra"


class DegenerationError(StringConeError):
    """Invalid input to the degeneration pipeline."""

    stage = "degeneration"

"""Exception hierarchy for the engine.

Every failure mode has a dedicated class so callers (and the CLI exit-code
mapping) can tell resource exhaustion apart from bad input or a genuine
mathematical obstruction.
"""


class CartierLabError(Exception):
    """Base class for all engine errors."""


class RingMismatchError(CartierLabError):
    """Operands belong to different rings."""


class ParseError(CartierLabError):
    """Bad polynomial or scene text; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            where = f"line {line}" if column is None \
                else f"line {line}, column {column}"
            message = f"{message} ({where})"
        super().__init__(message)
        self.line = line
        self.column = column


class ResourceCapError(CartierLabError):
    """A configured hard cap was exceeded; never a silent truncation."""


class InvalidStructureError(CartierLabError):
    """Operator matrices do not preserve the presentation relations.

    ``witness`` is a triple (generator index, relation index, basis monomial)
    identifying one failing compatibility check.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class UnsupportedShapeError(CartierLabError):
    """Input falls outside a restricted decision procedure."""


class SearchBudgetError(CartierLabError):
    """A candidate search ran out of budget; diagnostics in the message."""


class NoStabilizationError(CartierLabError):
    """An ascending or descending chain failed to stabilize within its cap."""


class NotEquivariantError(CartierLabError):
    """A map does not commute with the structural operators; witness attached."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class GaugeBoundError(CartierLabError):
    """No uniform gauge bound could be established for a generator family."""

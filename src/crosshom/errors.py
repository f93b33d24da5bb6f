"""Exception types shared across the toolkit, the size guard behind
SearchSpaceTooLarge, and the one check of integer parameters."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(ToolkitError):
    """Operands have incompatible shapes or live over different ambients."""


class SingularMatrix(ToolkitError):
    """Inversion was requested for a rank-deficient matrix."""


class NotAction(ToolkitError):
    """The supplied matrices do not define an action by derivations."""


class NotCrossedHom(ToolkitError):
    """The supplied linear map violates the crossed-homomorphism identity."""


class NotNijenhuis(ToolkitError):
    """The supplied element fails one of the Nijenhuis conditions."""


class SearchSpaceTooLarge(ToolkitError):
    """A grid enumeration would exceed the candidate guard."""


# Cap on what an enumeration visits: the exponent tuples of a window, the
# identities a windowed check tests, and the candidates of the grid searches.
MAX_WINDOW_COUNT = 10**7


def require_window_count(count: int, what: str) -> int:
    if count > MAX_WINDOW_COUNT:
        raise SearchSpaceTooLarge(f"{count} {what} exceed the {MAX_WINDOW_COUNT} guard")
    return count


def require_int(error: type[ToolkitError], what: str, values: tuple, stop: int | None = None) -> None:
    """The one check of integer parameters (directions, variables, bounds, a
    component, a rank): error unless each value is an int, a bool refused,
    and, with stop, an index in 0..stop-1."""
    for v in values:
        if type(v) is not int:
            raise error(f"{what}: {v!r} is not an integer")
        if stop is not None and not 0 <= v < stop:
            raise error(f"{what} {values[0] if len(values) == 1 else values} outside 0..{stop - 1}")


def require_size(what: str, value) -> None:
    """DimensionMismatch unless value is an int >= 0: a rank or a dimension."""
    require_int(DimensionMismatch, what, (value,))
    if value < 0:
        raise DimensionMismatch(f"{what} {value} is negative")


def require_no_findings(findings, error: type[ToolkitError]) -> None:
    """The one failed-precondition raise: `error` with every finding joined by
    '; ', when there are any."""
    if findings:
        raise error("; ".join(str(f) for f in findings))


class IndexOutOfRange(ToolkitError):
    """A direction index is outside 0..n-1."""


class MalformedP(ToolkitError):
    """A twisting polynomial p_i involves a variable other than x_i."""


class NotDerivation(ToolkitError):
    """A supplied operator violates the Leibniz rule on some basis pair."""


class NotCommuting(ToolkitError):
    """Two supplied derivations fail to commute."""


class InvalidPair(ToolkitError):
    """The supplied data is not a Leibniz pair."""


class ParseError(ToolkitError):
    """A definition file is syntactically or referentially malformed."""


class ShapeError(ToolkitError):
    """A definition file carries data of the wrong dimensions."""


class InvariantError(ToolkitError):
    """A file claiming certified structure fails its invariants."""

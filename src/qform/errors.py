"""Exception hierarchy shared by the whole package.

Every failure that a caller can meaningfully react to gets its own class;
the CLI maps them onto distinct exit codes.  The node counter that
raises ``NodeLimitExceeded`` lives here too, so the oracle's searches
and the factoring behind the stable-class counts share one budget.
"""

DEFAULT_NODE_LIMIT = 200_000


class QformError(Exception):
    """Base class for all package errors.

    ``path`` is the JSON path of the document object being read when the
    error was raised, or None; the CLI reports it beside the message.
    """

    path: str | None = None


class DimensionMismatch(QformError):
    """Matrix or vector dimensions do not line up."""


class NotWellDefined(QformError):
    """A map does not respect the relations of its source or target."""


class NotASummand(QformError):
    """A subgroup that was required to be a direct summand is not one."""


class NoSolution(QformError):
    """An exact linear system has no integral solution."""


class HypothesisError(QformError):
    """A stated hypothesis of an operation fails.

    ``condition`` names the failing requirement so callers (and the CLI)
    can report it without parsing the message.
    """

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        msg = condition if not detail else f"{condition}: {detail}"
        super().__init__(msg)


class VMissing(HypothesisError):
    """An operation needed the quadratic refinement v but none is attached."""

    def __init__(self, detail: str = ""):
        super().__init__("v missing", detail)


class NodeLimitExceeded(QformError):
    """A bounded search ran out of its node budget."""


class NodeCounter:
    """Counts visited nodes and aborts once the cap is passed."""

    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int):
        self.nodes = 0
        self.limit = limit

    def tick(self, nodes: int = 1) -> None:
        self.nodes += nodes
        if self.nodes > self.limit:
            raise NodeLimitExceeded("search passed %d nodes" % self.limit)


class SchemaError(QformError):
    """A JSON document does not match the expected schema.

    ``path`` locates the offending field, e.g. ``"form.lambda[2][0]"``.
    """

    def __init__(self, path: str, detail: str):
        self.path = path
        super().__init__(f"{path}: {detail}")

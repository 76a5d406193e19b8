"""The library's three exception types, one per exit code of the CLI.

Every deliberate refusal in the library raises one of these, and each
carries the exit code and error kind the CLI reports for it.  The CLI ends
an OSError with exit 4 and any other exception as a bug (kind "internal",
exit 1).
"""


class Precondition(ValueError):
    """Bad input (exit 2).  kind is "precondition", or "parse" or "surface"
    for the CLI's own argument checks."""

    exit_code = 2

    def __init__(self, message: str, kind: str = "precondition"):
        super().__init__(message)
        self.kind = kind


class BudgetExceeded(RuntimeError):
    """The input asks for more work or memory than a fixed budget (exit 3)."""

    exit_code = 3
    kind = "budget"


class InvariantError(RuntimeError):
    """An internal invariant or closed-form cross-check does not hold; this
    signals a bug, not bad input (exit 1)."""

    exit_code = 1
    kind = "internal"

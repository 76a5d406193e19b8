"""The library's three exception types, one per exit code of the CLI, and
the one owner of the interpreter's limit on printing an int.

Every deliberate refusal in the library raises one of these, and each
carries the exit code and error kind the CLI reports for it.  The CLI ends
an OSError with exit 4 and any other exception as a bug (kind "internal",
exit 1), but for a result too long to print (exit 2).  Messages name a
computed integer through int_text, so no message fails to print.
"""

import sys


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


def print_limit() -> int:
    """sys.get_int_max_str_digits(); 0, no limit, before Python 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _prints(a: int) -> bool:
    """Whether the interpreter prints the int a >= 0; 10^L is formed only
    past 3L bits, since 2^(3L) < 10^L."""
    limit = print_limit()
    return not limit or a.bit_length() <= 3 * limit or a < 10 ** limit


def check_printable(what: str, *ints: int) -> None:
    """Refuse, as a Precondition, integers the interpreter would not print."""
    if not _prints(max(map(abs, ints))):
        raise Precondition(f"{what} would print an integer of more than "
                           f"{print_limit()} digits")


def int_text(n: int, noun: str = "") -> str:
    """f"{n} {noun}" for a message, or "a D-digit number of {noun}" (D exact)
    when n has more digits than the interpreter prints."""
    a = abs(n)
    if _prints(a):
        return f"{n} {noun}".rstrip()
    d = int((a.bit_length() - 1) * 0.30102999566398) + 1    # off by at most one
    d += (a >= 10 ** d) - (a < 10 ** (d - 1))
    return f"a {d}-digit {'negative ' * (n < 0)}number{' of ' * bool(noun)}{noun}"


def ints_text(t: tuple) -> str:
    """str(t) for a tuple of ints, each entry through int_text."""
    return f"({', '.join(map(int_text, t))}{',' * (len(t) == 1)})"


def ratio_text(x) -> str:
    """str(x) for an int or a Fraction, its numerator and denominator each
    through int_text; str(x) for anything else."""
    den = getattr(x, "denominator", None)
    if not isinstance(den, int):
        return str(x)
    return int_text(x.numerator) + (f"/{int_text(den)}" if den != 1 else "")


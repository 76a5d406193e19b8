import pytest

from surfcodes import codes as cd
from surfcodes import gf
from surfcodes import surfaces as sf
from surfcodes import towers as tw
from surfcodes.errors import (BudgetExceeded, Precondition, check_printable,
                              int_text, print_limit)


def test_print_limit_is_the_interpreters():
    assert print_limit() == 4300


@pytest.mark.parametrize("digits", [1, 2, 4299, 4300, 4301, 4302, 8001, 100_000])
def test_int_text_names_the_exact_digit_count(digits):
    # a count the interpreter prints stays as it is; a longer one is named
    # by its digit count, exact at both ends of each power of ten
    for n in (10 ** (digits - 1), 10 ** digits - 1):
        if digits <= 4300:
            assert int_text(n) == str(n)
            assert int_text(-n, "points") == f"{-n} points"
        else:
            assert int_text(n) == f"a {digits}-digit number"
            assert int_text(n, "points") == f"a {digits}-digit number of points"
            assert int_text(-n) == f"a {digits}-digit negative number"


def test_check_printable_is_exact():
    check_printable("x", 10 ** 4300 - 1, -(10 ** 4300 - 1))
    with pytest.raises(Precondition,
                       match="^x would print an integer of more than 4300 digits$"):
        check_printable("x", 1, -(10 ** 4300))


@pytest.mark.parametrize("call, exc, message", [
    (lambda: cd.exact_min_distance(cd.LinearCode(gf.make_field(2), 1, 14300, (), 0)),
     BudgetExceeded,
     "enumeration needs a 4305-digit number of messages, budget is 10000000"),
    (lambda: cd.rational_locus_check(14300, 2, 1), BudgetExceeded,
     "P^14300(F_2) has a 4306-digit number of points, budget is 10000000"),
    (lambda: tw.sample_branch_poly(7, -10 ** 4400, "linear", 1), Precondition,
     "linear factor count must be >= 0, got a 4401-digit negative number"),
    (lambda: tw.hyperelliptic_product_certificate(67, 10 ** 4300, 2, 1), Precondition,
     "only 67 linear factors exist, need a 4301-digit number"),
    (lambda: sf.riemann_roch_lower(sf.projective_plane(),
                                   sf.projective_plane().divisor(-10 ** 4400),
                                   sf.projective_plane().divisor(1)), Precondition,
     "G.H = a 4401-digit negative number must exceed K.H = -3"),
], ids=["enumeration", "locus_points", "factor_count", "linear_factors", "riemann_roch"])
def test_library_messages_name_long_integers_by_digits(call, exc, message):
    # a message that embeds a computed integer never fails to print
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message

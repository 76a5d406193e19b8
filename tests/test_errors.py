import os
from fractions import Fraction

import pytest

from surfcodes import asymptotic as asy
from surfcodes import bounds as bd
from surfcodes import codes as cd
from surfcodes import gf
from surfcodes import surfaces as sf
from surfcodes import towers as tw
from surfcodes.errors import (BudgetExceeded, Precondition, check_printable,
                              int_text, ints_text, print_limit)

B = 10 ** 4999                      # 5000 digits, past the 4300-digit print limit
P2 = sf.projective_plane()


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
     "P^14300(F_2) has more points than the budget of 10000000"),
    (lambda: cd.rational_locus_check(B, 2, 1), BudgetExceeded,
     "P^a 5000-digit number(F_2) has more points than the budget of 10000000"),
    (lambda: cd.rational_locus_check(1, 2, B), Precondition,
     "2^a 5000-digit number exceeds 65536"),
    (lambda: cd.rational_locus_check(-5, 2, 1), Precondition, "ell must be >= 0, got -5"),
    (lambda: cd.rational_locus_check(-1, 3, 1), Precondition, "ell must be >= 0, got -1"),
    (lambda: gf.extension_field(gf.field_from_order(3), B), Precondition,
     "3^a 5000-digit number exceeds 65536"),
    (lambda: tw.sample_branch_poly(7, -10 ** 4400, "linear", 1), Precondition,
     "linear factor count must be >= 0, got a 4401-digit negative number"),
    (lambda: tw.hyperelliptic_product_certificate(67, 10 ** 4300, 2, 1), Precondition,
     "only 67 linear factors exist, need a 4301-digit number"),
    (lambda: tw.r_t_upper(-B), Precondition,
     "rho must be >= 1, got a 5000-digit negative number"),
    (lambda: tw.hyperelliptic_product_certificate(67, 3, 3, -B), Precondition,
     "rho must be >= 1, got a 5000-digit negative number"),
    (lambda: sf.riemann_roch_lower(sf.projective_plane(),
                                   sf.projective_plane().divisor(-10 ** 4400),
                                   sf.projective_plane().divisor(1)), Precondition,
     "G.H = a 4401-digit negative number must exceed K.H = -3"),
    (lambda: sf.riemann_roch_lower(P2, P2.divisor(1), P2.divisor(-B)), Precondition,
     "H = (a 5000-digit negative number,) is not ample"),
    (lambda: sf.hirzebruch(-B), Precondition,
     "Hirzebruch parameter e must be >= 0, got a 5000-digit negative number"),
    (lambda: asy.phi_g(2, B, asy.asym_point(0, 0)), Precondition,
     "need 2 <= g <= q, got g = a 5000-digit number, q = 2"),
    (lambda: asy.polygon_image(-B, 2), Precondition,
     "need 2 <= g <= q, got g = 2, q = a 5000-digit negative number"),
    (lambda: asy.emit_diagram(2, 2, -B, os.devnull), Precondition,
     "grid_n must be >= 2, got a 5000-digit negative number"),
    (lambda: asy.emit_diagram(2, 2, B, os.devnull), BudgetExceeded,
     "a 5000-digit number^2 diagram samples exceed 250000"),
    (lambda: gf.field_from_order(-B), Precondition,
     "a 5000-digit negative number is not a prime power"),
    (lambda: gf.field_from_order(B), Precondition, "q = a 5000-digit number exceeds 65536"),
    (lambda: gf.make_field(2, -B), Precondition,
     "exponent m must be >= 1, got a 5000-digit negative number"),
    (lambda: gf.make_field(B), Precondition, "q = a 5000-digit number^1 exceeds 65536"),
    (lambda: cd.section_count(P2, P2.divisor(-B)), Precondition,
     "no sections for divisor (a 5000-digit negative number,) on P2"),
    (lambda: cd.grid_sides(sf.quadric_p1xp1(), 3, ((B,), (0,))), Precondition,
     "grid entry a 5000-digit number is not an element of F_3"),
    (lambda: bd.aubry_bound(1, 2, P2.divisor(-B)), Precondition,
     "D = (a 5000-digit negative number,) is not very ample"),
    (lambda: bd.hansen_curve_bound_uniform(1, 0, 1, B, 1), Precondition,
     "eta = a 5000-digit number exceeds the point cap 1"),
    (lambda: bd.hansen_seshadri_bound(1, 1, xi=-B), Precondition,
     "xi must be >= 1, got a 5000-digit negative number"),
    (lambda: bd.hansen_seshadri_bound(1, 1, epsilon=Fraction(-1, B)), Precondition,
     "epsilon must be positive, got -1/a 5000-digit number"),
    (lambda: bd.lifted_bound(bd.parameter_report(P2, P2.divisor(1), 2), -B), Precondition,
     "degree must be >= 1, got a 5000-digit negative number"),
    # bounds reasons, returned in the report rather than raised
    (lambda: bd.parameter_report(sf.hirzebruch(B), sf.hirzebruch(B).divisor(1, 1), 3)
     .entry("interpolating").reason, None,
     "Gamma = (q+1)L with L = (a 5000-digit number, 1); Gamma.G = 8; "
     "Gamma^2 = a 5001-digit number >= n is True"),
    (lambda: bd.parameter_report(P2, P2.divisor(B), 2).entry("aubry").reason, None,
     "G = (a 5000-digit number,) is very ample"),
    (lambda: bd.parameter_report(sf.hirzebruch(B), sf.hirzebruch(B).divisor(1, 1), 3,
                                 tag="grid", grid=((0,), (0,))).entry("grid").reason,
     None, "affine 1x1 grid on Hirzebruch(a 5000-digit number)"),
    (lambda: bd.lifted_bound(bd.parameter_report(P2, P2.divisor(1), 2), B)
     .entry("interpolating").reason, None,
     "pullback along a degree-a 5000-digit number totally split cover; "
     "relative bound 4/7 preserved"),
    (lambda: bd.parameter_report(P2, P2.divisor(1), 2, xi=B).entry("hansen_S2").reason,
     None, "caller-supplied xi = a 5000-digit number"),
    (lambda: bd.parameter_report(P2, P2.divisor(1), 2, epsilon=Fraction(B, 3))
     .entry("hansen_S1").reason, None,
     "caller-supplied Seshadri lower bound epsilon = a 5000-digit number/3"),
], ids=["enumeration", "locus_points", "locus_ell", "locus_m", "locus_negative_ell",
        "locus_ell_minus_one", "extension_degree", "factor_count",
        "linear_factors", "rho", "certificate_rho", "riemann_roch",
        "riemann_roch_h", "hirzebruch", "phi_g", "polygon_image", "diagram_grid",
        "diagram_budget", "field_order", "field_order_big", "field_exponent", "field_prime",
        "section_count", "grid_entry", "aubry", "uniform_eta", "seshadri_xi",
        "seshadri_epsilon", "lift_degree", "report_l", "report_g", "report_grid",
        "lift_reason", "report_xi", "report_epsilon"])
def test_library_messages_name_long_integers_by_digits(call, exc, message):
    # a message that embeds a computed integer never fails to print
    if exc is None:
        assert call() == message
        return
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("t", [(), (0,), (-3,), (1, 2), (5, -6, 7)])
def test_ints_text_reads_as_the_tuple(t):
    # short coordinates print byte-identical to the tuple they came from
    assert ints_text(t) == str(t)

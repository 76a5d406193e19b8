import random
from fractions import Fraction

import itertools

import pytest

from oracles import box_ample_h
from surfcodes import codes as cd
from surfcodes import surfaces as sf
from surfcodes.bounds import (_find_ample_h, aubry_bound, gamma_square_check,
                              hansen_curve_bound, hansen_curve_bound_uniform,
                              hansen_seshadri_bound, hirzebruch_grid_bound,
                              interpolating_bound, lifted_bound,
                              parameter_report, product_grid_bound,
                              seshadri_upper, universal_gamma)
from surfcodes.errors import Precondition


class TestUniversalGamma:
    def test_quadric(self):
        s = sf.quadric_p1xp1()
        g = universal_gamma(s, s.divisor(1, 1), 3)
        assert g.coords == (4, 4)

    def test_hirzebruch(self):
        s = sf.hirzebruch(1)
        g = universal_gamma(s, s.divisor(2, 1), 3)
        assert g.coords == (8, 4)

    def test_affine_chart(self):
        s = sf.projective_plane()
        g = universal_gamma(s, s.divisor(1), 2, affine_chart=True)
        assert g.coords == (2,)

    def test_not_very_ample(self):
        s = sf.hirzebruch(2)
        with pytest.raises(Precondition,
                           match=r"^L = \(2, 1\) is not very ample on Hirzebruch$"):
            universal_gamma(s, s.divisor(2, 1), 3)
        cp = sf.curve_product(3, 3, 9, 9)
        with pytest.raises(Precondition,
                           match=r"^L = \(1, 1\) is undecided on CurveProduct$"):
            universal_gamma(cp, cp.divisor(1, 1), 3)


class TestIndividualBounds:
    def test_interpolating_examples(self):
        s = sf.quadric_p1xp1()
        assert interpolating_bound(16, s.divisor(4, 4), s.divisor(1, 1)) == 8
        assert interpolating_bound(16, s.divisor(4, 4), s.divisor(0, 0)) == 16

    def test_interpolating_hirzebruch_simplifies(self):
        # Gamma = (q+1)((e+1)F + S) against (u, v) gives (q+1)^2 - (q+1)(u+v)
        for e in range(4):
            s = sf.hirzebruch(e)
            for q in (2, 3, 4):
                gamma = universal_gamma(s, s.divisor(e + 1, 1), q)
                n = (q + 1) ** 2
                for u in range(4):
                    for v in range(4):
                        assert interpolating_bound(n, gamma, s.divisor(u, v)) \
                            == n - (q + 1) * (u + v)

    def test_interpolating_mismatch(self):
        with pytest.raises(Precondition, match="live on different surfaces"):
            interpolating_bound(9, sf.quadric_p1xp1().divisor(1, 1),
                                sf.hirzebruch(0).divisor(1, 1))

    def test_gamma_square(self):
        p2 = sf.projective_plane()
        assert gamma_square_check(p2.divisor(4), 13)
        q = sf.quadric_p1xp1()
        assert gamma_square_check(q.divisor(4, 4), 16)
        assert not gamma_square_check(q.divisor(1, 1), 16)

    def test_aubry(self):
        s = sf.quadric_p1xp1()
        assert aubry_bound(16, 3, s.divisor(1, 1)) == 8
        for a in range(1, 4):
            for b in range(1, 4):
                assert aubry_bound(16, 3, s.divisor(a, b)) == 16 - 2 * a * b * 4
        p2 = sf.projective_plane()
        assert aubry_bound(7, 2, p2.divisor(1)) == 4
        with pytest.raises(Precondition, match=r"^D = \(1, 0\) is not very ample$"):
            aubry_bound(16, 3, s.divisor(1, 0))

    def test_hansen_curves(self):
        assert hansen_curve_bound(16, 1, 4, [1, 1, 1]) == 9
        assert hansen_curve_bound(16, 0, 4, [1, 1, 1]) == 13
        with pytest.raises(Precondition, match="all L.C_i must be >= 0"):
            hansen_curve_bound(16, 1, 4, [1, -1])

    def test_hansen_uniform_recovers_quadric_formula(self):
        # q+1 lines of one ruling, N = q+1 points each, G = aH + bV meeting
        # each in b points, at most a of them inside a zero set
        for q in (2, 3, 4):
            n = (q + 1) ** 2
            for a in range(1, 3):
                for b in range(1, 3):
                    got = hansen_curve_bound_uniform(n, a, q + 1, b, q + 1)
                    assert got == n - (q + 1) * (a + b) + a * b

    def test_hansen_seshadri(self):
        assert hansen_seshadri_bound(16, 2, xi=4) == 8
        assert hansen_seshadri_bound(16, 2, epsilon=Fraction(1)) == 14
        assert hansen_seshadri_bound(10, 3, epsilon=Fraction(2, 3)) == 10 - 5
        with pytest.raises(Precondition, match="epsilon must be positive, got 0"):
            hansen_seshadri_bound(16, 2, epsilon=Fraction(0))
        with pytest.raises(Precondition, match="xi must be >= 1, got 0"):
            hansen_seshadri_bound(16, 2, xi=0)
        with pytest.raises(ValueError):
            hansen_seshadri_bound(16, 2)

    def test_seshadri_s2_with_xi_qplus1_equals_aubry(self):
        s = sf.quadric_p1xp1()
        for q in (2, 3, 4, 5):
            n = (q + 1) ** 2
            d = s.divisor(1, 1)
            assert hansen_seshadri_bound(n, sf.intersect(d, d), xi=q + 1) \
                == aubry_bound(n, q, d)

    def test_seshadri_upper(self):
        assert seshadri_upper(8, 16) == Fraction(1, 2)
        assert seshadri_upper(0, 5) == 0
        with pytest.raises(ValueError):
            seshadri_upper(1, 0)

    def test_product_grid(self):
        assert product_grid_bound(9, 3, 3, 1, 1) == 3
        assert product_grid_bound(9, 3, 3, 0, 0) == 9

    def test_hirzebruch_grid(self):
        assert hirzebruch_grid_bound(3, 3, 1, 1, 1) == 3
        assert hirzebruch_grid_bound(3, 3, 1, 1, 0) == 9 - 3
        for a in range(1, 5):
            for b in range(1, 5):
                for u in range(3):
                    for v in range(3):
                        assert hirzebruch_grid_bound(a, b, 0, u, v) == \
                            product_grid_bound(a * b, a, b, u, v)


class TestDominance:
    def test_interpolating_dominates_aubry(self):
        # on G = d*L with L very ample, the gap is (q+1)(d^2-d)L^2
        cases = [(sf.projective_plane(), sf.projective_plane().divisor(1)),
                 (sf.quadric_p1xp1(), sf.quadric_p1xp1().divisor(1, 1))]
        cases += [(sf.hirzebruch(e), sf.hirzebruch(e).divisor(e + 1, 1))
                  for e in range(4)]
        for s, ell in cases:
            lsq = sf.intersect(ell, ell)
            for q in (2, 3, 4, 5):
                n = sf.point_count(s, q)
                gamma = universal_gamma(s, ell, q)
                for d in range(1, 5):
                    g = d * ell
                    ours = interpolating_bound(n, gamma, g)
                    aub = aubry_bound(n, q, g)
                    assert ours - aub == (q + 1) * (d * d - d) * lsq
                    assert ours >= aub
                    assert (ours == aub) == (d == 1)


class TestParameterReport:
    def test_quadric_q3(self):
        s = sf.quadric_p1xp1()
        rep = parameter_report(s, s.divisor(1, 1), 3, exact_budget=10 ** 6)
        assert rep.n == 16
        assert rep.k_lower == 4
        assert rep.entry("interpolating").value == 8
        assert rep.entry("aubry").value == 8
        assert rep.exact == {"k": 4, "d": 9}

    def test_hirzebruch_q3_defect(self):
        s = sf.hirzebruch(1)
        rep = parameter_report(s, s.divisor(1, 1), 3, exact_budget=10 ** 6)
        assert rep.n == 16
        assert rep.k_lower == 3
        assert rep.entry("interpolating").value == 8
        assert not rep.entry("aubry").applicable
        assert rep.exact["d"] == 9
        assert rep.defect() == 1 == 1 + 1 - 1 + 3 * (1 - 1)  # u+v-1+q(v-1)

    def test_injectivity_gate(self):
        s = sf.quadric_p1xp1()
        rep = parameter_report(s, s.divisor(3, 3), 2)
        assert rep.n == 9
        assert rep.k_lower is None
        assert rep.to_json_dict()["k_lower"] == "n/a"

    def test_entries_bounded_by_n_and_exact(self):
        s = sf.quadric_p1xp1()
        rep = parameter_report(s, s.divisor(2, 2), 3, exact_budget=10 ** 6,
                               xi=4, epsilon=Fraction(1, 4))
        for e in rep.entries:
            if e.applicable:
                assert e.value <= rep.n
                assert e.value <= rep.exact["d"]

    def test_grid_report(self):
        s = sf.hirzebruch(1)
        rep = parameter_report(s, s.divisor(1, 1), 3, tag="grid",
                               gamma="universal-affine", exact_budget=10 ** 5)
        assert rep.n == 9
        assert rep.entry("grid").value == 3
        assert rep.entry("grid").value <= rep.exact["d"]

    def test_curve_product_report(self):
        # the catalog knows no very ample class on a product of curves, so
        # the interpolating bound, the dimension bound and Aubry are all
        # reported inapplicable
        s = sf.curve_product(2, 2, 8, 8)
        rep = parameter_report(s, s.divisor(1, 1), 3)
        assert rep.n == 64
        inter = rep.entry("interpolating")
        assert (inter.value, inter.applicable, inter.reason) == (
            None, False, "no very ample class known in the catalog for this surface")
        assert not rep.entry("aubry").applicable
        assert rep.k_lower is None and rep.to_json_dict()["k_lower"] == "n/a"

    def test_long_q_report(self):
        # with q = 10^2200 + 7, n and Gamma^2 have 4401 digits, more than the
        # interpreter prints: the report is still built, and its reasons name
        # those integers by their digits
        q = 10 ** 2200 + 7
        s = sf.quadric_p1xp1()
        rep = parameter_report(s, s.divisor(1, 1), q, exact_budget=10 ** 6, xi=2,
                               epsilon=Fraction(1, 2))
        assert rep.n == (q + 1) ** 2 and rep.exact is None
        assert rep.entry("interpolating").value == (q + 1) ** 2 - 2 * (q + 1)
        assert rep.entry("interpolating").reason.endswith(
            f"Gamma.G = {2 * (q + 1)}; Gamma^2 = a 4401-digit number >= n is True")
        p2 = sf.projective_plane()
        lifted = lifted_bound(parameter_report(p2, p2.divisor(1), q), 2)
        assert lifted.entry("interpolating").reason == (
            "pullback along a degree-2 totally split cover; relative bound "
            "a 4401-digit number/a 4401-digit number preserved")

    def test_seshadri_upper_consistency(self):
        # any caller epsilon whose S1 bound is at most the interpolating one
        # must sit below Gamma.G/n
        rng = random.Random(12)
        cases = [(sf.projective_plane(), sf.projective_plane().divisor(1)),
                 (sf.quadric_p1xp1(), sf.quadric_p1xp1().divisor(1, 1)),
                 (sf.hirzebruch(2), sf.hirzebruch(2).divisor(3, 1))]
        for s, ell in cases:
            for q in (2, 3, 4, 5):
                n = sf.point_count(s, q)
                gamma = universal_gamma(s, ell, q)
                gdotg = sf.intersect(gamma, ell)
                ours = n - gdotg
                upper = seshadri_upper(gdotg, n)
                lsq = sf.intersect(ell, ell)
                for _ in range(40):
                    eps = Fraction(rng.randrange(1, 60), rng.randrange(1, 60))
                    s1 = hansen_seshadri_bound(n, lsq, epsilon=eps)
                    if s1 <= ours:
                        assert eps <= upper


def test_ample_scan_matches_box_scan():
    # every catalog ample class has positive coordinates, so scanning 1..10
    # finds the class the whole -10..10 box found first: 4,400 divisors
    surfaces = [sf.projective_plane(), sf.quadric_p1xp1(),
                *(sf.hirzebruch(e) for e in range(5)), sf.curve_product(2, 3, 5, 7)]
    checked = 0
    for s in surfaces:
        for coords in itertools.product(range(-12, 13), repeat=s.ns_rank):
            g = s.divisor(*coords)
            assert _find_ample_h(s, g) == box_ample_h(s, g), (s, coords)
            checked += 1
    assert checked == 4400


def test_quadric_agrees_with_hirzebruch_zero():
    # P1xP1 is F_0 with H = F and V = S: the quadric's (a, b) read as F_0's
    # (u, v) gives the same sections, flags, points and bound values
    quad, f0 = sf.quadric_p1xp1(), sf.hirzebruch(0)

    def outcome(f, *args):
        try:
            return f(*args)
        except Precondition:            # an empty system, named by its kind
            return Precondition

    for coords in itertools.product(range(-2, 4), repeat=2):
        d, d0 = quad.divisor(*coords), f0.divisor(*coords)
        assert (sf.ampleness_flags(quad, d) == sf.ampleness_flags(f0, d0)), coords
        assert outcome(cd.section_count, quad, d) == outcome(cd.section_count, f0, d0)
        assert outcome(cd.section_basis, quad, d) == outcome(cd.section_basis, f0, d0)
    for q in (2, 3, 4, 5):
        assert cd.rational_points(quad, q) == cd.rational_points(f0, q)
        for coords in itertools.product(range(-1, 3), repeat=2):
            for tag, grid in (("all", None), ("grid", None), ("grid", ((0, q - 1), (1,)))):
                reports = [parameter_report(s, s.divisor(*coords), q, tag=tag, grid=grid,
                                            epsilon=Fraction(1, 2), xi=2)
                           for s in (quad, f0)]
                assert len({(r.n, r.k_lower, tuple((e.name, e.value, e.applicable)
                                                   for e in r.entries))
                            for r in reports}) == 1, (q, coords, tag, grid)


class TestLiftedBound:
    def test_identity(self):
        s = sf.quadric_p1xp1()
        rep = parameter_report(s, s.divisor(1, 1), 3)
        lifted = lifted_bound(rep, 1)
        assert lifted.n == rep.n
        assert lifted.entry("interpolating").value == \
            rep.entry("interpolating").value

    def test_doubling(self):
        s = sf.quadric_p1xp1()
        rep = parameter_report(s, s.divisor(1, 1), 3)
        lifted = lifted_bound(rep, 2)
        assert lifted.n == 32
        assert lifted.entry("interpolating").value == 16
        assert not lifted.entry("aubry").applicable

    def test_relative_bound_invariant(self):
        s = sf.hirzebruch(1)
        rep = parameter_report(s, s.divisor(1, 1), 3)
        base = Fraction(rep.entry("interpolating").value, rep.n)
        for deg in (1, 2, 3, 7, 20):
            lifted = lifted_bound(rep, deg)
            assert Fraction(lifted.entry("interpolating").value, lifted.n) == base

    def test_seshadri_and_grid_entries_do_not_lift(self):
        s = sf.quadric_p1xp1()
        rep = parameter_report(s, s.divisor(1, 1), 3, epsilon=Fraction(1, 2), xi=2)
        assert rep.entry("hansen_S1").applicable and rep.entry("hansen_S2").applicable
        lifted = lifted_bound(rep, 2)
        for name in ("hansen_S1", "hansen_S2"):
            entry = lifted.entry(name)
            assert (entry.value, entry.applicable) == (None, False)
            assert entry.reason.startswith("liftable with caller inputs")
        h = sf.hirzebruch(1)
        rep = parameter_report(h, h.divisor(1, 1), 3, tag="grid", gamma="universal-affine")
        assert rep.entry("grid").applicable
        grid = lifted_bound(rep, 3).entry("grid")
        assert (grid.value, grid.applicable, grid.reason) == (
            None, False, "not liftable from base data")

    def test_invalid_degree(self):
        s = sf.quadric_p1xp1()
        rep = parameter_report(s, s.divisor(1, 1), 3)
        with pytest.raises(Precondition, match="degree must be >= 1, got 0"):
            lifted_bound(rep, 0)

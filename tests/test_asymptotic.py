import csv
import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import oracles
from surfcodes import asymptotic as am
from surfcodes.asymptotic import (AsymptoticPoint, CodePoint, asym_point,
                                  code_bound_checks, domain_membership,
                                  emit_diagram, phi_g, polygon_image,
                                  product_curve_point)
from surfcodes.errors import Precondition


class TestPhiG:
    def test_figure_corner_a(self):
        cp = phi_g(2, 2, asym_point(Fraction(1, 9), 0))
        assert cp == CodePoint(Fraction(1, 3), Fraction(1, 9))

    def test_kappa_zero(self):
        cp = phi_g(3, 2, asym_point(0, Fraction(5, 7)))
        assert cp == CodePoint(Fraction(1), Fraction(5, 7))

    def test_figure_corner_b(self):
        cp = phi_g(2, 2, asym_point(Fraction(1, 6), 0))
        assert cp == CodePoint(Fraction(0), Fraction(1, 6))

    def test_g_out_of_range(self):
        with pytest.raises(Precondition, match="need 2 <= g <= q, got g = 3, q = 2"):
            phi_g(2, 3, asym_point(0, 0))
        with pytest.raises(Precondition, match="need 2 <= g <= q, got g = 1, q = 5"):
            phi_g(5, 1, asym_point(0, 0))

    def test_infinite_input(self):
        # points are exact: a float, infinity included, is refused up front
        with pytest.raises(ValueError):
            AsymptoticPoint(math.inf, 0)

    def test_affine_on_random_rational_pairs(self):
        rng = random.Random(14)
        for q, g in ((2, 2), (3, 2), (3, 3), (5, 4)):
            for _ in range(25):
                p1 = asym_point(Fraction(rng.randrange(0, 50), rng.randrange(1, 50)),
                                Fraction(rng.randrange(-50, 50), rng.randrange(1, 50)))
                p2 = asym_point(Fraction(rng.randrange(0, 50), rng.randrange(1, 50)),
                                Fraction(rng.randrange(-50, 50), rng.randrange(1, 50)))
                t = Fraction(rng.randrange(0, 11), 10)
                mix = asym_point(t * p1.kappa + (1 - t) * p2.kappa,
                                 t * p1.chi + (1 - t) * p2.chi)
                img1, img2 = phi_g(q, g, p1), phi_g(q, g, p2)
                mixed = phi_g(q, g, mix)
                assert mixed.delta == t * img1.delta + (1 - t) * img2.delta
                assert mixed.r == t * img1.r + (1 - t) * img2.r


class TestPoints:
    def test_fractions_kept_as_given(self):
        kappa, chi = Fraction(1, 9), Fraction(-1, 4)
        pt = AsymptoticPoint(kappa, chi)
        assert pt.kappa is kappa and pt.chi is chi

    def test_exact_values_coerced(self):
        assert AsymptoticPoint("1/9", 0) == asym_point(Fraction(1, 9), Fraction(0))
        assert isinstance(AsymptoticPoint(1, 2).chi, Fraction)

    @pytest.mark.parametrize("kappa,chi", [(0.5, 0), (0, 0.25), (0, -math.inf),
                                           (-1, 0), ("-1/9", 0)])
    def test_refused(self, kappa, chi):
        with pytest.raises(ValueError):
            AsymptoticPoint(kappa, chi)
        with pytest.raises(ValueError):
            asym_point(kappa, chi)

    def test_json(self):
        assert asym_point("1/9", 0).to_json_dict() == {"kappa": "1/9", "chi": "0/1"}
        assert CodePoint(Fraction(-2), Fraction(3, 6)).to_json_dict() == \
            {"delta": "-2/1", "R": "1/2"}


class TestDomainChecks:
    def test_d1_corner(self):
        out = domain_membership(2, asym_point(Fraction(1, 9), Fraction(1, 18)))
        assert out == {"kappa_lb_ok": True, "chi_ub_ok": True}

    def test_origin_below_floor(self):
        assert not domain_membership(2, asym_point(0, 0))["kappa_lb_ok"]

    def test_above_halfline(self):
        assert not domain_membership(2, asym_point(1, 1))["chi_ub_ok"]

    def test_code_bounds(self):
        assert code_bound_checks(2, CodePoint(Fraction(0), Fraction(1))) == \
            {"singleton_ok": True, "plotkin_ok": True}
        out = code_bound_checks(2, CodePoint(Fraction(1), Fraction(0)))
        assert not out["plotkin_ok"]
        # image of D1 under phi_2 at q = 2 is (1/3, 1/6): inside both
        d2 = phi_g(2, 2, asym_point(Fraction(1, 9), Fraction(1, 18)))
        assert d2 == CodePoint(Fraction(1, 3), Fraction(1, 6))
        assert code_bound_checks(2, d2) == {"singleton_ok": True,
                                            "plotkin_ok": True}


class TestPolygon:
    def test_q2_g2(self):
        poly = polygon_image(2, 2)
        assert poly["A2"] == CodePoint(Fraction(1, 3), Fraction(1, 9))
        assert poly["B2"] == CodePoint(Fraction(0), Fraction(1, 6))
        assert poly["C2"] == CodePoint(Fraction(0), Fraction(1, 4))
        assert poly["D2"] == CodePoint(Fraction(1, 3), Fraction(1, 6))

    def test_q3_g2(self):
        assert polygon_image(3, 2)["A2"] == CodePoint(Fraction(1, 2),
                                                      Fraction(1, 16))

    def test_g_equals_q(self):
        poly = polygon_image(3, 3)
        assert poly["A2"].delta == Fraction(1, 4)  # 1 - g/(q+1) at g = q

    @pytest.mark.parametrize("q,g", [(2, 2), (3, 2), (3, 3), (5, 4), (7, 5)])
    def test_caption_closed_forms(self, q, g):
        poly = polygon_image(q, g)
        qq, gq = (q + 1) ** 2, g * (q + 1)
        assert poly["A2"] == CodePoint(1 - Fraction(g, q + 1),
                                       Fraction(g * g - g, 2 * qq))
        assert poly["B2"] == CodePoint(Fraction(0), Fraction(g * g - g, 2 * gq))
        assert poly["C2"] == CodePoint(Fraction(0), Fraction(g * g - g + 1, 2 * gq))
        assert poly["D2"] == CodePoint(1 - Fraction(g, q + 1),
                                       Fraction(g * g - g + 1, 2 * qq))

    @pytest.mark.parametrize("q,g", [(2, 2), (3, 2), (3, 3), (5, 4)])
    def test_c2d2_slope_from_corners(self, q, g):
        # the image of the chi = kappa/2 edge has slope -(g^2-g+1)/(2g(q+1))
        poly = polygon_image(q, g)
        c2, d2 = poly["C2"], poly["D2"]
        slope = (d2.r - c2.r) / (d2.delta - c2.delta)
        assert slope == -Fraction(g * g - g + 1, 2 * g * (q + 1))

    def test_in_domain_low_kappa_maps_safely(self):
        # kappa <= 1/(g(q+1)) with chi <= kappa/2 lands at delta >= 0 and
        # below the Singleton line
        rng = random.Random(77)
        for q, g in ((2, 2), (3, 2), (4, 3)):
            kmax = Fraction(1, g * (q + 1))
            for _ in range(50):
                kappa = kmax * Fraction(rng.randrange(0, 101), 100)
                chi = (kappa / 2) * Fraction(rng.randrange(0, 101), 100)
                cp = phi_g(q, g, asym_point(kappa, chi))
                assert cp.delta >= 0
                assert code_bound_checks(q, cp)["singleton_ok"]


class TestProductCurvePoint:
    def test_chi_is_kappa_over_8(self):
        for g1, g2, n1, n2 in ((3, 3, 8, 8), (4, 7, 30, 11), (5, 3, 9, 100)):
            out = product_curve_point(4, g1, g2, n1, n2)
            assert out["pt"].chi == out["pt"].kappa / 8

    def test_example_values(self):
        out = product_curve_point(4, 3, 3, 8, 8)
        assert out["pt"].kappa == Fraction(1, 2)

    def test_square_q_floor(self):
        out = product_curve_point(9, 3, 3, 8, 8)
        assert out["pt"].kappa == Fraction(1, 2)
        assert out["dv_floor_ok"] is False
        # and a kappa safely above the floor passes
        big = product_curve_point(9, 3, 3, 1, 1)   # kappa = 32
        assert big["dv_floor_ok"] is True

    def test_floor_boundary_exact_on_square_q(self):
        # at q = 9 the floor is exactly 2
        at = product_curve_point(9, 3, 3, 4, 4)    # kappa = 2
        assert at["pt"].kappa == 2
        assert at["dv_floor_ok"] is True
        just_below = product_curve_point(9, 3, 3, 4, 5)
        assert just_below["dv_floor_ok"] is False

    def test_invalid_genus(self):
        with pytest.raises(Precondition, match="assumes genera >= 3"):
            product_curve_point(4, 2, 3, 8, 8)


class TestDiagram:
    def test_csv_format(self, tmp_path):
        out = tmp_path / "d.csv"
        emit_diagram(2, 2, 2, str(out))
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(am.DIAGRAM_HEADER)
        assert len(rows) == 1 + 4 + 4  # header, 2x2 grid, 4 corners

    def test_corner_rows_exact(self, tmp_path):
        out = tmp_path / "d.csv"
        emit_diagram(2, 2, 3, str(out))
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        corner_rows = rows[-4:]
        poly = polygon_image(2, 2)
        want = {(str(poly["A1"].kappa), str(poly["A1"].chi)):
                (str(poly["A2"].delta), str(poly["A2"].r)),
                (str(poly["D1"].kappa), str(poly["D1"].chi)):
                (str(poly["D2"].delta), str(poly["D2"].r))}
        seen = {(r[0], r[1]): (r[2], r[3]) for r in corner_rows}
        for key, val in want.items():
            assert seen[key] == val

    def test_svg_written(self, tmp_path):
        out = tmp_path / "d.csv"
        svg = tmp_path / "d.svg"
        emit_diagram(2, 2, 4, str(out), str(svg))
        text = svg.read_text()
        assert text.startswith("<svg") and "polygon" in text

    def test_grid_n_guard(self, tmp_path):
        with pytest.raises(ValueError):
            emit_diagram(2, 2, 1, str(tmp_path / "d.csv"))

    def test_g_checked_before_division(self, tmp_path):
        # the sample bounds divide by g (q + 1); the range check comes first
        with pytest.raises(Precondition, match="need 2 <= g <= q, got g = 0, q = -2"):
            emit_diagram(-2, 0, 2, str(tmp_path / "d.csv"))
        assert not any(tmp_path.iterdir())

    # sha256 of d.csv and d.svg, computed before the diagram was written in
    # one pass; the CSV is the same with and without the SVG
    PINNED = {
        (2, 2, 100): ("9359f5f359ff3196786006039a4bed0f3d71c8d7e79e6453c806ac2d6c642b34",
                      "4f78d667665549f75e940807dd5800a59ead9754afaa8b4778b6f12cdb581819"),
        (3, 2, 37): ("07510ceb5dc3b12bea48262323be1fd02d1b472efa3ceca48314d2aa878d9c2e",
                     "5038302be85f95a6e88eedde7a32a76f4085aa9c8f4ebdf1220c1cf518932811"),
        (5, 4, 2): ("21253ef2a0494ccd47b7af9318983c952658d5e731517933eb10aa9fd5cf60d2",
                    "b70f984602387b158d7516102053c4f8973395cd94923549c5adfd9da3a7d71b"),
        (7, 3, 200): ("44ea97dc6345188a9119e2118083d0d8d5f24c03976617a291a15beb221fe4ab",
                      "f55c73f0ed10b2f40964d500aaf919486025e81d907409765617f40eb656dcc2"),
    }

    @pytest.mark.parametrize("q,g,n", sorted(PINNED))
    def test_files_pinned(self, tmp_path, q, g, n):
        def sha256(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()
        want_csv, want_svg = self.PINNED[q, g, n]
        emit_diagram(q, g, n, str(tmp_path / "a.csv"))
        emit_diagram(q, g, n, str(tmp_path / "b.csv"), str(tmp_path / "b.svg"))
        assert (sha256(tmp_path / "a.csv"), sha256(tmp_path / "b.csv"),
                sha256(tmp_path / "b.svg")) == (want_csv, want_csv, want_svg)

    @pytest.mark.parametrize("q,g,n", [
        (5, 2, 2),                  # two samples a side
        (7, 7, 23),                 # g = q
        (16, 5, 31),                # an even q
        (1_000_000_007, 3, 12),     # a prime q past 10^9
        (3, 2, 300),                # 90,000 samples
    ])
    def test_matches_fraction_oracle(self, tmp_path, q, g, n):
        # the integer lattice against one Fraction sample at a time, byte
        # for byte, with and without the SVG
        emit_diagram(q, g, n, str(tmp_path / "a.csv"), str(tmp_path / "a.svg"))
        oracles.fraction_diagram(q, g, n, str(tmp_path / "b.csv"), str(tmp_path / "b.svg"))
        emit_diagram(q, g, n, str(tmp_path / "c.csv"))
        csv_bytes = (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == csv_bytes
        assert (tmp_path / "c.csv").read_bytes() == csv_bytes
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_memory_flat_in_grid(self, tmp_path):
        # each sample is written as soon as it is computed: 6,404 samples
        # with the SVG keep nothing per sample
        tracemalloc.start()
        try:
            emit_diagram(2, 2, 80, str(tmp_path / "d.csv"), str(tmp_path / "d.svg"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

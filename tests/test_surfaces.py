import random

import pytest

from surfcodes import surfaces as sf
from surfcodes.errors import Precondition
from surfcodes.surfaces import (ampleness_flags, curve_product, hirzebruch,
                                intersect, noether_identity,
                                point_count, projective_plane, quadric_p1xp1,
                                riemann_roch_lower)


def catalog():
    surfs = [projective_plane(), quadric_p1xp1()]
    surfs += [hirzebruch(e) for e in range(11)]
    surfs += [curve_product(gc, gd, 8, 8)
              for gc in (0, 1, 2, 3, 7, 20) for gd in (0, 2, 5, 20)]
    return surfs


class TestMakeSurface:
    def test_quadric_canonical(self):
        s = quadric_p1xp1()
        k = s.canonical
        assert k.coords == (-2, -2)
        assert intersect(k, k) == 8

    def test_hirzebruch1_canonical(self):
        s = hirzebruch(1)
        k = s.canonical
        assert k.coords == (-3, -2)
        assert intersect(k, k) == 8

    def test_curve_product_2_2(self):
        s = curve_product(2, 2, 8, 8)
        assert s.chi_o == 1
        assert intersect(s.canonical, s.canonical) == 8

    def test_invalid_params(self):
        with pytest.raises(Precondition, match="parameter e must be >= 0, got -1"):
            hirzebruch(-1)
        with pytest.raises(Precondition, match="genera must be >= 0"):
            curve_product(-1, 2, 8, 8)
        with pytest.raises(Precondition, match="unknown surface kind 'Klein'"):
            sf.surface_from_json({"kind": "Klein"})

    def test_dispatch_and_json(self):
        s = sf.surface_from_json({"kind": sf.HIRZEBRUCH, "params": [3]})
        assert s == hirzebruch(3)
        assert sf.surface_from_json(s.to_json_dict()) == s
        cp = curve_product(3, 4, 10, 12)
        assert sf.surface_from_json(cp.to_json_dict()) == cp


class TestIntersect:
    def test_examples(self):
        q = quadric_p1xp1()
        assert intersect(q.divisor(1, 1), q.divisor(1, 1)) == 2
        h = hirzebruch(3)
        assert intersect(h.divisor(0, 1), h.divisor(0, 1)) == -3
        p2 = projective_plane()
        assert intersect(p2.divisor(4), p2.divisor(4)) == 16

    def test_mismatch(self):
        with pytest.raises(Precondition, match="live on different surfaces"):
            intersect(quadric_p1xp1().divisor(1, 1), hirzebruch(0).divisor(1, 1))

    def test_symmetric_bilinear_random(self):
        rng = random.Random(2)
        for s in catalog():
            r = s.ns_rank
            for _ in range(20):
                a = s.divisor(*[rng.randrange(-9, 10) for _ in range(r)])
                b = s.divisor(*[rng.randrange(-9, 10) for _ in range(r)])
                c = s.divisor(*[rng.randrange(-9, 10) for _ in range(r)])
                lam = rng.randrange(-4, 5)
                assert intersect(a, b) == intersect(b, a)
                assert intersect(a + lam * b, c) == \
                    intersect(a, c) + lam * intersect(b, c)


class TestAmpleness:
    def test_hirzebruch_examples(self):
        h = hirzebruch(1)
        f21 = ampleness_flags(h, h.divisor(2, 1))
        assert f21.very_ample and f21.ample and f21.base_point_free
        f11 = ampleness_flags(h, h.divisor(1, 1))
        assert f11.base_point_free and not f11.very_ample and not f11.ample

    def test_quadric_and_plane(self):
        q = quadric_p1xp1()
        assert ampleness_flags(q, q.divisor(1, 1)).very_ample
        assert not ampleness_flags(q, q.divisor(1, 0)).very_ample
        assert ampleness_flags(q, q.divisor(0, 0)).base_point_free
        p2 = projective_plane()
        assert ampleness_flags(p2, p2.divisor(1)).very_ample
        assert ampleness_flags(p2, p2.divisor(0)).base_point_free
        assert not ampleness_flags(p2, p2.divisor(0)).ample

    def test_curve_product_tristate(self):
        s = curve_product(2, 3, 8, 8)
        flags = ampleness_flags(s, s.divisor(1, 1))
        assert flags.ample and flags.very_ample is None
        assert not flags.base_point_free
        # degrees pair with the opposite factor's genus
        assert ampleness_flags(s, s.divisor(6, 4)).base_point_free
        assert not ampleness_flags(s, s.divisor(4, 6)).base_point_free
        assert ampleness_flags(s, s.divisor(0, 1)).very_ample is False

    def test_monotonicity_va_plus_bpf(self):
        # very ample + base point free stays very ample under the catalog's
        # coordinate criteria
        rng = random.Random(4)
        for s in [projective_plane(), quadric_p1xp1()] + \
                [hirzebruch(e) for e in range(4)]:
            r = s.ns_rank
            hits = 0
            while hits < 25:
                d = s.divisor(*[rng.randrange(0, 9) for _ in range(r)])
                e = s.divisor(*[rng.randrange(0, 9) for _ in range(r)])
                fd, fe = ampleness_flags(s, d), ampleness_flags(s, e)
                if fd.very_ample and fe.base_point_free:
                    hits += 1
                    assert ampleness_flags(s, d + e).very_ample


class TestRiemannRoch:
    def test_quadric(self):
        s = quadric_p1xp1()
        assert riemann_roch_lower(s, s.divisor(1, 1), s.divisor(1, 1)) == 4

    def test_hirzebruch(self):
        s = hirzebruch(1)
        assert riemann_roch_lower(s, s.divisor(1, 1), s.divisor(2, 1)) == 3

    def test_plane_conics(self):
        s = projective_plane()
        assert riemann_roch_lower(s, s.divisor(2), s.divisor(1)) == 6

    def test_precondition_messages(self):
        s = quadric_p1xp1()
        with pytest.raises(Precondition, match=r"^H = \(1, 0\) is not ample$"):
            riemann_roch_lower(s, s.divisor(1, 1), s.divisor(1, 0))
        with pytest.raises(Precondition, match="must exceed K.H"):
            riemann_roch_lower(s, s.divisor(-9, -9), s.divisor(1, 1))


class TestCounts:
    def test_examples(self):
        assert point_count(projective_plane(), 3) == 13
        assert point_count(hirzebruch(2), 3) == 16
        assert point_count(curve_product(2, 2, 8, 8), 5) == 64

    def test_noether_examples(self):
        assert noether_identity(quadric_p1xp1())
        assert noether_identity(projective_plane())
        assert noether_identity(curve_product(3, 3, 8, 8))

    def test_noether_across_catalog(self):
        for s in catalog():
            assert noether_identity(s)

    def test_k_squared_values(self):
        assert intersect(projective_plane().canonical,
                         projective_plane().canonical) == 9
        for e in range(11):
            s = hirzebruch(e)
            assert intersect(s.canonical, s.canonical) == 8
        for gc in range(0, 21, 4):
            for gd in range(0, 21, 5):
                s = curve_product(gc, gd, 8, 8)
                assert intersect(s.canonical, s.canonical) == \
                    8 * (gc - 1) * (gd - 1)

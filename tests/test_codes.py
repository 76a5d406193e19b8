import random

import pytest

from surfcodes import codes as cd
from surfcodes import gf
from surfcodes import surfaces as sf
from surfcodes.codes import (BudgetExceeded, EmptySystem, UnsupportedSubset,
                             build_code, code_from_json_dict, enumeration_size,
                             exact_min_distance, rational_locus_check,
                             rational_points, section_basis)


class TestRationalPoints:
    def test_quadric_q2_count(self):
        pts = rational_points(sf.quadric_p1xp1(), 2)
        assert len(pts.points) == 9

    def test_p2_q3_canonical(self):
        pts = rational_points(sf.projective_plane(), 3)
        assert len(pts.points) == 13
        for p in pts.points:
            first = next(c for c in p if c != 0)
            assert first == 1

    def test_hirzebruch_grid_chart(self):
        pts = rational_points(sf.hirzebruch(1), 3, "grid",
                              (range(3), range(3)))
        assert len(pts.points) == 9
        assert pts.tag == "grid"

    def test_hirzebruch_all_count_and_canonical(self):
        pts = rational_points(sf.hirzebruch(2), 3)
        assert len(pts.points) == 16
        for t0, t1, x0, x1 in pts.points:
            assert (t0, t1) in {(1, c) for c in range(3)} | {(0, 1)}
            assert (x0, x1) in {(1, c) for c in range(3)} | {(0, 1)}

    def test_grid_unsupported(self):
        with pytest.raises(UnsupportedSubset):
            rational_points(sf.projective_plane(), 3, "grid", (range(2), range(2)))
        with pytest.raises(UnsupportedSubset):
            rational_points(sf.curve_product(2, 2, 4, 4), 3)

    def test_deterministic_order(self):
        a = rational_points(sf.quadric_p1xp1(), 4)
        b = rational_points(sf.quadric_p1xp1(), 4)
        assert a.points == b.points
        assert list(a.points) == sorted(a.points)


class TestSectionBasis:
    def test_quadric_11(self):
        assert len(section_basis(sf.quadric_p1xp1(),
                                 sf.quadric_p1xp1().divisor(1, 1))) == 4

    def test_hirzebruch_11_exact_monomials(self):
        s = sf.hirzebruch(1)
        basis = section_basis(s, s.divisor(1, 1))
        # t0*x0, t1*x0, x1 as exponent tuples (t0, t1, x0, x1)
        assert set(basis.exponents) == {(1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1)}

    def test_p2_linear(self):
        s = sf.projective_plane()
        assert len(section_basis(s, s.divisor(1))) == 3

    def test_counts_vs_riemann_roch_on_nef(self):
        # on nef classes the monomial count meets the RR lower bound with
        # equality (h^1 = h^2 = 0 there)
        for e in range(4):
            s = sf.hirzebruch(e)
            h = s.divisor(e + 1, 1)
            for u in range(e, 9):
                for v in range(4):
                    if u < e * v:
                        continue
                    g = s.divisor(u, v)
                    if sf.intersect(g, h) <= sf.intersect(s.canonical, h):
                        continue
                    assert len(section_basis(s, g)) == \
                        sf.riemann_roch_lower(s, g, h)

    def test_empty_system(self):
        s = sf.projective_plane()
        with pytest.raises(EmptySystem):
            section_basis(s, s.divisor(-1))


class TestBuildCode:
    def test_quadric_q2(self):
        s = sf.quadric_p1xp1()
        code = build_code(s, s.divisor(1, 1), 2)
        assert (code.n, code.k) == (9, 4)

    def test_hirzebruch_q3(self):
        s = sf.hirzebruch(1)
        code = build_code(s, s.divisor(1, 1), 3)
        assert (code.n, code.k) == (16, 3)

    def test_simplex_code(self):
        s = sf.projective_plane()
        code = build_code(s, s.divisor(1), 2)
        assert (code.n, code.k) == (7, 3)
        cols = {tuple(row[j] for row in code.generator) for j in range(7)}
        assert len(cols) == 7 and (0, 0, 0) not in cols

    def test_injectivity_when_bound_positive(self):
        # n > Gamma.G forces the evaluation map to be injective
        s = sf.quadric_p1xp1()
        for q in (2, 3, 4):
            for a in range(3):
                for b in range(3):
                    g = s.divisor(a, b)
                    gamma = (q + 1) * s.divisor(1, 1)
                    if sf.point_count(s, q) > sf.intersect(gamma, g):
                        code = build_code(s, g, q)
                        assert code.k == code.section_count == (a + 1) * (b + 1)

    def test_json_round_trip(self):
        s = sf.hirzebruch(1)
        code = build_code(s, s.divisor(2, 1), 3)
        clone = code_from_json_dict(code.to_json_dict())
        assert clone.generator == code.generator
        assert (clone.n, clone.k) == (code.n, code.k)
        assert clone.surface == code.surface

    @pytest.mark.parametrize("key, bad, message", [
        ("n", None, "missing key 'n'"),
        ("k", "2", "key 'k' must be of type int"),
        ("generator", {}, "key 'generator' must be of type list"),
        ("field", {"p": 3, "m": 1}, "missing key 'modulus'"),
        ("surface", {"params": []}, "KeyError: 'kind'"),
        ("point_tag", 5, "key 'point_tag'"),
    ])
    def test_json_key_errors_name_the_key(self, key, bad, message):
        s = sf.quadric_p1xp1()
        d = build_code(s, s.divisor(1, 1), 3).to_json_dict()
        if bad is None:
            del d[key]
        else:
            d[key] = bad
        with pytest.raises(ValueError, match=message):
            code_from_json_dict(d)

    def test_json_rejects_rank_deficient_generator(self):
        s = sf.quadric_p1xp1()
        d = build_code(s, s.divisor(1, 1), 3).to_json_dict()
        n = d["n"]
        d["generator"][n:2 * n] = d["generator"][:n]
        with pytest.raises(ValueError, match="rank 3, not k = 4"):
            code_from_json_dict(d)

    def test_deterministic(self):
        s = sf.hirzebruch(2)
        a = build_code(s, s.divisor(3, 1), 3)
        b = build_code(s, s.divisor(3, 1), 3)
        assert a.generator == b.generator


class TestExactMinDistance:
    def test_quadric_q2_exact_formula(self):
        s = sf.quadric_p1xp1()
        code = build_code(s, s.divisor(1, 1), 2)
        assert exact_min_distance(code) == 4 == 9 - 3 * 2 + 1

    def test_hirzebruch_q3(self):
        s = sf.hirzebruch(1)
        code = build_code(s, s.divisor(1, 1), 3)
        assert exact_min_distance(code) == 9  # q(q - u + 1)

    def test_repetition_degenerate(self):
        s = sf.projective_plane()
        code = build_code(s, s.divisor(0), 2)
        assert (code.n, code.k) == (7, 1)
        assert exact_min_distance(code) == 7

    def test_budget_guard(self):
        s = sf.quadric_p1xp1()
        code = build_code(s, s.divisor(2, 2), 3)
        assert enumeration_size(3, code.k) == (3 ** 9 - 1) // 2
        with pytest.raises(BudgetExceeded):
            exact_min_distance(code, budget=100)

    def test_column_scaling_and_permutation_invariance(self):
        s = sf.hirzebruch(1)
        code = build_code(s, s.divisor(1, 1), 3)
        d0 = exact_min_distance(code)
        rng = random.Random(8)
        field = code.field
        perm = list(range(code.n))
        rng.shuffle(perm)
        scalars = [rng.randrange(1, field.q) for _ in range(code.n)]
        rows = tuple(tuple(field.mul(scalars[j], row[perm[j]])
                           for j in range(code.n)) for row in code.generator)
        mutated = cd.LinearCode(field=field, n=code.n, k=code.k, generator=rows,
                                section_count=code.section_count)
        assert cd.matrix_rank(field, rows) == code.k
        assert exact_min_distance(mutated) == d0

    def test_grid_product_reed_solomon_oracle(self):
        # full-field grids on the quadric are product Reed-Solomon codes
        s = sf.quadric_p1xp1()
        for q in (3, 4, 5):
            for a in range(1, min(q, 4)):
                for b in range(1, min(q, 3)):
                    if enumeration_size(q, (a + 1) * (b + 1)) > 600_000:
                        continue
                    code = build_code(s, s.divisor(a, b), q, "grid")
                    assert code.n == q * q
                    assert code.k == (a + 1) * (b + 1)
                    d = exact_min_distance(code)
                    assert d == (q - a) * (q - b)
                    # fiber-pairing bound with alpha = beta = q
                    from surfcodes.bounds import product_grid_bound
                    assert product_grid_bound(code.n, q, q, a, b) <= d

    def test_hirzebruch_grid_against_bound(self):
        from surfcodes.bounds import hirzebruch_grid_bound
        s = sf.hirzebruch(1)
        code = build_code(s, s.divisor(1, 1), 3, "grid")
        d = exact_min_distance(code)
        bound = hirzebruch_grid_bound(3, 3, 1, 1, 1)
        assert bound == 3  # 9 - 6 - 3 + 3
        assert bound <= d


class TestRationalLocus:
    def test_p1_f4(self):
        assert rational_locus_check(1, 2, 2)

    @pytest.mark.parametrize("ell", (1, 2))
    @pytest.mark.parametrize("q", (2, 3))
    @pytest.mark.parametrize("m", (2, 3))
    def test_lemma_range(self, ell, q, m):
        assert rational_locus_check(ell, q, m)

    def test_survivor_counts(self):
        # 3 of the 5 points of P^1(F_4); 13 in P^2(F_9); 7 in P^2(F_8)
        for (ell, q, m), want in (((1, 2, 2), 3), ((2, 3, 2), 13), ((2, 2, 3), 7)):
            survivors, expected = cd._locus_survivors(ell, q, m, 10 ** 7)
            assert len(survivors) == want
            assert survivors == expected

    def test_field_too_large(self):
        with pytest.raises(gf.FieldTooLarge):
            rational_locus_check(1, 257, 3)

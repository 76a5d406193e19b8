import itertools
import random
import time
import tracemalloc

import pytest

from surfcodes import codes as cd
from surfcodes import gf
from surfcodes import surfaces as sf
from surfcodes.codes import (build_code, code_from_json_dict, enumeration_size,
                             exact_min_distance, rational_locus_check,
                             rational_points, section_basis, section_count)
from surfcodes.errors import BudgetExceeded, Precondition
from oracles import (batched_min_distance, blocked_min_distance, monomial_rows,
                     span_table_min_distance)

SWEEP_FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 27)

CATALOG = [
    (sf.projective_plane(), (2,), 4, "all"),
    (sf.quadric_p1xp1(), (2, 2), 4, "all"),
    (sf.quadric_p1xp1(), (1, 2), 5, "all"),
    (sf.quadric_p1xp1(), (1, 1), 8, "grid"),
    (sf.hirzebruch(1), (3, 1), 4, "all"),
    (sf.hirzebruch(2), (4, 1), 4, "all"),
]
CATALOG_IDS = ["p2_2_q4", "quadric_22_q4", "quadric_12_q5", "quadric_11_q8_grid",
               "hirzebruch1_31_q4", "hirzebruch2_41_q4"]


def random_sweep_codes(seed: int, count: int) -> list[cd.LinearCode]:
    """Random full-rank generators over the sweep fields, cycling through
    every k in 1..7 whose enumeration stays small; every fifth code hides a
    weight-1 codeword in a combination of two rows."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = SWEEP_FIELDS[len(out) % len(SWEEP_FIELDS)]
        field = gf.field_from_order(q)
        ks = [k for k in range(1, 8) if enumeration_size(q, k) <= 6000]
        k = ks[len(out) // len(SWEEP_FIELDS) % len(ks)]
        n = rng.randint(k, 40)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if len(out) % 5 == 0:
            r = rng.randrange(k)
            rows[r] = [0] * n
            rows[r][rng.randrange(n)] = rng.randrange(1, q)
            if k > 1:
                other = rows[(r + 1) % k]
                c = rng.randrange(1, q)
                rows[r] = [field.add(a, field.mul(c, b))
                           for a, b in zip(rows[r], other)]
        if cd.matrix_rank(field, rows) != k:
            continue
        out.append(cd.LinearCode(field=field, n=n, k=k,
                                 generator=tuple(map(tuple, rows)),
                                 section_count=k))
    return out


def kernel_layout(code: cd.LinearCode, cells: int) -> tuple[int, int, int]:
    """(s, t, heads per batch) of exact_min_distance under a cell cap: L holds
    the last s rows, the head table the last t free rows."""
    q, n, k = code.field.q, code.n, code.k
    s = 1
    while s + 1 < k and q ** (s + 1) * n <= cells >> 2:
        s += 1
    t = 0
    while t + 1 < k - s and q ** (t + 1) * n <= cells:
        t += 1
    return s, t, max(1, cells // (n * q ** s))


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
        with pytest.raises(Precondition, match="grid points are not defined on P2"):
            rational_points(sf.projective_plane(), 3, "grid", (range(2), range(2)))
        with pytest.raises(Precondition, match="CurveProduct has no point enumeration"):
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
        with pytest.raises(Precondition, match=r"no sections for divisor \(-1,\) on P2"):
            section_basis(s, s.divisor(-1))

    def test_count_matches_brute_force(self):
        # the closed form against a count of exponent tuples in a box; a
        # zero count is refused for the count and the listing alike
        box = range(16)

        def brute(s, coords):
            if s.kind == sf.P2:
                return sum(1 for i in box for j in box if i + j <= coords[0])
            if s.kind == sf.P1XP1:
                return sum(1 for i in box for j in box
                           if i <= coords[0] and j <= coords[1])
            (e,), (u, v) = s.params, coords
            return sum(1 for de in box for al in box if de <= v and al <= u - e * de)

        cases = [(sf.projective_plane(), (d,)) for d in range(-2, 12)]
        cases += [(sf.quadric_p1xp1(), (a, b))
                  for a in range(-2, 8) for b in range(-2, 8)]
        cases += [(sf.hirzebruch(e), (u, v)) for e in range(4)
                  for u in range(-3, 14) for v in range(-2, 7)]
        for s, coords in cases:
            g, expected = s.divisor(*coords), brute(s, coords)
            if expected == 0:
                with pytest.raises(Precondition, match="no sections for divisor"):
                    section_count(s, g)
                with pytest.raises(Precondition, match="no sections for divisor"):
                    section_basis(s, g)
            else:
                assert section_count(s, g) == len(section_basis(s, g)) == expected


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

    @pytest.mark.parametrize("n, k, message", [
        (cd.MAX_POINTS + 1, 1, "1000001 evaluation points exceed 1000000"),
        (2 * 10 ** 6, 5, "2000000 evaluation points exceed 1000000"),
        (10 ** 6, 11, "11 rows at 1000000 points exceed 10000000 generator entries"),
    ])
    def test_json_size_budget_before_generator(self, n, k, message):
        # read from the document's own n and k: a short generator list is
        # refused for its size, not for its length
        d = {"field": {"p": 2, "m": 1, "modulus": [0]}, "n": n, "k": k,
             "generator": [1, 0, 1]}
        with pytest.raises(BudgetExceeded, match=message):
            code_from_json_dict(d)

    def test_json_rejects_rank_deficient_generator(self):
        s = sf.quadric_p1xp1()
        d = build_code(s, s.divisor(1, 1), 3).to_json_dict()
        n = d["n"]
        d["generator"][n:2 * n] = d["generator"][:n]
        with pytest.raises(ValueError, match="rank 3, not k = 4"):
            code_from_json_dict(d)

    @pytest.mark.parametrize("key, bad, message", [
        ("divisor", ["a"], "invalid literal for int"),
        ("section_count", "x", "invalid literal for int"),
        ("surface", {"kind": "Hirzebruch", "params": ["a"]}, "invalid literal for int"),
        ("divisor", [float("nan")], "cannot convert float NaN to integer"),
        ("divisor", [float("inf")], "cannot convert float infinity to integer"),
    ])
    def test_json_metadata_integers(self, key, bad, message):
        # a metadata value that int() refuses is bad input, named by int()
        s = sf.quadric_p1xp1()
        d = build_code(s, s.divisor(1, 1), 3).to_json_dict()
        d[key] = bad
        with pytest.raises(Precondition, match=f"^{message}"):
            code_from_json_dict(d)

    @pytest.mark.parametrize("surface, div, q, tag, grid", [
        *[(surface, div, q, tag, None) for surface, div, q, tag in CATALOG],
        (sf.quadric_p1xp1(), (2, 0), 729, "grid", (range(0, 729, 81), range(0, 700, 100))),
        (sf.quadric_p1xp1(), (2, 0), 256, "grid", (range(3, 256, 21), range(5, 256, 31))),
        (sf.quadric_p1xp1(), (2, 3), 256, "grid", (range(0, 256, 16), range(1, 256, 32))),
        (sf.projective_plane(), (0,), 3, "all", None),
        (sf.hirzebruch(2), (5, 2), 5, "all", None),
        (sf.hirzebruch(2), (6, 2), 7, "grid", None),
    ], ids=CATALOG_IDS + ["quadric_20_q729_grid", "quadric_20_q256_grid",
                          "quadric_23_q256_grid", "p2_0_q3", "hirzebruch2_52_q5",
                          "hirzebruch2_62_q7_grid"])
    def test_evaluation_rows_match_eval_monomial(self, surface, div, q, tag, grid):
        # every row, kept or not, equals the per-entry evaluation
        pts = rational_points(surface, q, tag, grid)
        points = [(t, 1, x, 1) for t, x in pts.points] if tag == "grid" else pts.points
        field = gf.field_from_order(q)
        exponents = section_basis(surface, surface.divisor(*div)).exponents
        assert (cd._evaluation_rows(field, exponents, points)
                == monomial_rows(field, exponents, points))

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

    @pytest.mark.parametrize("cells", [None, 1, 1000],
                             ids=["default", "one_row", "small_table"])
    def test_sweep_matches_blocked_oracle(self, monkeypatch, cells):
        # a cap of 1 keeps one generator row in the table, so every other
        # row is enumerated in the heads; 1000 keeps small tables under them
        if cells is not None:
            monkeypatch.setattr(cd, "MAX_KERNEL_CELLS", cells)
        sweep = random_sweep_codes(seed=7, count=220)
        got = [exact_min_distance(c) for c in sweep]
        assert got == [blocked_min_distance(c) for c in sweep]
        assert {c.k for c in sweep} == set(range(1, 8))
        assert {c.field.q for c in sweep} == set(SWEEP_FIELDS)
        assert got.count(1) >= 20 and max(got) > 10

    @pytest.mark.parametrize("surface, div, q, tag", CATALOG, ids=CATALOG_IDS)
    def test_catalog_codes_match_blocked_oracle(self, surface, div, q, tag):
        code = build_code(surface, surface.divisor(*div), q, tag)
        assert exact_min_distance(code) == blocked_min_distance(code)

    @pytest.mark.parametrize("cells", [None, 1, 1000, 5000],
                             ids=["default", "one_row", "small_table", "split_heads"])
    def test_sweep_matches_span_table_oracle(self, monkeypatch, cells):
        # a cap of 1 compares one head at a time with a one-row table, and
        # 5000 shares batches between leading indices; the batched oracle
        # (the kernel this one replaced) runs under the same cap
        if cells is not None:
            monkeypatch.setattr(cd, "MAX_KERNEL_CELLS", cells)
        sweep = random_sweep_codes(seed=7, count=220)
        got = [exact_min_distance(c) for c in sweep]
        assert got == [span_table_min_distance(c) for c in sweep]
        assert got == [batched_min_distance(c) for c in sweep]

    def test_split_heads_cap_splits_batches(self):
        # under the documented layout, a cap of 5000 makes the heads of
        # consecutive leading indices share a batch on many sweep codes, with
        # more than one batch and the last one short, and caps the head
        # table below the free rows on some
        shared = capped = 0
        for code in random_sweep_codes(seed=7, count=220):
            s, t, batch = kernel_layout(code, 5000)
            q, k = code.field.q, code.k
            ends = list(itertools.accumulate(q ** (k - s - 1 - r) for r in range(k - s)))
            shared += (any(end % batch for end in ends[:-1])
                       and batch < ends[-1] and ends[-1] % batch != 0)
            capped += t < k - s - 1
        assert shared >= 50 and capped >= 10

    @pytest.mark.parametrize("cells", [None, 5000], ids=["default", "split_heads"])
    @pytest.mark.parametrize("surface, div, q, tag", CATALOG, ids=CATALOG_IDS)
    def test_catalog_codes_match_span_table_oracle(self, monkeypatch, surface, div,
                                                   q, tag, cells):
        if cells is not None:
            monkeypatch.setattr(cd, "MAX_KERNEL_CELLS", cells)
        code = build_code(surface, surface.divisor(*div), q, tag)
        assert (exact_min_distance(code) == span_table_min_distance(code)
                == batched_min_distance(code))

    @pytest.mark.parametrize("rows, d", [
        # k = 1: L is the whole code and no head is built
        (((1, 2, 0, 1, 2),), 4),
        # k = s + 1: one leading index above L, with a single head
        (((1, 1, 1, 0, 0, 0), (0, 1, 2, 1, 1, 0), (0, 0, 1, 2, 1, 1)), 3),
        # row 0 weighs 2 wherever rows 1 and 2 are zero, so every head has
        # weight >= 2; the weight-1 word row 1 + row 2 lies in L alone
        (((1, 1, 2, 0, 1, 2), (0, 0, 1, 2, 2, 1), (0, 0, 2, 1, 1, 0)), 1),
    ], ids=["k1", "k_s_plus_1", "weight1_in_L"])
    def test_edge_layouts(self, rows, d):
        code = cd.LinearCode(field=gf.field_from_order(3), n=len(rows[0]), k=len(rows),
                             generator=rows, section_count=len(rows))
        assert cd.matrix_rank(code.field, rows) == code.k
        s, t, _ = kernel_layout(code, cd.MAX_KERNEL_CELLS)
        assert s == max(1, code.k - 1) and t == 0
        assert exact_min_distance(code) == d
        assert d == batched_min_distance(code) == blocked_min_distance(code)

    def test_wide_field_elements_stay_uint16(self):
        # F_729 elements do not fit in uint8; grid (2, 0) on 9 x 7 points is
        # RS(9, 3) x RS(7, 1), so d = 7 * 7
        s = sf.quadric_p1xp1()
        code = build_code(s, s.divisor(2, 0), 729, "grid",
                          (range(0, 729, 81), range(0, 700, 100)))
        assert (code.n, code.k) == (63, 3)
        assert code.field.numpy_tables()[0].dtype == "uint16"
        assert exact_min_distance(code) == 49 == span_table_min_distance(code)

    def test_agreement_count_past_uint8(self):
        # d = 10, while the weight-10 row agrees with the zero word in 290
        # positions: a uint8 count would wrap to 34 and report weight 266
        field = gf.field_from_order(3)
        rows = ((1,) * 10 + (0,) * 290, (0,) * 10 + (2,) * 290)
        code = cd.LinearCode(field=field, n=300, k=2, generator=rows,
                             section_count=2)
        assert exact_min_distance(code) == 10
        assert span_table_min_distance(code) == blocked_min_distance(code) == 10

    def test_memory_bounded_by_cell_cap(self):
        # P^2, lines at q = 64: n = 4161 and d = q^2
        s = sf.projective_plane()
        code = build_code(s, s.divisor(1), 64)
        assert code.n == 4161
        tracemalloc.start()
        try:
            d = exact_min_distance(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d == 4096
        assert peak < 16 << 20

    def test_memory_bounded_with_capped_head_table(self):
        # q = 2, n = 5000, k = 16: the 10 free rows of leading index 0 would
        # span 2^10 * 5000 cells, so the head table holds only the last 7 and
        # 3 rows lie above it
        rng = random.Random(16)
        field = gf.field_from_order(2)
        n, k = 5000, 16
        while True:
            rows = tuple(tuple(rng.randrange(2) for _ in range(n)) for _ in range(k))
            if cd.matrix_rank(field, rows) == k:
                break
        code = cd.LinearCode(field=field, n=n, k=k, generator=rows, section_count=k)
        assert kernel_layout(code, cd.MAX_KERNEL_CELLS)[:2] == (5, 7)
        assert 2 ** 10 * n > cd.MAX_KERNEL_CELLS
        want = batched_min_distance(code)
        tracemalloc.start()
        try:
            d = exact_min_distance(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d == want
        assert peak < 16 << 20

    def test_field_without_tables_is_over_budget(self):
        s = sf.quadric_p1xp1()
        code = build_code(s, s.divisor(1, 0), 8192, "grid", ((1, 2, 3), (4, 5)))
        with pytest.raises(BudgetExceeded, match="q = 8192 > 4096"):
            exact_min_distance(code)
        assert code.field._np_add is None


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
        with pytest.raises(Precondition, match=r"^257\^3 exceeds 65536$"):
            rational_locus_check(1, 257, 3)

    def test_negative_ell_refused(self):
        # P^ell with ell < 0 is no projective space; P^0 is a point
        for ell, q in ((-5, 2), (-1, 3)):
            with pytest.raises(Precondition, match=f"^ell must be >= 0, got {ell}$"):
                rational_locus_check(ell, q, 1)
        assert rational_locus_check(0, 2, 1) and rational_locus_check(0, 3, 2)

    def test_long_ell_refused_before_the_power(self):
        # the bit length of q^m decides a long ell: P^(10^4999) is refused
        # at once instead of forming 2^(10^4999)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=r"^P\^a 5000-digit number\(F_2\) has more"):
            rational_locus_check(10 ** 4999, 2, 1)
        assert time.perf_counter() - start < 1
        # the boundary stays exact: P^2(F_4) has 21 points
        assert rational_locus_check(2, 2, 2, budget=21)
        with pytest.raises(BudgetExceeded, match=r"^P\^2\(F_4\) has more points than "
                                                 r"the budget of 20$"):
            rational_locus_check(2, 2, 2, budget=20)


def test_distance_budget_decided_before_the_rank():
    # dependent rows (a rank fault) in a code whose enumeration is over the
    # distance budget: the budget, read from q, n and k, is refused first
    doc = {"field": {"p": 3, "m": 1, "modulus": [0]}, "n": 4, "k": 2,
           "generator": [1, 2, 0, 1, 1, 2, 0, 1]}
    with pytest.raises(Precondition):
        code_from_json_dict(doc)
    with pytest.raises(BudgetExceeded):
        code_from_json_dict(doc, distance_budget=3)

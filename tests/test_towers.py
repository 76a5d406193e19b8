import hashlib
import json
import random
import tracemalloc
from types import SimpleNamespace

import pytest

import oracles
from oracles import eigen_multiplicities, eigen_pairing_dim, random_invertible
from surfcodes import gf
from surfcodes import towers as tw
from surfcodes.errors import BudgetExceeded, InvariantError, Precondition
from surfcodes.towers import (HyperellipticCurve, fixed_space_dim,
                              golod_shafarevich_check, gs_check_chi_form, hyperelliptic_point_count,
                              hyperelliptic_product_certificate,
                              kunneth_invariants, marked_invariants,
                              naive_point_count,
                              r_t_bracket, r_t_upper, sample_branch_poly,
                              search_parameters, two_torsion_frobenius)


def squarefree_poly(field, degree, rng):
    while True:
        coeffs = [rng.randrange(field.q) for _ in range(degree)] + \
            [rng.randrange(1, field.q)]
        f = field.poly(coeffs)
        if gf.poly_gcd(f, f.derivative()).degree == 0:
            return f


class TestPointCounts:
    def test_f7_split_sextic(self):
        F7 = gf.make_field(7, 1)
        f = gf.Polynomial.from_roots(F7, [0, 1, 2, 3, 4, 5])
        curve = HyperellipticCurve(F7, f)
        assert curve.genus == 2 and curve.f.leading == 1
        assert naive_point_count(curve) == 8
        assert hyperelliptic_point_count(curve) == 8

    def test_split_monic_weierstrass_floor(self):
        # 2g+2 rational branch points plus two rational points at infinity
        for q in (7, 11, 13):
            f = sample_branch_poly(q, 6, "linear", seed=3)
            curve = HyperellipticCurve(gf.make_field(q, 1), f)
            assert hyperelliptic_point_count(curve) >= 6 + 2

    @pytest.mark.parametrize("q", (7, 11, 13))
    def test_character_sum_matches_naive(self, q):
        field = gf.make_field(q, 1)
        rng = random.Random(q)
        done = 0
        while done < 6:
            deg = rng.choice((6, 8, 10))
            f = squarefree_poly(field, deg, rng)
            curve = HyperellipticCurve(field, f)
            assert hyperelliptic_point_count(curve) == naive_point_count(curve)
            done += 1

    @pytest.mark.parametrize("q", (3, 5, 7, 9, 11, 25, 27, 49, 67, 81, 125, 243))
    def test_factor_count_matches_horner_and_naive(self, q):
        # the count from the sampled factors' character masks equals the
        # Horner count and the enumeration of all (t, y), on split sides
        # (down to one t off the roots) and quadratic sides, prime and
        # prime-power q alike; the enumeration takes q^2 evaluations, so it
        # runs on every degree-6 side and on every side up to q = 27
        field = gf.field_from_order(q)
        rng = random.Random(q)
        sides = []
        for seed, linear in ((1, 6), (2, q - 1), (3, 2 * rng.randrange(3, max(q // 2, 3) + 1))):
            if 6 <= linear <= q:
                sides.append(("linear", linear, seed))
            quadratic = 3 if seed == 1 else rng.randrange(3, min(q * (q - 1) // 2, 40) + 1)
            sides.append(("quadratic", quadratic, seed))
        for kind, count, seed in sides:
            factors = tw.sample_branch_factors(q, count, kind, seed)
            curve = HyperellipticCurve(field, sample_branch_poly(q, count, kind, seed))
            want = hyperelliptic_point_count(curve)
            assert tw._factor_point_count(field, kind, factors) == want
            if seed == 1 or q <= 27:
                assert naive_point_count(curve) == want

    def test_quadratic_twist_fiber_exchange(self):
        # scaling f by a nonsquare swaps 2-point and 0-point fibers
        q = 11
        field = gf.make_field(q, 1)
        f = sample_branch_poly(q, 6, "linear", seed=5)
        nonsquare = next(a for a in range(2, q)
                         if gf.quadratic_character(field, a) == -1)
        tw_f = f.scale(nonsquare)
        for t in range(q):
            vf = gf.poly_eval(f, t)
            vt = gf.poly_eval(tw_f, t)
            if vf != 0:
                fib_f = 1 + gf.quadratic_character(field, vf)
                fib_t = 1 + gf.quadratic_character(field, vt)
                assert {fib_f, fib_t} == {0, 2}

    def test_curve_validation(self):
        F7 = gf.make_field(7, 1)
        with pytest.raises(Precondition, match="f must have even degree, got 7"):
            HyperellipticCurve(F7, gf.Polynomial.from_roots(F7, [0, 1, 2, 3, 4]) *
                               F7.poly((1, 1)) * F7.poly((2, 1)))
        with pytest.raises(Precondition, match="f has a repeated root"):
            HyperellipticCurve(F7, F7.poly((0, 0, 1)) *
                               gf.Polynomial.from_roots(F7, [1, 2, 3, 4]))
        with pytest.raises(Precondition, match="hyperelliptic model needs odd q"):
            F4 = gf.make_field(2, 2)
            HyperellipticCurve(F4, gf.Polynomial.from_roots(F4, [0, 1, 2, 3]) *
                               F4.poly((1, 0, 1)))

    def test_field_must_be_the_polynomial_field(self):
        # the F_7 split sextic read over F_5 was accepted and counted 7
        # points, a count for no curve
        f = gf.Polynomial.from_roots(gf.make_field(7, 1), range(6))
        with pytest.raises(Precondition, match="^f is a polynomial over F_7, not over F_5$"):
            HyperellipticCurve(gf.make_field(5), f)
        with pytest.raises(Precondition, match="over F_7, not over F_49$"):
            HyperellipticCurve(gf.make_field(7, 2), f)
        assert hyperelliptic_point_count(HyperellipticCurve(gf.make_field(7), f)) == 8


class TestSampling:
    def test_linear(self):
        f = sample_branch_poly(7, 6, "linear", seed=1)
        assert f.degree == 6 and f.leading == 1
        assert [p.degree for p, _ in oracles.poly_factor(f)] == [1] * 6

    def test_quadratic(self):
        f = sample_branch_poly(7, 3, "quadratic", seed=1)
        assert f.degree == 6 and f.leading == 1
        assert [p.degree for p, _ in oracles.poly_factor(f)] == [2, 2, 2]

    def test_not_enough(self):
        with pytest.raises(Precondition, match="only 5 linear factors exist, need 6"):
            sample_branch_poly(5, 6, "linear", seed=1)
        with pytest.raises(Precondition,
                           match="only 3 monic irreducible quadratics exist, need 4"):
            sample_branch_poly(3, 4, "quadratic", seed=1)

    def test_point_count_budget(self, monkeypatch):
        # q * deg f Horner steps at most: deg 152 passes at q = 65521 and
        # deg 154 is refused, as is any degree past the budget, before any
        # sampling; "only N ... exist" comes first
        assert sample_branch_poly(65521, 152, "linear", 1).degree == 152
        assert sample_branch_poly(65521, 76, "quadratic", 1).degree == 152
        class NoSampling(random.Random):
            def sample(self, *args, **kwargs):
                raise AssertionError("sampled past the budget")

        monkeypatch.setattr(tw.random, "Random", NoSampling)
        for count, kind in ((153, "linear"), (77, "quadratic"), (10 ** 8, "quadratic")):
            degree = count * (1 + (kind == "quadratic"))
            with pytest.raises(BudgetExceeded, match=(
                    f"^a point count at degree {degree} over F_65521 takes "
                    f"{65521 * degree} Horner steps, budget is 10000000$")):
                sample_branch_poly(65521, count, kind, 1)
        with pytest.raises(Precondition, match="^only 65521 linear factors exist"):
            sample_branch_poly(65521, 65522, "linear", 1)

    def test_deterministic(self):
        assert sample_branch_poly(67, 62, "linear", 9) == \
            sample_branch_poly(67, 62, "linear", 9)
        assert sample_branch_poly(67, 31, "quadratic", 9) == \
            sample_branch_poly(67, 31, "quadratic", 9)

    def test_tree_product_equals_sequential(self):
        # the balanced product of the sampled factors is their product
        # taken one factor at a time, for every count parity and level shape
        rng = random.Random(11)
        for q in (3, 7, 9, 25, 27, 67, 81, 65521):
            field = gf.field_from_order(q)
            for count in (0, 1, 2, 3, 5, 8, 13, 31, 64):
                for kind in ("linear", "quadratic"):
                    if count > (q if kind == "linear" else q * (q - 1) // 2):
                        continue
                    factors = tw.sample_branch_factors(q, count, kind, rng.randrange(10 ** 6))
                    want = gf.Polynomial.one(field)
                    for x in factors:
                        want = want * field.poly((field.neg(x), 1) if kind == "linear"
                                                 else (x[1], x[0], 1))
                    assert tw._branch_poly(field, kind, factors) == want

    def test_shifted_flags_subtract_in_the_field(self):
        # the sampler shifts the flags of b = 0 by slicing each base-p digit
        rng = random.Random(5)
        for q in (3, 7, 9, 25, 27, 49, 81, 125):
            field = gf.field_from_order(q)
            flags = bytes(rng.randrange(2) for _ in range(q))
            for t in field.elements():
                assert tw._shifted(flags, t, field.p) == \
                    bytes(flags[field.sub(c, t)] for c in field.elements())

    # coefficients (or the sha256 of their repr) the sampler gave when it
    # listed every c with a field.sub and a field.mul call for each b picked
    PINNED_QUADRATIC = {
        (67, 4, 1): (44, 36, 42, 22, 43, 39, 24, 1, 1),
        (67, 4, 2): (63, 61, 41, 42, 18, 19, 60, 5, 1),
        (67, 4, 3): (24, 30, 4, 35, 48, 0, 44, 14, 1),
        (65521, 4, 1): (613, 16241, 63612, 44683, 44004, 40628, 13450, 23217, 1),
        (65521, 4, 2): (6149, 59465, 418, 58251, 31810, 4435, 24066, 40472, 1),
        (65521, 4, 3): (42299, 64553, 54806, 39880, 6547, 53591, 46865, 33150, 1),
        (67, 31, 9): "fcd27a59a3867af622b23119e927452b146382bf40969d530062ddc02d75c046",
        (65521, 40, 5): "5469de0cfafb57a48eefe32aea6624d7d7341b1cfa62cd1c164797601c4e393e",
    }

    @pytest.mark.parametrize("q,count,seed", sorted(PINNED_QUADRATIC))
    def test_quadratic_pinned(self, q, count, seed):
        coeffs = sample_branch_poly(q, count, "quadratic", seed).coeffs
        want = self.PINNED_QUADRATIC[q, count, seed]
        if isinstance(want, str):
            coeffs = hashlib.sha256(repr(coeffs).encode()).hexdigest()
        assert coeffs == want

    def test_quadratic_matches_listed_oracle(self):
        # the indexed sampler picks exactly what the list of all q^2 pairs
        # (b, c) gives, prime and prime-power q alike
        rng = random.Random(17)
        for q in (3, 5, 7, 9, 11, 25, 27, 49, 67):
            for _ in range(10):
                count = rng.randrange(1, min((q * q - q) // 2, 40) + 1)
                seed = rng.randrange(10 ** 6)
                assert sample_branch_poly(q, count, "quadratic", seed) == \
                    oracles.listed_quadratic_poly(q, count, seed)


def module(cycles):
    return tw.FrobeniusModule(tuple(cycles))


def matrix(m):
    return oracles.cycle_type_matrix(m.cycles)


class TestFrobeniusModules:
    def test_split_is_identity(self):
        F11 = gf.make_field(11, 1)
        f = sample_branch_poly(11, 8, "linear", seed=2)
        m = two_torsion_frobenius(HyperellipticCurve(F11, f))
        assert m.g == 3 and m.dim == 6
        assert m.cycles == (1,) * 8
        assert list(matrix(m).rows) == oracles.identity_rows(6)
        assert fixed_space_dim(m) == 6

    def test_quadratic_fixed_dim_even_genus(self):
        F11 = gf.make_field(11, 1)
        for g2 in (2, 4):
            f = sample_branch_poly(11, g2 + 1, "quadratic", seed=4)
            m = two_torsion_frobenius(HyperellipticCurve(F11, f))
            assert m.dim == 2 * g2
            assert fixed_space_dim(m) == g2

    def test_quadratic_fixed_dim_odd_genus_extra_invariant(self):
        # with g2 odd the one-root-per-pair subsets have even size and map
        # to their complement, so one extra class survives in the quotient
        F11 = gf.make_field(11, 1)
        for g2 in (3, 5):
            f = sample_branch_poly(11, g2 + 1, "quadratic", seed=4)
            m = two_torsion_frobenius(HyperellipticCurve(F11, f))
            assert fixed_space_dim(m) == g2 + 1

    def test_dimension_is_deg_minus_2(self):
        rng = random.Random(17)
        field = gf.make_field(11, 1)
        for _ in range(5):
            f = squarefree_poly(field, rng.choice((6, 8, 10)), rng)
            m = two_torsion_frobenius(HyperellipticCurve(field, f))
            assert m.dim == f.degree - 2

    def test_six_cycle_order(self):
        m = module([6])
        rows = list(matrix(m).rows)
        assert oracles.matpow_rows(rows, 6, 4) == oracles.identity_rows(4)
        assert oracles.matpow_rows(rows, 3, 4) != oracles.identity_rows(4)
        # the orbit indicator is the all-ones vector, which the quotient
        # kills: no invariants survive and the char poly is (x^2+x+1)^2
        assert fixed_space_dim(m) == 0
        F2 = gf.make_field(2, 1)
        assert gf.Polynomial(F2, oracles.berkowitz_charpoly(rows, 4)) == \
            F2.poly((1, 0, 1, 0, 1))

    def test_module_matches_curve_factorization(self):
        # an irreducible sextic gives a single 6-cycle
        field = gf.make_field(7, 1)
        rng = random.Random(23)
        while True:
            f = squarefree_poly(field, 6, rng)
            if len(oracles.poly_factor(f)) == 1:
                break
        assert two_torsion_frobenius(HyperellipticCurve(field, f)).cycles == (6,)

    @pytest.mark.parametrize("q", [7, 9, 11, 25, 27])
    def test_cycle_type_matches_full_factorization(self, q):
        # the distinct-degree split must give the factor-degree multiset of
        # the full factorization, in the same (ascending) order, over prime
        # fields and over F_25 and F_27
        field = gf.field_from_order(q)
        rng = random.Random(q)
        for _ in range(8):
            f = squarefree_poly(field, rng.choice((6, 8, 10, 12)), rng)
            degrees = [p.degree for p, _ in oracles.poly_factor(f)]
            m = two_torsion_frobenius(HyperellipticCurve(field, f))
            assert m.cycles == tuple(degrees)

    def test_cycle_type_validation(self):
        for cycles in ((), (1, 2), (2,), (3, 0, 1), (5, -1)):
            with pytest.raises(Precondition, match="cycle lengths must be positive"):
                module(cycles)


class TestEigenData:
    def test_identity(self):
        mults = eigen_multiplicities(matrix(module([1] * 6)))
        assert len(mults) == 1
        p, mult = mults[0]
        assert p.coeffs == (1, 1) and mult == 4

    def test_quadratic_case(self):
        m = matrix(module([2, 2, 2]))  # g2 = 2
        ones = [mult for p, mult in eigen_multiplicities(m) if p.coeffs == (1, 1)]
        assert ones == [2]

    def test_tensor_identity_times_module(self):
        md = module([2, 2, 2])
        for g1 in (1, 2, 3):
            mc = module([1] * (2 * g1 + 2))
            assert tw.tensor_invariant_dim(mc, md) == 2 * g1 * 2

    def test_tensor_i2_i2(self):
        i2 = module([1, 1, 1, 1])
        assert tw.tensor_invariant_dim(i2, i2) == 4

    def test_unipotent_pair_exceeds_eigen_formula(self):
        # not a permutation module: the matrix oracle answers
        uni = SimpleNamespace(dim=2, rows=(0b11, 0b10))
        assert not oracles.is_semisimple(uni)
        assert oracles.matrix_invariant_dim(uni, uni) == 2
        assert oracles.kron_invariant_dim(uni, uni) == 2
        assert eigen_pairing_dim(uni, uni) == 1

    def test_too_large(self):
        # the Kronecker oracle refuses sides above 64 dimensions; the matrix
        # oracle and the cycle types answer (I_66 (x) I_66 fixes everything)
        big = module([1] * 68)
        with pytest.raises(oracles.TooLarge):
            oracles.kron_invariant_dim(matrix(big), matrix(big))
        assert oracles.matrix_invariant_dim(matrix(big), matrix(big)) == 66 * 66
        assert tw.tensor_invariant_dim(big, big) == 66 * 66

    def test_eigen_formula_matches_kron_with_semisimple_factor(self):
        # every cycle-type pair, semisimple or not, against the Kronecker
        # oracle; the eigenvalue pairing wherever one factor is semisimple
        rng = random.Random(99)
        semisimple = 0
        for _ in range(300):
            mc = module(random_cycle_type(rng))
            md = module(random_cycle_type(rng))
            xc, xd = matrix(mc), matrix(md)
            kron = oracles.kron_invariant_dim(xc, xd)
            assert tw.tensor_invariant_dim(mc, md) == kron
            if oracles.is_semisimple(xc) or oracles.is_semisimple(xd):
                assert eigen_pairing_dim(xc, xd) == kron
                semisimple += 1
        assert 40 <= semisimple < 300      # the sample holds both kinds

    def test_random_invertible_pairs_match_kron(self):
        # Jordan blocks and eigenvalues no cycle type has, on the matrix oracle
        rng = random.Random(100)
        for _ in range(150):
            mc, md = random_invertible(rng), random_invertible(rng)
            assert oracles.matrix_invariant_dim(mc, md) == \
                oracles.kron_invariant_dim(mc, md)

    def test_singular_module_raises(self):
        # a cycle type is always invertible; the matrix oracle refuses
        nil = SimpleNamespace(dim=2, rows=(0b10, 0b00))   # x^2: nilpotent
        i2 = matrix(module([1, 1, 1, 1]))
        for mc, md in ((nil, i2), (i2, nil)):
            with pytest.raises(Precondition, match="singular"):
                oracles.matrix_invariant_dim(mc, md)


def random_cycle_type(rng, max_total=12):
    total = rng.choice((4, 6, 8, 10, 12))
    parts = []
    left = total
    while left:
        c = rng.randrange(1, left + 1)
        parts.append(c)
        left -= c
    return parts


def cycle_types(n, largest=None):
    """Every cycle type (partition) of n, parts descending."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in cycle_types(n - part, part):
            yield (part,) + rest


class TestCycleTypeFormula:
    TYPES = [module(c) for n in range(4, 11, 2) for c in cycle_types(n)]

    def test_all_pairs_up_to_ten_roots(self):
        # 80 cycle types, 6,400 pairs: the matrix oracle and the Kronecker
        # oracle on every one
        assert len(self.TYPES) == 80
        mats = [matrix(m) for m in self.TYPES]
        fixed = [oracles.kernel_dim(oracles.add_rows(x.rows, oracles.identity_rows(x.dim)),
                                    x.dim) for x in mats]
        for m, x, h in zip(self.TYPES, mats, fixed):
            assert fixed_space_dim(m) == h
        for mc, xc in zip(self.TYPES, mats):
            for md, xd in zip(self.TYPES, mats):
                got = tw.tensor_invariant_dim(mc, md)
                assert got == oracles.matrix_invariant_dim(xc, xd)
                assert got == oracles.kron_invariant_dim(xc, xd)

    def test_seeded_pairs_up_to_58_roots(self):
        # cycles up to 32 long, so 2-power parts up to 32 and odd parts
        # with several cyclotomic factors meet in one pair
        rng = random.Random(58)

        def draw():
            left, parts = 2 * rng.randrange(2, 30), []
            while left:
                parts.append(rng.randint(1, min(left, 32)))
                left -= parts[-1]
            return module(parts)

        for _ in range(300):
            mc, md = draw(), draw()
            assert kunneth_invariants(mc, md) == \
                oracles.matrix_kunneth_invariants(matrix(mc), matrix(md))

    @pytest.mark.parametrize("g1, g2", [(30, 30), (29, 29), (25, 32), (29, 30)])
    def test_certificate_families(self, g1, g2):
        mc, md = module([1] * (2 * g1 + 2)), module([2] * (g2 + 1))
        assert kunneth_invariants(mc, md) == \
            oracles.matrix_kunneth_invariants(matrix(mc), matrix(md))


class TestKunneth:
    def test_closed_forms_split_times_quadratic(self):
        for g1, g2 in ((2, 2), (3, 2), (2, 4), (4, 2)):
            mc = module([1] * (2 * g1 + 2))
            md = module([2] * (g2 + 1))
            kd = kunneth_invariants(mc, md)
            assert kd["h1G"] == 2 * g1 + g2
            assert kd["h2G"] == 2 * g1 * g2 + 2

    def test_closed_forms_odd_quadratic_genus(self):
        # parity-corrected values for g2 odd
        for g1, g2 in ((2, 3), (4, 3), (3, 5)):
            mc = module([1] * (2 * g1 + 2))
            md = module([2] * (g2 + 1))
            kd = kunneth_invariants(mc, md)
            assert kd["h1G"] == 2 * g1 + g2 + 1
            assert kd["h2G"] == 2 * g1 * (g2 + 1) + 2

    def test_identity_pair(self):
        i2 = module([1, 1, 1, 1])
        kd = kunneth_invariants(i2, i2)
        # both factors are 2-dimensional identity modules
        assert kd == {"h1G": 4, "h2G": 6}


class TestGolodShafarevich:
    def test_boundary_instance(self):
        assert golod_shafarevich_check(90, 1802, 4, 4)
        assert 85 ** 2 == 7225 and 4 * 1806 == 7224

    def test_one_less_fails(self):
        assert not golod_shafarevich_check(89, 1802, 4, 4)

    def test_negative_guard(self):
        assert not golod_shafarevich_check(4, 0, 4, 0)

    def test_agrees_with_high_precision_real_form(self):
        from decimal import Decimal, getcontext
        getcontext().prec = 60
        rng = random.Random(6)
        for _ in range(10_000):
            h1 = rng.randrange(0, 200)
            h2 = rng.randrange(0, 4000)
            rt = rng.randrange(0, 20)
            t = rng.randrange(0, 40)
            real = Decimal(h1) >= Decimal(rt) + 1 + 2 * Decimal(h2 + t).sqrt()
            assert golod_shafarevich_check(h1, h2, rt, t) == real

    def test_chi_form_boundary_and_guard(self):
        # equality by construction: pick s = h1bar - alpha + rt - 5 and make
        # the right side s^2/4 exactly
        assert gs_check_chi_form(25, 0, 0, 100 - 2 * 0 - 2 * 0 - 4 - 0, 0)
        assert not gs_check_chi_form(3, 0, 1, 0, 0)

    def test_chi_form_cross_evaluation_logged(self):
        # the chi form's sign on r_T disagrees with substituting
        # h1G = h1bar - alpha into the main criterion; log, don't assert
        rng = random.Random(31)
        disagreements = 0
        for _ in range(200):
            g1, g2 = rng.randrange(2, 30), rng.randrange(2, 30)
            rho = 1
            h1g = 2 * g1 + g2
            h2g = 2 * g1 * g2 + 2
            rt, t = 3 * rho + 1, 4 * rho
            alpha = g2  # split x quadratic instance: h1bar = 2g1 + 2g2
            h1bar = h1g + alpha
            h2bar = 4 * g1 * g2 + 2
            chibar = h2bar - 2 * h1bar + 2
            main = golod_shafarevich_check(h1g, h2g, rt, t)
            chi_form = gs_check_chi_form(h1bar, alpha, rt, chibar, t)
            if main != chi_form:
                disagreements += 1
        print(f"chi-form cross-evaluation disagreements: {disagreements}/200")

    def test_rt_helpers(self):
        assert r_t_upper(1) == 4
        assert r_t_upper(2) == 7
        for rho in range(1, 10):
            assert r_t_upper(rho) <= 4 * rho
        assert r_t_bracket(8) == (1, 8)

    def test_marked_invariants(self):
        assert marked_invariants(5, 0) == {"h2_minus_h1_marked": 4,
                                           "chi_marked": 0}
        assert marked_invariants(10, 4) == {"h2_minus_h1_marked": 13,
                                            "chi_marked": 4}


class TestCertificates:
    def test_boundary_pass(self):
        cert = hyperelliptic_product_certificate(67, 30, 30, 1, seed=1)
        assert cert.gs_pass
        assert cert.gs_lhs_squared == 7225
        assert cert.gs_rhs == 7224
        assert cert.h1g == 90 and cert.h2g == 1802
        assert cert.count_c >= 64 and cert.count_d >= 2
        assert cert.conditions == {"points_C": True, "points_D": True, "gs": True}
        assert cert.rt_upper == 4 and cert.t_size == 4

    def test_g1_29_fails(self):
        cert = hyperelliptic_product_certificate(67, 29, 30, 1, seed=1)
        assert not cert.gs_pass
        assert cert.gs_lhs_squared == 6889 and cert.gs_rhs == 6984
        assert cert.conditions["gs"] is False

    def test_condition_flag_not_exception(self):
        # rho so large that 2 rho exceeds the point count of D
        cert = hyperelliptic_product_certificate(11, 2, 2, 40, seed=1)
        assert cert.conditions["points_D"] is False
        assert not cert.gs_pass

    def test_structural_precondition_raises(self):
        with pytest.raises(Precondition, match="only 5 linear factors exist, need 62"):
            hyperelliptic_product_certificate(5, 30, 30, 1)

    def test_json_schema(self):
        cert = hyperelliptic_product_certificate(11, 2, 2, 1, seed=1)
        d = cert.to_json_dict()
        assert set(d) == {"q", "g1", "g2", "rho", "f", "g", "count_C",
                          "count_D", "h1G", "h2G", "rT_upper", "T_size",
                          "gs_lhs_squared", "gs_rhs", "gs_pass", "conditions"}
        assert set(d["conditions"]) == {"points_C", "points_D", "gs"}

    def test_search_includes_30_30(self):
        certs = search_parameters(67, range(29, 32), range(29, 32), range(1, 2))
        found = {(c.g1, c.g2, c.rho) for c in certs}
        assert (30, 30, 1) in found
        for c in certs:
            assert c.gs_pass

    def test_search_skips_infeasible(self):
        assert search_parameters(5, range(2, 33), range(2, 4), range(1, 2)) == []
        # g1 = 33 needs 68 linear factors over F_67; genus < 2 and rho < 1
        assert search_parameters(67, range(33, 34), range(29, 31), range(1, 3)) == []
        assert search_parameters(11, range(-1, 2), range(-1, 2), range(-1, 1)) == []
        # one empty range empties the product; the others are not walked
        assert search_parameters(67, range(1, 10 ** 18), range(5, 5), range(1, 2)) == []
        assert search_parameters(67, range(2, 3), range(1, 10 ** 30), []) == []

    def test_search_propagates_certificate_errors(self, monkeypatch):
        # a side error (here a g with a repeated quadratic factor at g2 = 30,
        # rejected by the real curve constructor) propagates out of the search
        real = tw.sample_branch_factors

        def sample(q, count, kind, seed):
            if (kind, count) == ("quadratic", 31):
                pairs = real(q, count - 1, kind, seed)
                return pairs + pairs[:1]
            return real(q, count, kind, seed)

        monkeypatch.setattr(tw, "sample_branch_factors", sample)
        with pytest.raises(Precondition, match="f has a repeated root"):
            search_parameters(67, range(29, 31), range(30, 31), range(1, 2))

    def test_closed_form_mismatch_raises(self, monkeypatch):
        real = tw.kunneth_invariants

        def off_by_one(mc, md):
            kd = real(mc, md)
            return {**kd, "h1G": kd["h1G"] + 1}

        monkeypatch.setattr(tw, "kunneth_invariants", off_by_one)
        with pytest.raises(InvariantError, match="h1G"):
            hyperelliptic_product_certificate(11, 2, 2, 1, seed=1)

    def test_search_budget(self):
        # the budget is checked before any candidate tuple is built
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                search_parameters(67, range(2000), range(2000), range(1, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


    def test_infeasible_search_lists_nothing(self):
        # 10^6 candidates, none feasible at q = 3: the product is walked
        # without being listed or sorted
        tracemalloc.start()
        try:
            certs = search_parameters(3, range(1000), range(1000), range(1, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert certs == []
        assert peak < 1 << 20

    def test_search_repeats_duplicate_genera(self):
        # unsorted ranges with repeats: each passing certificate appears once
        # per (g1, g2, rho) combination, as computed when the search still
        # sorted the whole product
        certs = search_parameters(67, [30, 29, 30, 33], [30, 29, 29], [2, 1, 1], 1)
        assert [(c.g1, c.g2, c.rho) for c in certs] == \
            [(30, 29, 1)] * 8 + [(30, 30, 1)] * 4
        digest = hashlib.sha256(
            json.dumps([c.to_json_dict() for c in certs]).encode()).hexdigest()
        assert digest == "9a5adda58ffbf03ca5a34288844cc467d6ea458eda2ed329ceab80444f646944"


class TestSearchReuse:
    @pytest.mark.parametrize("q, g1s, g2s, rhos", [
        (13, range(-1, 8), range(-1, 6), range(0, 4)),
        (67, (33, 30, 31), (29, 30, 31), (1, 2, 3)),
    ], ids=["q13_infeasible_edges", "q67_passing"])
    def test_search_equals_filtered_certificates(self, q, g1s, g2s, rhos):
        want = []
        for a, b, r in sorted((a, b, r) for a in g1s for b in g2s for r in rhos):
            try:
                cert = hyperelliptic_product_certificate(q, a, b, r, seed=5)
            except ValueError:
                continue
            if cert.gs_pass:
                want.append(cert.to_json_dict())
        got = [c.to_json_dict() for c in search_parameters(q, g1s, g2s, rhos, seed=5)]
        assert got == want
        if q == 67:
            assert (30, 30, 1) in {(c["g1"], c["g2"], c["rho"]) for c in got}

    def test_each_side_once_per_genus(self, monkeypatch):
        counts = {"frobenius": 0, "tensor": 0}
        real_frobenius, real_tensor = tw.two_torsion_frobenius, tw.tensor_invariant_dim

        def frobenius(curve):
            counts["frobenius"] += 1
            return real_frobenius(curve)

        def tensor(mc, md):
            counts["tensor"] += 1
            return real_tensor(mc, md)

        monkeypatch.setattr(tw, "two_torsion_frobenius", frobenius)
        monkeypatch.setattr(tw, "tensor_invariant_dim", tensor)
        # feasible genera: g1 in {29, 30} (33 needs 68 roots), g2 in {29, 30}
        for calls in (1, 2):
            search_parameters(67, (29, 30, 33), (29, 30), (1, 2, 3))
            # nothing is kept between calls
            assert counts == {"frobenius": 4 * calls, "tensor": 4 * calls}


# sha256 of json.dumps of the to_json_dict list, pinned while the point
# counts still came from Horner's rule and the branch polynomials from
# sequential products: (g1, g2, rho, seed) rows per q, then search blocks
CERTIFICATE_SWEEP = {
    7: ((2, 2, 1, 1), (2, 5, 1, 3), (2, 20, 2, 11)),
    9: ((2, 2, 1, 1), (3, 7, 2, 4), (3, 35, 1, 9)),
    11: ((2, 2, 1, 1), (4, 9, 1, 2), (3, 54, 3, 6)),
    25: ((2, 3, 1, 1), (11, 11, 1, 5), (7, 50, 2, 8)),
    27: ((2, 2, 1, 1), (12, 13, 2, 3), (9, 60, 1, 10)),
    67: ((30, 30, 1, 1), (29, 30, 1, 1), (32, 31, 2, 77), (2, 500, 1, 4)),
    81: ((39, 38, 1, 1), (20, 21, 3, 12), (2, 2, 1, 6)),
}
CERTIFICATE_DIGESTS = {
    7: "d0b7d27ccb6c652faec1740a98335a4013473f50eea4825fd327dd39097fdcb6",
    9: "459105b2663ad7e4fc71c8f7360a13db57a8416ae7e69b551f0813ec446887e3",
    11: "38201ca82f751b6a70e567568b696ac718cb4e23c19d5dd09a8e56c668d4c2aa",
    25: "ce341b328e82e7cb359db7f8d9d50e096279d64ce69e845282398122304bdcdf",
    27: "d4c3e2d9c5bd996f649a1fc0c8aa838ebd348005e16ede6bfe9bd09c981e4640",
    67: "a45a75d87a1c1e4decdeede36dfc1bd5593763a6f6ad76ee1943388c8e8583a0",
    81: "de5c20067f529e8adb8fd3f2c258295a2c20c6d6b8ae76e83aceb896f9fd0866",
}
SEARCH_DIGESTS = [
    ((67, range(25, 33), range(25, 33), range(1, 3), 5),
     "cd35f4f4b0e16a1a1e38faf13ecad33bfa6c2ff3b6df53027ae73614c5b678de"),
    ((81, (39, 2, 38), (37, 38, 40), (1,), 2),
     "4d2ab00e0f35d3e3f7f2c32da9ac4950875b587cf28711dd0c5ea9d68cf9d9bb"),
]


def _certificates_digest(certs) -> str:
    return hashlib.sha256(json.dumps([c.to_json_dict() for c in certs]).encode()).hexdigest()


@pytest.mark.parametrize("q", sorted(CERTIFICATE_SWEEP))
def test_certificate_bytes_pinned(q):
    certs = [hyperelliptic_product_certificate(q, *row) for row in CERTIFICATE_SWEEP[q]]
    assert _certificates_digest(certs) == CERTIFICATE_DIGESTS[q]


@pytest.mark.parametrize("args, digest", SEARCH_DIGESTS, ids=["q67", "q81"])
def test_search_bytes_pinned(args, digest):
    assert _certificates_digest(search_parameters(*args)) == digest


def test_library_path_evaluates_no_polynomial(monkeypatch):
    # certificates and searches count points from the sampled factors: no
    # Horner evaluation runs on the way
    def no_horner(f, a):
        raise AssertionError("poly_eval called")

    monkeypatch.setattr(gf, "poly_eval", no_horner)
    cert = hyperelliptic_product_certificate(67, 30, 30, 1)
    assert (cert.count_c, cert.count_d, cert.gs_pass) == (72, 80, True)
    certs = search_parameters(67, (29, 30, 33), (29, 30), (1, 2))
    assert [(c.g1, c.g2, c.rho) for c in certs] == [(30, 29, 1), (30, 30, 1)]

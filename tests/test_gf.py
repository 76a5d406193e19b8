import hashlib
import random
import time

import pytest

import oracles
from oracles import poly_factor

from surfcodes import gf
from surfcodes.errors import Precondition
from surfcodes.gf import (Polynomial, extension_field, make_field, poly_eval,
                          poly_gcd, quadratic_character)

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6)]


def enumerate_canonical_modulus(p, m):
    """Independent oracle: first monic irreducible of degree m in base-p
    encoding order, testing irreducibility by trial division against every
    lower-degree monic polynomial."""
    def poly_from_enc(enc, deg):
        cs = []
        for _ in range(deg):
            cs.append(enc % p)
            enc //= p
        return cs

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    all_lower = []
    for d in range(1, m):
        for enc in range(p ** d):
            all_lower.append(poly_from_enc(enc, d) + [1])
    for enc in range(p ** m):
        f = poly_from_enc(enc, m) + [1]
        reducible = False
        for g in all_lower:
            for henc in range(p ** (m - (len(g) - 1))):
                h = poly_from_enc(henc, m - (len(g) - 1)) + [1]
                if mul(g, h) == f:
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return tuple(f[:-1])
    raise AssertionError


class TestMakeField:
    def test_prime_field_modulus_is_x(self):
        assert make_field(3, 1).modulus == (0,)

    def test_f9_canonical_modulus(self):
        # oracle: enumerate monic degree-2 polys over F_3 in encoding order
        assert enumerate_canonical_modulus(3, 2) == (1, 0)
        assert make_field(3, 2).modulus == (1, 0)

    # (2, 8) and (3, 6) are the F_256 and F_729 of the benchmark
    @pytest.mark.parametrize("p,m", SMALL_FIELDS + [(2, 8), (3, 6)])
    def test_canonical_modulus_matches_oracle(self, p, m):
        assert make_field(p, m).modulus == enumerate_canonical_modulus(p, m)

    def test_not_prime(self):
        with pytest.raises(Precondition, match="^4 is not prime$"):
            make_field(4, 1)

    def test_too_large(self):
        with pytest.raises(Precondition, match=r"^q = 2\^17 exceeds 65536$"):
            make_field(2, 17)
        assert make_field(2, 16).q == 65536

    def test_too_large_rejected_before_primality(self):
        # trial division on these inputs would not finish
        for p, m in ((10 ** 18 + 3, 1), (3, 10 ** 9)):
            with pytest.raises(Precondition, match=rf"^q = {p}\^{m} exceeds 65536$"):
                make_field(p, m)
        with pytest.raises(Precondition, match="^q = 1000000000000000003 exceeds 65536$"):
            gf.field_from_order(10 ** 18 + 3)

    def test_field_from_order(self):
        assert gf.field_from_order(9) is make_field(3, 2)
        with pytest.raises(Precondition, match="^12 is not a prime power$"):
            gf.field_from_order(12)

    def test_one_instance_per_field(self):
        # the cache key does not depend on whether m is passed
        assert make_field(7) is make_field(7, 1) is gf.field_from_order(7)
        assert make_field(3, m=2) is make_field(3, 2) is gf.field_from_order(9)

    def test_json_round_trip(self):
        spec = make_field(3, 2)
        assert gf.field_from_json(spec.to_json_dict()) is spec
        with pytest.raises(ValueError):
            gf.field_from_json({"p": 3, "m": 2, "modulus": [2, 0]})


class TestArithmetic:
    def test_f3_add(self):
        assert make_field(3, 1).add(2, 2) == 1

    def test_f9_x_squared(self):
        # x has index 3; modulus x^2 + 1 forces x*x = -1 = 2
        F = make_field(3, 2)
        assert F.mul(3, 3) == 2

    def test_inverse_identity(self):
        for p, m in SMALL_FIELDS:
            F = make_field(p, m)
            for a in range(1, F.q):
                assert F.mul(F.pow(a, F.q - 2), a) == 1

    @pytest.mark.parametrize("p,m", SMALL_FIELDS)
    def test_field_axioms_full_tables(self, p, m):
        F = make_field(p, m)
        q = F.q
        for a in range(q):
            for b in range(q):
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                assert F.add(a, F.neg(a)) == 0
        rng = random.Random(7)
        triples = [(rng.randrange(q), rng.randrange(q), rng.randrange(q))
                   for _ in range(300)] if q > 16 else \
            [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]
        for a, b, c in triples:
            assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))

    @pytest.mark.parametrize("p,m", SMALL_FIELDS)
    def test_frobenius_additivity(self, p, m):
        F = make_field(p, m)
        for a in range(F.q):
            for b in range(F.q):
                assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))

    @pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27, 64, 81, 729])
    def test_numpy_tables_match_scalar_ops(self, q):
        F = gf.field_from_order(q)
        add, mul = F.numpy_tables()
        if q <= 81:
            pairs = [(a, b) for a in range(q) for b in range(q)]
        else:
            rng = random.Random(q)
            pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(10_000)]
        for a, b in pairs:
            assert add[a, b] == F.add(a, b)
            assert mul[a, b] == F.mul(a, b)

    @pytest.mark.parametrize("q, dtype", [(2, "uint8"), (256, "uint8"),
                                          (257, "uint16"), (729, "uint16")])
    def test_numpy_tables_narrow_dtype(self, q, dtype):
        F = gf.field_from_order(q)
        add, mul = F.numpy_tables()
        assert (add.dtype, mul.dtype) == (dtype, dtype)
        assert F.numpy_tables()[0] is add              # built once, not per call

    def test_division(self):
        F = make_field(7, 1)
        for a in range(7):
            for b in range(1, 7):
                assert F.mul(F.div(a, b), b) == a
        with pytest.raises(Precondition, match="^division by 0$"):
            F.div(1, 0)
        with pytest.raises(Precondition, match="^inverse of 0$"):
            F.inv(0)


class TestQuadraticCharacter:
    def test_f7_values(self):
        F = make_field(7, 1)
        squares = {F.mul(a, a) for a in range(1, 7)}
        assert squares == {1, 2, 4}
        assert quadratic_character(F, 2) == 1
        assert quadratic_character(F, 3) == -1
        assert quadratic_character(F, 0) == 0

    def test_even_characteristic_rejected(self):
        with pytest.raises(Precondition, match="quadratic character needs odd q"):
            quadratic_character(make_field(2, 2), 1)

    @pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2), (7, 2), (5, 2)])
    def test_multiplicativity_and_balance(self, p, m):
        F = make_field(p, m)
        for a in range(F.q):
            for b in range(F.q):
                assert (quadratic_character(F, F.mul(a, b))
                        == quadratic_character(F, a) * quadratic_character(F, b))
        assert sum(quadratic_character(F, a) for a in range(1, F.q)) == 0


class TestExtensionField:
    def test_f2_to_f4(self):
        F2 = make_field(2, 1)
        ext, emb = extension_field(F2, 2)
        assert ext.q == 4
        assert emb[0] == 0 and emb[1] == 1

    def test_f3_image_is_frobenius_fixed(self):
        F3 = make_field(3, 1)
        ext, emb = extension_field(F3, 2)
        fixed = {a for a in range(ext.q) if ext.pow(a, 3) == a}
        assert set(emb) == fixed
        assert len(fixed) == 3

    def test_f16_to_f256(self):
        ext, _ = extension_field(make_field(2, 4), 2)
        assert ext.q == 256

    def test_too_large(self):
        with pytest.raises(Precondition, match=r"^256\^3 exceeds 65536$"):
            extension_field(make_field(2, 8), 3)

    def test_long_degree_refused_before_the_power(self):
        # a degree past 16 is refused at once, without forming q^k
        start = time.perf_counter()
        for k in (17, 10 ** 7, 10 ** 4999):
            with pytest.raises(Precondition, match=r"^3\^.* exceeds 65536$"):
                extension_field(make_field(3), k)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("p,m,k", [(2, 1, 2), (2, 2, 2), (3, 1, 2),
                                       (2, 2, 3), (2, 3, 2), (3, 2, 2),
                                       (5, 1, 2), (7, 1, 2), (13, 1, 2)])
    def test_embedding_is_ring_hom(self, p, m, k):
        base = make_field(p, m)
        ext, emb = extension_field(base, k)
        assert len(set(emb)) == base.q
        assert emb[0] == 0 and emb[1] == 1
        for a in range(base.q):
            for b in range(base.q):
                assert emb[base.add(a, b)] == ext.add(emb[a], emb[b])
                assert emb[base.mul(a, b)] == ext.mul(emb[a], emb[b])


class TestPolyEval:
    def test_examples(self):
        F3 = make_field(3, 1)
        f = F3.poly((1, 0, 1))  # x^2 + 1
        assert poly_eval(f, 1) == 2
        assert poly_eval(F3.poly(()), 2) == 0

    def test_product_of_linear_factors_is_xq_minus_x(self):
        F5 = make_field(5, 1)
        f = Polynomial.from_roots(F5, range(5))
        for a in range(5):
            assert poly_eval(f, a) == 0
        # and the coefficients are literally those of x^5 - x
        assert f == F5.poly((0, 4, 0, 0, 0, 1))


class TestPolyFactor:
    def test_f3_split_quadratic(self):
        F3 = make_field(3, 1)
        facs = poly_factor(F3.poly((2, 0, 1)))  # x^2 + 2 = (x+1)(x+2)
        assert facs == [(F3.poly((1, 1)), 1), (F3.poly((2, 1)), 1)]

    def test_f3_irreducible_quadratic(self):
        F3 = make_field(3, 1)
        f = F3.poly((1, 0, 1))
        assert poly_factor(f) == [(f, 1)]

    def test_repeated_root(self):
        F5 = make_field(5, 1)
        assert poly_factor(F5.poly((0, 0, 1))) == [(F5.poly((0, 1)), 2)]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(Precondition, match="cannot factor the zero polynomial"):
            poly_factor(make_field(2, 1).poly(()))

    @pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
    def test_round_trip_random(self, p, m):
        F = make_field(p, m)
        rng = random.Random(100 * p + m)
        for _ in range(25):
            deg = rng.randrange(1, 21)
            coeffs = [rng.randrange(F.q) for _ in range(deg)] + [rng.randrange(1, F.q)]
            f = F.poly(coeffs)
            prod = Polynomial.one(F).scale(f.leading)
            for fac, mult in poly_factor(f):
                assert fac.leading == 1
                for _ in range(mult):
                    prod = prod * fac
            assert prod == f

    def test_irreducibility_certificate(self):
        # every returned factor of degree d is coprime to x^(q^e) - x for
        # each proper divisor e of d
        F = make_field(3, 1)
        rng = random.Random(5)
        for _ in range(10):
            coeffs = [rng.randrange(3) for _ in range(rng.randrange(2, 13))] + [1]
            for fac, _ in poly_factor(F.poly(coeffs)):
                d = fac.degree
                for e in range(1, d):
                    if d % e:
                        continue
                    frob = gf.poly_pow_mod(Polynomial.x(F), F.q ** e, fac)
                    g = poly_gcd(frob - Polynomial.x(F), fac)
                    assert g.degree == 0

    def test_deterministic_output(self):
        F = make_field(3, 2)
        f = Polynomial.from_roots(F, [2, 5, 7]) * F.poly((1, 0, 1))
        assert poly_factor(f) == poly_factor(f)

    def test_char2_extension_field_factoring(self):
        # equal-degree splitting must work through the F_2-trace in char 2
        F4 = make_field(2, 2)
        f = Polynomial.from_roots(F4, [0, 1, 2, 3])
        facs = poly_factor(f)
        assert [fc.degree for fc, _ in facs] == [1, 1, 1, 1]


def _random_poly(F, deg, rng):
    """Degree deg with a random nonzero leading coefficient; deg -1 is zero."""
    if deg < 0:
        return F.poly(())
    return Polynomial(F, [rng.randrange(F.q) for _ in range(deg)]
                      + [rng.randrange(1, F.q)])


@pytest.mark.parametrize("p", [2, 3, 67, 251, 65521])
def test_packed_kernels_match_schoolbook(p):
    """Products, quotients, remainders, modular powers, gcds and values over
    F_p agree with the per-coefficient oracles on operands of degree -1..130,
    non-monic moduli of degree 0..70 (0, 1 and 2 always among them) and
    exponents 0, 1, p, p^2 and random; distinct-degree splits and
    factorizations recomputed on the oracles agree too."""
    rng = random.Random(p)
    F = make_field(p)
    for i in range(20):
        a = _random_poly(F, rng.randrange(-1, 131), rng)
        b = _random_poly(F, rng.randrange(-1, 131), rng)
        mod = _random_poly(F, i if i < 3 else rng.randrange(0, 71), rng)
        e = rng.choice([0, 1, p, p * p, rng.randrange(p ** 3)])
        t = rng.randrange(p)
        f = _random_poly(F, rng.randrange(1, 13), rng).monic()

        def run():
            return (a * b, divmod(a, mod), divmod(b, mod), a * a,
                    gf.poly_pow_mod(a, e, mod), poly_gcd(a, b),
                    poly_eval(a, t), gf.distinct_degree(f), poly_factor(f))

        fast = run()
        with oracles.schoolbook_kernels():
            slow = run()
        assert fast == slow


@pytest.mark.parametrize("p", [2, 3, 5, 67, 65521])
def test_prime_field_gcd_matches_euclid(p):
    """The gcd over F_p on int lists equals the generic Euclid on pairs with
    a common factor, zero operands, equal degrees, remainders that drop more
    than one degree and non-monic operands, in both argument orders."""
    rng = random.Random(7 * p)
    F = make_field(p)
    zero = F.poly(())
    pairs = [(zero, zero), (zero, F.poly((p - 1,)))]
    for _ in range(60):
        h = _random_poly(F, rng.randrange(-1, 8), rng)
        da = rng.randrange(-1, 40)
        db = rng.choice([da, da - 1, da - rng.randrange(2, 6), rng.randrange(-1, 40)])
        a, b = _random_poly(F, da, rng), _random_poly(F, db, rng)
        pairs += [(a, b), (a * h, b * h), (a * h, h), (a, zero)]
        # a divisor whose top terms cancel the dividend's two top terms
        # leaves a remainder more than one degree down
        c = _random_poly(F, rng.randrange(2, 30), rng)
        x_plus = F.poly((rng.randrange(p), 1))
        pairs.append((c * x_plus + _random_poly(F, rng.randrange(-1, c.degree - 1), rng), c))
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            assert poly_gcd(x, y) == oracles.euclid_gcd(x, y)


def test_field_construction_digest():
    # the modulus and the exp table of every field with q <= 4096, pinned
    # byte for byte: the packed F_p arithmetic of the modulus search and the
    # table bootstrap must reproduce the per-coefficient results
    h = hashlib.sha256()
    count = 0
    for q in range(2, 4097):
        if len(gf.prime_factors(q)) == 1:
            F = gf.field_from_order(q)
            h.update(repr((q, F.modulus, F._exp)).encode())
            count += 1
    assert count == 604
    assert h.hexdigest() == \
        "29a24ddd6cef40da70bf064a7979599915daf72ded872d17a9bab6be92847061"


def test_pow_mod_refuses_negative_exponent():
    F = make_field(7)
    start = time.perf_counter()
    with pytest.raises(Precondition):
        gf.poly_pow_mod(Polynomial.x(F), -1, F.poly((1, 0, 1)))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("p", [2, 3, 67, 65521])
def test_packed_kernel_matches_list_oracles(p):
    """The packed Euclid, the shared Barrett context and the int-list split
    agree with the one-pass list Euclid, the per-call Barrett power and the
    Polynomial split they replaced: moduli of degree 0, 1 and 2, zero
    operands, exponents 0, 1, p, p^2 and random, remainders that drop more
    than one degree inside a run, and at p = 65521 runs of two lazy steps."""
    rng = random.Random(11 * p)
    F = make_field(p)
    zero = F.poly(())
    for i in range(24):
        a = _random_poly(F, rng.randrange(-1, 90), rng)
        mod = _random_poly(F, i if i < 3 else rng.randrange(3, 70), rng)
        for e in (0, 1, p, p * p, rng.randrange(p ** 3)):
            assert gf.poly_pow_mod(a, e, mod) == oracles.barrett_pow_mod(a, e, mod)
        c = _random_poly(F, rng.randrange(3, 40), rng)
        # x c + r with deg r < deg c - 1: the run's second step drops two degrees
        drop = F.poly((0, 1)) * c + _random_poly(F, rng.randrange(-1, c.degree - 1), rng)
        for x, y in ((a, mod), (drop, c), (a, zero), (zero, a), (c * a, c)):
            assert poly_gcd(x, y) == oracles.list_euclid_gcd(x, y)
        f = _random_poly(F, rng.randrange(1, 40), rng).monic()
        f = f // poly_gcd(f, f.derivative()) if f.derivative().coeffs else f
        assert gf.distinct_degree(f) == oracles.polynomial_distinct_degree(f)


def test_one_barrett_context_per_side(monkeypatch):
    """A certificate builds exactly one Barrett context for each of its two
    sides: the split's powers share it, and nothing else builds one."""
    from surfcodes import fpx, towers
    gf.field_from_order(67)
    calls = []
    real = fpx.barrett
    monkeypatch.setattr(fpx, "barrett", lambda m, p: calls.append(len(m) - 1) or real(m, p))
    towers.hyperelliptic_product_certificate(67, 30, 30, 1, 5)
    assert calls == [62, 62]

"""Acceptance suite: one test per criterion, exact tolerances, with a
printed PASS/FAIL line each (visible under ``pytest -v -s``)."""

import random
import time
import oracles

from surfcodes import bounds as bd
from surfcodes import codes as cd
from surfcodes import gf
from surfcodes import surfaces as sf
from surfcodes import towers as tw
from surfcodes.asymptotic import (CodePoint, asym_point, phi_g, polygon_image)
from surfcodes.errors import Precondition
from fractions import Fraction


def report(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_quadric_exactness():
    t0 = time.time()
    s = sf.quadric_p1xp1()
    ok = True
    for q, a, b in ((2, 1, 1), (3, 1, 1), (3, 1, 2), (3, 2, 2), (4, 1, 1)):
        code = cd.build_code(s, s.divisor(a, b), q)
        n = (q + 1) ** 2
        d = cd.exact_min_distance(code)
        bound = bd.interpolating_bound(
            n, bd.universal_gamma(s, s.divisor(1, 1), q), s.divisor(a, b))
        ok &= code.n == n
        ok &= code.k == (a + 1) * (b + 1)
        ok &= d == n - (q + 1) * (a + b) + a * b
        ok &= bound == n - (q + 1) * (a + b)
        ok &= bound <= d
    elapsed = time.time() - t0
    report(f"1 quadric exact k and d over five (q,a,b) [{elapsed:.2f}s]",
           ok and elapsed < 10)


def test_criterion_2_hirzebruch_exactness():
    t0 = time.time()
    q, v = 3, 1
    ok = True
    for e in (1, 2):
        s = sf.hirzebruch(e)
        for u in (1, 2):
            code = cd.build_code(s, s.divisor(u, v), q)
            d = cd.exact_min_distance(code)
            gamma = bd.universal_gamma(s, s.divisor(e + 1, 1), q)
            bound = bd.interpolating_bound((q + 1) ** 2, gamma, s.divisor(u, v))
            ok &= d == q * (q - u + 1)
            ok &= bound == (q + 1) ** 2 - (q + 1) * (u + v)
            ok &= d - bound == u + v - 1 + q * (v - 1)
    elapsed = time.time() - t0
    report(f"2 Hirzebruch exact d = q(q-u+1), bound, defect [{elapsed:.2f}s]",
           ok and elapsed < 5)


def test_criterion_3_dominance_over_aubry():
    cases = [(sf.projective_plane(), sf.projective_plane().divisor(1)),
             (sf.quadric_p1xp1(), sf.quadric_p1xp1().divisor(1, 1))]
    cases += [(sf.hirzebruch(e), sf.hirzebruch(e).divisor(e + 1, 1))
              for e in range(4)]
    ok = True
    for s, ell in cases:
        lsq = sf.intersect(ell, ell)
        for q in (2, 3, 4, 5):
            n = sf.point_count(s, q)
            gamma = bd.universal_gamma(s, ell, q)
            for d in range(1, 5):
                g = d * ell
                gap = bd.interpolating_bound(n, gamma, g) - bd.aubry_bound(n, q, g)
                ok &= gap == (q + 1) * (d * d - d) * lsq
                ok &= gap >= 0 and ((gap == 0) == (d == 1))
    report("3 interpolating - Aubry = (q+1)(d^2-d)L^2, equality iff d = 1", ok)


def test_criterion_4_rational_locus():
    t0 = time.time()
    ok = all(cd.rational_locus_check(ell, q, m)
             for ell in (1, 2) for q in (2, 3) for m in (2, 3))
    elapsed = time.time() - t0
    report(f"4 rational-locus lemma over (l,q,m) grid [{elapsed:.2f}s]",
           ok and elapsed < 5)


def test_criterion_5_gamma_square_screen():
    ok = True
    surfs = [sf.projective_plane(), sf.quadric_p1xp1()] + \
        [sf.hirzebruch(e) for e in range(6)]
    for s in surfs:
        for q in (2, 3, 4, 5):
            n = sf.point_count(s, q)
            if s.ns_rank == 1:
                candidates = [s.divisor(a) for a in range(11)]
            else:
                candidates = [s.divisor(a, b) for a in range(11) for b in range(11)]
            for ell in candidates:
                if sf.ampleness_flags(s, ell).very_ample:
                    ok &= (q + 1) ** 2 * sf.intersect(ell, ell) >= n
                    ok &= bd.gamma_square_check((q + 1) * ell, n)
    report("5 (q+1)^2 L^2 >= #X(F_q) for every catalog very ample L", ok)


def test_criterion_6_noether_identity():
    ok = sf.noether_identity(sf.projective_plane())
    ok &= sf.noether_identity(sf.quadric_p1xp1())
    for e in range(11):
        ok &= sf.noether_identity(sf.hirzebruch(e))
    for gc in range(21):
        for gd in range(21):
            ok &= sf.noether_identity(sf.curve_product(gc, gd, 8, 8))
    report("6 Noether identity 12 chi(O) = K^2 + chi_et across the catalog", ok)


def test_criterion_7_tower_certificates():
    t0 = time.time()
    cert = tw.hyperelliptic_product_certificate(67, 30, 30, 1, seed=1)
    ok = cert.gs_pass and cert.gs_lhs_squared == 7225 and cert.gs_rhs == 7224
    ok &= cert.h1g == 2 * 30 + 30 and cert.h2g == 2 * 30 * 30 + 2
    cert2 = tw.hyperelliptic_product_certificate(67, 29, 30, 1, seed=1)
    ok &= (not cert2.conditions["gs"]) and cert2.gs_lhs_squared == 6889 \
        and cert2.gs_rhs == 6984
    # down-scaled instance: character sums against naive (t, y) enumeration
    f = tw.sample_branch_poly(11, 2 * 2 + 2, "linear", seed=1)
    g = tw.sample_branch_poly(11, 2 + 1, "quadratic", seed=1)
    field = gf.make_field(11, 1)
    for poly in (f, g):
        curve = tw.HyperellipticCurve(field, poly)
        ok &= tw.hyperelliptic_point_count(curve) == tw.naive_point_count(curve)
    elapsed = time.time() - t0
    report(f"7 tower certificates (67,30,30,1) / (67,29,30,1) + counts "
           f"[{elapsed:.2f}s]", ok and elapsed < 30)


def _random_cycle_type(rng):
    total = rng.choice((4, 6, 8, 10, 12))
    parts = []
    left = total
    while left:
        c = rng.randrange(1, left + 1)
        parts.append(c)
        left -= c
    return parts


def test_criterion_8_kunneth_oracle():
    # cycle types on the library formula and random invertible matrices on
    # the moved matrix path, both against the Kronecker oracle
    ok = True
    for g1 in (1, 2, 3, 5):
        for g2 in (2, 4):
            mc = tw.FrobeniusModule((1,) * (2 * g1 + 2))
            md = tw.FrobeniusModule((2,) * (g2 + 1))
            ok &= tw.tensor_invariant_dim(mc, md) == 2 * g1 * g2
    rng = random.Random(1234)
    semisimple = 0
    for _ in range(300):
        mc = tw.FrobeniusModule(tuple(_random_cycle_type(rng)))
        md = tw.FrobeniusModule(tuple(_random_cycle_type(rng)))
        xc, xd = oracles.cycle_type_matrix(mc.cycles), oracles.cycle_type_matrix(md.cycles)
        kron = oracles.kron_invariant_dim(xc, xd)
        ok &= tw.tensor_invariant_dim(mc, md) == kron
        if oracles.is_semisimple(xc) or oracles.is_semisimple(xd):
            ok &= oracles.eigen_pairing_dim(xc, xd) == kron
            semisimple += 1
    for _ in range(100):
        mc, md = oracles.random_invertible(rng), oracles.random_invertible(rng)
        ok &= oracles.matrix_invariant_dim(mc, md) == oracles.kron_invariant_dim(mc, md)
    report("8 Kunneth invariants = Kronecker oracle on 300 cycle-type and 100 "
           f"invertible pairs; eigen formula on the {semisimple} semisimple ones", ok)


def test_criterion_9_polygon_and_affinity():
    t0 = time.time()
    ok = True
    for q, g in ((2, 2), (3, 2), (3, 3)):
        poly = polygon_image(q, g)   # asserts the caption closed forms
        qq, gq = (q + 1) ** 2, g * (q + 1)
        ok &= poly["A2"] == CodePoint(1 - Fraction(g, q + 1),
                                      Fraction(g * g - g, 2 * qq))
        ok &= poly["C2"] == CodePoint(Fraction(0), Fraction(g * g - g + 1, 2 * gq))
    rng = random.Random(5150)
    for _ in range(100):
        q, g = rng.choice(((2, 2), (3, 2), (3, 3)))
        p1 = asym_point(Fraction(rng.randrange(0, 40), rng.randrange(1, 40)),
                        Fraction(rng.randrange(-40, 40), rng.randrange(1, 40)))
        p2 = asym_point(Fraction(rng.randrange(0, 40), rng.randrange(1, 40)),
                        Fraction(rng.randrange(-40, 40), rng.randrange(1, 40)))
        t = Fraction(rng.randrange(0, 16), 15)
        mix = asym_point(t * p1.kappa + (1 - t) * p2.kappa,
                         t * p1.chi + (1 - t) * p2.chi)
        i1, i2, im = phi_g(q, g, p1), phi_g(q, g, p2), phi_g(q, g, mix)
        ok &= im.delta == t * i1.delta + (1 - t) * i2.delta
        ok &= im.r == t * i1.r + (1 - t) * i2.r
    elapsed = time.time() - t0
    report(f"9 polygon corners exact + affinity on 100 pairs [{elapsed:.2f}s]",
           ok and elapsed < 1)


def _random_instances(rng, count):
    """Catalog code instances whose enumeration stays comfortably small."""
    out = []
    while len(out) < count:
        kind = rng.choice(("p2", "quadric", "hirz", "quadric_grid", "hirz_grid"))
        q = rng.choice((2, 3, 4))
        if kind == "p2":
            s = sf.projective_plane()
            g = s.divisor(rng.randrange(0, 4))
            tag, grid = "all", None
        elif kind in ("quadric", "quadric_grid"):
            s = sf.quadric_p1xp1()
            g = s.divisor(rng.randrange(0, 4), rng.randrange(0, 4))
            tag = "grid" if kind.endswith("grid") else "all"
            grid = None
        else:
            s = sf.hirzebruch(rng.randrange(0, 3))
            (e,) = s.params
            v = rng.randrange(0, 3)
            u = rng.randrange(0, 5)
            g = s.divisor(u, v)
            tag = "grid" if kind.endswith("grid") else "all"
            grid = None
        try:
            basis_len = len(cd.section_basis(s, g))
        except Precondition:         # no sections
            continue
        if cd.enumeration_size(q, basis_len) > 30_000:
            continue
        out.append((s, g, q, tag, grid))
    return out


def test_criterion_10_keystone_no_bound_exceeds_exact():
    t0 = time.time()
    rng = random.Random(31337)
    ok = True
    checked_entries = 0
    for s, g, q, tag, grid in _random_instances(rng, 200):
        rep = bd.parameter_report(s, g, q, tag=tag, grid=grid,
                                  exact_budget=40_000,
                                  xi=q + 1 if
                                  sf.ampleness_flags(s, g).very_ample else None)
        if rep.exact is None:
            continue
        d = rep.exact["d"]
        for entry in rep.entries:
            if entry.applicable:
                ok &= entry.value <= d
                ok &= entry.value <= rep.n
                checked_entries += 1
        if rep.k_lower is not None:
            ok &= rep.k_lower <= rep.exact["k"]
    elapsed = time.time() - t0
    report(f"10 keystone: {checked_entries} applicable bounds <= exact d over "
           f"200 instances [{elapsed:.1f}s]", ok and elapsed < 300)

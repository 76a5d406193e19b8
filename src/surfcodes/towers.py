"""Infinite totally-split 2-tower criterion on products of hyperelliptic
curves: point counts by character sums, Frobenius action on Jacobian
2-torsion, Kunneth invariant dimensions, and the exact-integer
Golod-Shafarevich check.

A hyperelliptic curve here is y^2 = f(t) over odd F_q, with f squarefree of
even degree 2g + 2 >= 6.  The certificates sample f as a product of distinct
linear or irreducible quadratic factors and count its curve's points from
those factors: each factor's quadratic character over all t is a shifted
byte mask, and the masks' XOR gives the character of f, so f is never
evaluated.  The Horner count hyperelliptic_point_count and the enumeration
naive_point_count stay as the independent counts.

The 2-torsion of the curve's Jacobian is modeled on the roots of f: take
the sum-zero subspace of F_2^{roots} modulo the all-ones vector (dimension
2g) with the Frobenius acting by its permutation of the roots.  That
permutation has the cycle type of the factor degrees of f, and the
invariant dimensions are read off the two cycle types in integer
arithmetic, through the elementary divisors of each module; no matrix is
formed.

The Golod-Shafarevich inequality is evaluated by squaring only, never with
floating-point square roots; the certified boundary instance
(q, g1, g2, rho) = (67, 30, 30, 1) passes by exactly one (7225 >= 7224).
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections import Counter
from functools import lru_cache
from typing import Sequence

from . import fpx, gf
from .errors import BudgetExceeded, InvariantError, Precondition, int_text
from .records import Record

SEARCH_CANDIDATE_BUDGET = 1_000_000
POINT_COUNT_BUDGET = 10 ** 7        # q * deg f: the Horner steps of one point count


# ---------------------------------------------------------------------------
# Hyperelliptic curves and point counts
# ---------------------------------------------------------------------------

class HyperellipticCurve(Record):
    """y^2 = f(t) over an odd-order field; f over it, squarefree, of even degree >= 6."""
    __slots__ = ("field", "f")

    def _check(self):
        if self.f.field != self.field:
            raise Precondition(f"f is a polynomial over F_{self.f.field.q}, "
                               f"not over F_{self.field.q}")
        if self.field.q % 2 == 0:
            raise Precondition("hyperelliptic model needs odd q")
        if self.f.is_zero or self.f.degree % 2 != 0:
            raise Precondition(f"f must have even degree, got {self.f.degree}")
        if self.f.degree < 6:
            raise Precondition(f"degree {self.f.degree} < 6 means genus < 2")
        d = gf.poly_gcd(self.f, self.f.derivative())
        if d.degree != 0:
            raise Precondition("f has a repeated root")

    @property
    def genus(self) -> int:
        return (self.f.degree - 2) // 2


def hyperelliptic_point_count(curve: HyperellipticCurve) -> int:
    """Number of rational points of the smooth model: the affine fiber over t
    has 1 + chi(f(t)) points, and the two points at infinity are rational
    exactly when the leading coefficient is a nonzero square.  Horner's rule
    at every t; the certificates count from the sampled factors instead
    (_factor_point_count), and this is their oracle."""
    field, f = curve.field, curve.f
    total = sum(1 + gf.quadratic_character(field, gf.poly_eval(f, t))
                for t in field.elements())
    if gf.quadratic_character(field, f.leading) == 1:
        total += 2
    return total


def naive_point_count(curve: HyperellipticCurve) -> int:
    """Independent oracle: enumerate all (t, y) with y^2 = f(t), f evaluated
    once per t, then add the points at infinity."""
    field, f = curve.field, curve.f
    values = [gf.poly_eval(f, t) for t in field.elements()]
    total = sum(1 for v in values for y in field.elements() if field.mul(y, y) == v)
    if gf.quadratic_character(field, f.leading) == 1:
        total += 2
    return total


def _shifted(flags: bytes, t: int, p: int) -> bytes:
    """The flags g with g[c] = flags[c - t], for c and t element indices of
    F_q (base-p digits, least significant first, subtracted digit by digit):
    a rotation of each digit, by slicing."""
    w = len(flags) // p                 # the weight of the top digit
    top, low = divmod(t, w)
    if w == 1:
        return flags[p - top:] + flags[:p - top]
    blocks = [_shifted(flags[k * w:(k + 1) * w], low, p) for k in range(p)]
    return b"".join(blocks[(k - top) % p] for k in range(p))


def _check_point_count_budget(q: int, degree: int) -> None:
    """Refuse a curve y^2 = f(t), deg f = degree, whose point count by
    Horner's rule would take more than POINT_COUNT_BUDGET steps (q
    evaluations of f).  The count from the factors costs about q per distinct
    factor character, so the same bound keeps it in check."""
    if q * degree > POINT_COUNT_BUDGET:
        raise BudgetExceeded(f"a point count at degree {int_text(degree)} over F_{q} takes "
                             f"{int_text(q * degree, 'Horner steps')}, budget is "
                             f"{POINT_COUNT_BUDGET}")


_FLIP = bytes([1, 0]) + bytes(254)          # bytes.translate table: 0 <-> 1


@lru_cache(maxsize=None)
def _characters(field: gf.FieldSpec) -> tuple[tuple[int, ...], bytes]:
    """The squares u^2 in element order, and the flags of the nonsquares
    (1 where the quadratic character is -1) over F_q."""
    if field.m == 1:
        squares = tuple(u * u % field.p for u in field.elements())
    else:
        squares = tuple(field.mul(u, u) for u in field.elements())
    nonsquare = bytearray([1]) * field.q
    for s in squares:
        nonsquare[s] = 0
    return squares, bytes(nonsquare)


def sample_branch_factors(q: int, count: int, kind: str, seed: int) -> list:
    """`count` distinct monic linear ("linear") or irreducible quadratic
    ("quadratic") factors over odd F_q, chosen by sampling from a Random
    seeded with `seed`, so equal arguments give equal factors: the roots r of
    the t - r in ascending order, or the pairs (b, c) of the t^2 + b t + c in
    the order they are indexed below.  A product whose curve's point count is
    over budget is refused before any sampling (_check_point_count_budget)."""
    field = gf.field_from_order(q)
    if field.q % 2 == 0:
        raise Precondition("branch polynomials need odd q")
    if count < 0:
        raise Precondition(f"{kind} factor count must be >= 0, got {int_text(count)}")
    rng = random.Random(seed)
    if kind == "linear":
        if count > q:
            raise Precondition(f"only {q} linear factors exist, need {int_text(count)}")
        _check_point_count_budget(q, count)
        return sorted(rng.sample(range(q), count))
    if kind != "quadratic":
        raise Precondition(f"unknown factor kind {kind!r}")
    half = (q - 1) // 2
    available = q * half
    if count > available:
        raise Precondition(
            f"only {available} monic irreducible quadratics exist, "
            f"need {int_text(count)}")
    _check_point_count_budget(q, 2 * count)
    # t^2 + b t + c = (t + b/2)^2 + c - b^2/4 is irreducible over odd F_q
    # iff -(c - b^2/4) is a nonsquare, so the c that suit b are those that
    # suit 0, shifted by b^2/4: each b has (q - 1)/2 of them.  Index i names
    # b = i // half and the (i mod half)-th such c in element order.  The c
    # that suit 0 are the nonsquares when -1 is a square (q = 1 mod 4), and
    # the nonzero squares otherwise.
    nonsquare = _characters(field)[1]
    suits_0 = nonsquare if q % 4 == 1 else b"\0" + nonsquare[1:].translate(_FLIP)
    quarter = field.inv(field.from_int(4))
    pairs = []
    picks = sorted(rng.sample(range(available), count))
    for b, group in itertools.groupby(picks, key=lambda i: i // half):
        suits_b = _shifted(suits_0, field.mul(quarter, field.mul(b, b)), field.p)
        cs = list(itertools.compress(field.elements(), suits_b))
        pairs += [(b, cs[i % half]) for i in group]
    return pairs


def _branch_poly(field: gf.FieldSpec, kind: str, factors: list) -> gf.Polynomial:
    """The monic product of sampled factors, multiplied in a balanced tree:
    neighbours pair up level by level, so the operands of each product have
    about equal degree.  The split side starts from the paired roots'
    quadratics (t - a)(t - b) = t^2 - (a + b) t + ab.  Over F_p the levels
    are Kronecker products of plain coefficient lists."""
    if kind == "linear":
        level = [(field.mul(a, b), field.neg(field.add(a, b)), 1)
                 for a, b in zip(factors[::2], factors[1::2])]
        level += [(field.neg(r), 1) for r in factors[len(factors) & ~1:]]
    else:
        level = [(c, b, 1) for b, c in factors]
    if field.m == 1:
        def mul(a, b):
            return fpx.kron(a, b, field.p)
    else:
        def mul(a, b):
            return (field.poly(a) * field.poly(b)).coeffs
    while len(level) > 1:
        level = [mul(a, b) for a, b in zip(level[::2], level[1::2])] + level[len(level) & ~1:]
    return field.poly(level[0] if level else (1,))


def sample_branch_poly(q: int, count: int, kind: str, seed: int) -> gf.Polynomial:
    """Monic product of the factors sample_branch_factors picks for these
    arguments, refused as it refuses them."""
    factors = sample_branch_factors(q, count, kind, seed)
    return _branch_poly(gf.field_from_order(q), kind, factors)


def _factor_point_count(field: gf.FieldSpec, kind: str, factors: list) -> int:
    """The point count of y^2 = f(t), f the monic product of the sampled
    factors, equal to hyperelliptic_point_count without evaluating f.

    chi is multiplicative, so chi(f(t)) = -1 exactly where an odd number of
    factors take a nonsquare value, and chi(f(t)) = 0 at the roots.  The
    flags of the t where one factor takes a nonsquare value are a shifted
    mask, one byte per t, and the XOR of all factors' masks, read as one
    int, has a 1 in each byte where that number is odd:
    - for t - r, the nonsquare flags shifted by r;
    - for t^2 + b t + c = (t + h)^2 + a, h = b/2 and a = c - h^2, the mask
      M_a(u) = [u^2 + a is a nonsquare] at u = t + h, that is M_a shifted
      by -h; M_a is gathered once per distinct a, from the nonsquare flags
      at the squares.
    Every t off the roots gives 1 + chi(f(t)) points, a root one, and a monic
    f has both points at infinity rational."""
    q, p = field.q, field.p
    squares, nonsquare = _characters(field)
    odd = 0
    roots = bytearray(q)
    if kind == "linear":
        for r in factors:
            roots[r] = 1
            odd ^= int.from_bytes(_shifted(nonsquare, r, p), "little")
    else:
        gather = operator.itemgetter(*squares)
        half = field.inv(field.from_int(2))
        masks = {}
        for b, c in factors:
            h = field.mul(half, b)
            a = field.sub(c, field.mul(h, h))
            if a not in masks:
                masks[a] = bytes(gather(_shifted(nonsquare, field.neg(a), p)))
            odd ^= int.from_bytes(_shifted(masks[a], field.neg(h), p), "little")
    zeros = int.from_bytes(roots, "little")
    odd &= ~zeros
    return zeros.bit_count() + 2 * (q - zeros.bit_count() - odd.bit_count()) + 2


# ---------------------------------------------------------------------------
# Frobenius on Jacobian 2-torsion
# ---------------------------------------------------------------------------

class FrobeniusModule(Record):
    """Frobenius on Jac[2], given by its cycle type on the 2g + 2 roots of
    the branch polynomial; the invariant dimensions below read nothing else."""
    __slots__ = ("cycles",)

    def _check(self):
        n = sum(self.cycles)
        if n % 2 or n < 4 or min(self.cycles) < 1:
            raise Precondition("cycle lengths must be positive and sum to an "
                               f"even number >= 4, got {list(self.cycles)}")

    @property
    def g(self) -> int:
        return (sum(self.cycles) - 2) // 2

    @property
    def dim(self) -> int:
        return 2 * self.g


def two_torsion_frobenius(curve: HyperellipticCurve) -> FrobeniusModule:
    """The Frobenius permutes the 2g + 2 roots of f with cycle type equal to
    the factor-degree multiset, read off the distinct-degree split of f (f is
    squarefree by construction of the curve), in ascending order."""
    return FrobeniusModule(tuple(d for d, h in gf.distinct_degree(curve.f.monic())
                                 for _ in range(h.degree // d)))


def _elementary_divisors(module: FrobeniusModule) -> dict[int, list[int]]:
    """The exponents of the elementary divisors of Frobenius on the module,
    keyed by d: d = 1 stands for x + 1, and d > 1 for each irreducible factor
    of the d-th cyclotomic polynomial over F_2, which all get the same
    exponents.

    A cycle of length c = 2^v m, m odd, spans F_2[x]/(x^c - 1), and
    x^c - 1 = (x^m - 1)^(2^v) with x^m - 1 the squarefree product of the
    cyclotomic polynomials of the d | m: every factor p of each of them gets
    one divisor p^(2^v) (Lidl-Niederreiter, Finite Fields, Thm 2.47).
    Passing to the sum-zero vectors modulo all-ones changes only the smallest
    (x + 1)-blocks: with s the smallest exponent and k its multiplicity, two
    blocks s become s - 1 for k even, and one block s becomes s - 2 for k
    odd (an even root count rules out s = 1 with k odd).  Exponent 0 vanishes.
    """
    out: dict[int, list[int]] = {}
    for c, count in Counter(module.cycles).items():
        v = (c & -c).bit_length() - 1
        m = c >> v
        for d in range(1, m + 1):
            if m % d == 0:
                out.setdefault(d, []).extend([1 << v] * count)
    ones = sorted(out[1])
    if ones.count(ones[0]) % 2:
        ones[0] -= 2
    else:
        ones[0], ones[1] = ones[0] - 1, ones[1] - 1
    out[1] = [e for e in ones if e]
    return out


def fixed_space_dim(module: FrobeniusModule) -> int:
    """dim ker(M - I) over F_2: the number of (x + 1)-blocks."""
    return len(_elementary_divisors(module)[1])


def tensor_invariant_dim(mc: FrobeniusModule, md: FrobeniusModule) -> int:
    """dim ker(MC (x) MD - I) over F_2, the invariants of Frobenius on the
    tensor product, from the elementary divisors of the two factors.

    The kernel is the solution space of MC X = X C with C = MD^-T, and by
    Frobenius' theorem (Gantmacher, Theory of Matrices I, ch. VIII) its
    dimension is sum_p deg p * sum_{i,j} min(e_i, f_j) over the elementary
    divisors p^e_i of MC and p^f_j of C.  Those of C at p are those of MD at
    the reciprocal p*, and with r_t the number of exponents >= t the inner
    sum is sum_t r_t(MC, p) * r_t(MD, p*).  The reciprocal of a factor of
    the d-th cyclotomic polynomial is another one, all its factors carry the
    same exponents, and their degrees add up to phi(d): the sum runs over d
    with weight phi(d).
    """
    dc, dd = _elementary_divisors(mc), _elementary_divisors(md)
    return sum(sum(1 for a in range(d) if math.gcd(a, d) == 1)
               * sum(sum(e >= t for e in es) * sum(f >= t for f in dd[d])
                     for t in range(1, max(es, default=0) + 1))
               for d, es in dc.items() if d in dd)


def kunneth_invariants(mc: FrobeniusModule, md: FrobeniusModule) -> dict:
    """Invariant dimensions of H^1 and H^2 of the product surface:
    h1G = fixed(MC) + fixed(MD); h2G = tensor invariants + 2 (the two extra
    Kunneth summands carry the trivial action)."""
    return {
        "h1G": fixed_space_dim(mc) + fixed_space_dim(md),
        "h2G": tensor_invariant_dim(mc, md) + 2,
    }


# ---------------------------------------------------------------------------
# Golod-Shafarevich criterion and marked invariants
# ---------------------------------------------------------------------------

def golod_shafarevich_check(h1g: int, h2g: int, r_t: int, t: int) -> bool:
    """True iff h1G - r_T - 1 >= 0 and (h1G - r_T - 1)^2 >= 4 (h2G + t);
    pure integer arithmetic."""
    s = h1g - r_t - 1
    return s >= 0 and s * s >= 4 * (h2g + t)


def gs_check_chi_form(h1bar: int, alpha: int, r_t: int, chibar: int,
                      t: int) -> bool:
    """Euler-characteristic form of the criterion, implemented verbatim:
    (h1bar - alpha + r_T - 5)^2 >= 4 (chibar + 2 alpha + 2 r_T + 4 + t) with
    the same sign guard as the main check.

    Caution: the sign on r_T here does not match substituting
    h1G = h1bar - alpha into the main criterion; cross-evaluations may
    disagree and should be logged by callers rather than asserted.
    """
    s = h1bar - alpha + r_t - 5
    return s >= 0 and s * s >= 4 * (chibar + 2 * alpha + 2 * r_t + 4 + t)


def r_t_upper(rho: int) -> int:
    """Upper bound 3 rho + 1 for the rank r_T of the 4 rho marked points in
    the degree-zero-cycle group mod 2."""
    if rho < 1:
        raise Precondition(f"rho must be >= 1, got {int_text(rho)}")
    return 3 * rho + 1


def r_t_bracket(t_size: int) -> tuple[int, int]:
    """General bracket 1 <= r_T <= #T for a nonempty marked set."""
    if t_size < 1:
        raise Precondition("marked set must be nonempty")
    return 1, t_size


def marked_invariants(h2g_bar: int, t: int) -> dict:
    """Marked-cohomology dimension relations: h^2 - h^1 of the marked surface
    equals h2G + t - 1, and the marked Euler characteristic equals t."""
    if t < 0:
        raise Precondition("t must be >= 0")
    return {"h2_minus_h1_marked": h2g_bar + t - 1, "chi_marked": t}


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

class TowerCertificate(Record):
    __slots__ = ("q", "g1", "g2", "rho", "f", "g", "count_c", "count_d", "h1g", "h2g",
                 "rt_upper", "t_size", "gs_lhs_squared", "gs_rhs", "conditions", "gs_pass")

    def to_json_dict(self) -> dict:
        return {
            "q": self.q, "g1": self.g1, "g2": self.g2, "rho": self.rho,
            "f": list(self.f.coeffs), "g": list(self.g.coeffs),
            "count_C": self.count_c, "count_D": self.count_d,
            "h1G": self.h1g, "h2G": self.h2g,
            "rT_upper": self.rt_upper, "T_size": self.t_size,
            "gs_lhs_squared": self.gs_lhs_squared, "gs_rhs": self.gs_rhs,
            "gs_pass": self.gs_pass,
            "conditions": dict(self.conditions),
        }


def _side(q: int, kind: str, factors: list) -> tuple:
    """One side of the product from its sampled factors: the branch
    polynomial, the point count of its curve and the Frobenius module on the
    curve's 2-torsion.  The curve's squarefree check and the distinct-degree
    cycle types read f itself, so they check the sampler independently."""
    field = gf.field_from_order(q)
    f = _branch_poly(field, kind, factors)
    curve = HyperellipticCurve(field, f)
    return f, _factor_point_count(field, kind, factors), two_torsion_frobenius(curve)


def _checked_invariants(mc: FrobeniusModule, md: FrobeniusModule) -> dict:
    """kunneth_invariants of a split module MC (genus g1) and a quadratic
    module MD (genus g2), computed from their general cycle-type formula and
    cross-checked against the closed forms of this pair; a mismatch raises
    InvariantError.  For even g2 the closed forms are
    h1G = 2 g1 + g2 and h2G = 2 g1 g2 + 2.  For odd g2 those are off by one
    invariant: the subsets picking one root from each quadratic pair have
    even size exactly when g2 is odd, and such a subset maps to its
    complement, hence is Frobenius-fixed in the quotient module.  The
    parity-corrected values (h1G = 2 g1 + g2 + 1, h2G = 2 g1 (g2 + 1) + 2)
    are the ones checked then."""
    kd = kunneth_invariants(mc, md)
    h1g, h2g, g1, g2 = kd["h1G"], kd["h2G"], mc.g, md.g
    odd = g2 % 2
    if h1g != 2 * g1 + g2 + odd:
        raise InvariantError(f"h1G = {h1g} fails its closed-form cross-check")
    if h2g != 2 * g1 * (g2 + odd) + 2:
        raise InvariantError(f"h2G = {h2g} fails its closed-form cross-check")
    return kd


def _certify(q: int, rho: int, side_c: tuple, side_d: tuple,
             kd: dict) -> TowerCertificate:
    """The GS arithmetic at the worst case r_T = 3 rho + 1 on built sides."""
    f, count_c, mc = side_c
    g, count_d, md = side_d
    h1g, h2g = kd["h1G"], kd["h2G"]
    rt = r_t_upper(rho)
    t_size = 4 * rho
    s = h1g - rt - 1
    conditions = {
        "points_C": 2 * mc.g + 2 + 2 * rho <= count_c,
        "points_D": 2 * rho <= count_d,
        "gs": golod_shafarevich_check(h1g, h2g, rt, t_size),
    }
    return TowerCertificate(
        q=q, g1=mc.g, g2=md.g, rho=rho, f=f, g=g,
        count_c=count_c, count_d=count_d, h1g=h1g, h2g=h2g,
        rt_upper=rt, t_size=t_size,
        gs_lhs_squared=s * s if s >= 0 else -(s * s),
        gs_rhs=4 * (h2g + t_size),
        conditions=conditions,
        gs_pass=all(conditions.values()),
    )


def hyperelliptic_product_certificate(q: int, g1: int, g2: int, rho: int,
                                      seed: int = 1) -> TowerCertificate:
    """Certify the tower criterion on C x D with C split (f a product of
    2 g1 + 2 distinct linear factors) and D quadratic (g a product of g2 + 1
    distinct irreducible quadratics), both monic.

    The factors of both sides are sampled, the linear ones first, before
    either branch polynomial is multiplied out or either curve is built, so
    every sampling refusal comes first.  Each side's point count comes from
    its factors.  The invariant dimensions are computed from the Frobenius
    cycle types of the two curves, read off f by distinct-degree splitting,
    and cross-checked against closed forms (_checked_invariants), raising
    InvariantError on a mismatch; the certificate always uses the computed
    values.  The GS inequality is evaluated at the worst case
    r_T = 3 rho + 1.  Hypothesis failures set condition flags rather than
    raising.
    """
    if rho < 1:
        raise Precondition(f"rho must be >= 1, got {int_text(rho)}")
    roots = sample_branch_factors(q, 2 * g1 + 2, "linear", seed)
    pairs = sample_branch_factors(q, g2 + 1, "quadratic", seed)
    side_c, side_d = _side(q, "linear", roots), _side(q, "quadratic", pairs)
    kd = _checked_invariants(side_c[2], side_d[2])
    return _certify(q, rho, side_c, side_d, kd)


def search_parameters(q: int, g1_range: Sequence[int], g2_range: Sequence[int],
                      rho_range: Sequence[int], seed: int = 1) -> list[TowerCertificate]:
    """All passing certificates over the given ranges, in (g1, g2, rho)
    order, equal to the passing hyperelliptic_product_certificate results.
    Candidates the branch sampling cannot realize (too few linear or
    irreducible quadratic factors, genus < 2, rho < 1) are skipped; the total
    candidate count is budget-guarded, and an empty range gives [] at once.
    Within one call each side is built once per genus and the invariants
    once per (g1, g2); rho enters only the GS arithmetic."""
    if gf.field_from_order(q).q % 2 == 0:
        raise Precondition("tower search needs odd q")
    # count a range unlisted, as codes.grid_sides does; len() overflows at 2^63
    total = math.prod(max(0, -((r.start - r.stop) // r.step)) if isinstance(r, range)
                      else len(r) for r in (g1_range, g2_range, rho_range))
    if total > SEARCH_CANDIDATE_BUDGET:
        raise BudgetExceeded(f"{int_text(total, 'candidates')} exceed "
                             f"{SEARCH_CANDIDATE_BUDGET}")
    if total == 0:
        return []                   # the other ranges may be too long to walk

    def counted(values, ok):
        # the feasible values in order, each with its multiplicity
        return sorted(Counter(v for v in values if ok(v)).items())

    # feasibility is a condition on each coordinate alone, so the feasible
    # candidates are the product of the feasible values of each coordinate
    candidates = itertools.product(
        counted(g1_range, lambda a: a >= 2 and 2 * a + 2 <= q),
        counted(g2_range, lambda b: b >= 2 and b + 1 <= (q * q - q) // 2),
        counted(rho_range, lambda r: r >= 1))
    sides_c, sides_d, invariants, certs = {}, {}, {}, []
    for (a, ma), (b, mb), (r, mr) in candidates:
        if a not in sides_c:
            sides_c[a] = _side(q, "linear",
                               sample_branch_factors(q, 2 * a + 2, "linear", seed))
        if b not in sides_d:
            sides_d[b] = _side(q, "quadratic",
                               sample_branch_factors(q, b + 1, "quadratic", seed))
        if (a, b) not in invariants:
            invariants[a, b] = _checked_invariants(sides_c[a][2], sides_d[b][2])
        cert = _certify(q, r, sides_c[a], sides_d[b], invariants[a, b])
        if cert.gs_pass:
            certs += [cert] * (ma * mb * mr)
    return certs

"""Exact arithmetic in small finite fields F_q with q = p^m <= 2^16.

Elements are index-coded: the integer sum(a_i * p^i) in [0, q) stands for the
polynomial residue a_0 + a_1*x + ... + a_{m-1}*x^{m-1} modulo the field's
defining polynomial.  Index 0 is the additive identity and index 1 the
multiplicative identity.

The defining modulus is canonical: among all monic irreducible degree-m
polynomials over F_p, we take the one whose coefficient tuple
(c_0, ..., c_{m-1}), read as the base-p integer sum(c_i * p^i), is smallest.
This makes every field, and hence every downstream computation, reproducible
bit-for-bit without an external polynomial table.  For prime fields the rule
yields the modulus x.  The modulus search, the table bootstrap and the subfield
embeddings all use the one polynomial arithmetic over F_p: candidates are
tested for irreducibility by distinct-degree splitting.

Element multiplication and division go through exponential/logarithm tables
built once per field from a fixed multiplicative generator (the smallest index
of maximal order); addition is digit-wise base-p (a plain XOR in characteristic
two).  Polynomials over a prime field (m = 1, where an element's index is its
value) are int lists on the packed-integer kernel of fpx, imported on first
use: products by Kronecker substitution, quotients by schoolbook division,
gcds by a Euclid whose one-degree steps run packed and are reduced mod p
lazily, and powers modulo a fixed modulus by one Barrett context per modulus.
Over F_{p^m}, m > 1, polynomial arithmetic loops over the element operations.
"""

from __future__ import annotations

import operator
from functools import lru_cache, reduce
from itertools import zip_longest
from typing import Iterable, Sequence

from .errors import InvariantError, Precondition, int_text

MAX_FIELD_SIZE = 65536
MAX_TABLE_ORDER = 4096


def _digits(a: int, p: int, m: int) -> list[int]:
    """The m base-p digits of a, least significant first."""
    out = []
    for _ in range(m):
        out.append(a % p)
        a //= p
    return out


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# FieldSpec
# ---------------------------------------------------------------------------

class FieldSpec:
    """A finite field F_q, q = p^m <= 2^16, with canonical modulus and
    index-coded elements.

    All state is immutable after construction; instances are safe to share
    across threads and processes.  Use :func:`make_field`, which caches one
    instance per (p, m).
    """

    __slots__ = ("p", "m", "q", "modulus", "_exp", "_log", "_pows",
                 "_np_add", "_np_mul")

    def __init__(self, p: int, m: int):
        if m < 1:
            raise Precondition(f"exponent m must be >= 1, got {int_text(m)}")
        # reject oversized input before the trial-division primality test
        # (and before computing p ** m for a huge m); p >= 2, m > 16 gives q > 2^16
        if p > MAX_FIELD_SIZE or (p >= 2 and m > 16):
            raise Precondition(f"q = {int_text(p)}^{int_text(m)} exceeds {MAX_FIELD_SIZE}")
        if prime_factors(p) != [p]:
            raise Precondition(f"{p} is not prime")
        q = p ** m
        if q > MAX_FIELD_SIZE:
            raise Precondition(f"q = {p}^{m} = {q} exceeds {MAX_FIELD_SIZE}")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = _canonical_modulus(p, m)
        self._pows = tuple(p ** i for i in range(m))
        self._np_add = None
        self._np_mul = None
        self._build_tables()

    # -- raw digit arithmetic (table bootstrap) -----------------------------

    def _from_digits(self, digits: Sequence[int]) -> int:
        return sum(d * w for d, w in zip(digits, self._pows))

    def _build_tables(self) -> None:
        q, p, m = self.q, self.p, self.m
        if m == 1:
            def mul(a: int, b: int) -> int:
                return a * b % p
        else:
            from . import fpx
            mulmod = fpx.barrett(self.modulus + (1,), p)    # one context for the bootstrap

            def mul(a: int, b: int) -> int:
                return self._from_digits(mulmod(_digits(a, p, m), _digits(b, p, m)))

        if q == 2:
            gen = 1
        else:
            rs = prime_factors(q - 1)
            gen = 0
            for g in range(2, q):
                if all(_power(mul, g, (q - 1) // r) != 1 for r in rs):
                    gen = g
                    break
            if not gen:
                raise InvariantError("no multiplicative generator found")
        exp = [0] * (q - 1)
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = mul(x, gen)
        if x != 1:
            raise InvariantError("generator order mismatch")
        self._exp = tuple(exp)
        self._log = tuple(log)

    # -- public element operations ------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        p, m = self.p, self.m
        return self._from_digits([(x + y) % p for x, y in zip(_digits(a, p, m),
                                                              _digits(b, p, m))])

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        return self._from_digits([(-x) % self.p for x in _digits(a, self.p, self.m)])

    def sub(self, a: int, b: int) -> int:
        return a ^ b if self.p == 2 else self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise Precondition("inverse of 0")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise Precondition("division by 0")
        if a == 0:
            return 0
        return self._exp[(self._log[a] - self._log[b]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        """Square-and-multiply via the log table; integer exponent of any sign."""
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise Precondition("0 raised to a negative power")
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def elements(self) -> range:
        return range(self.q)

    def from_int(self, c: int) -> int:
        """The prime-subfield element c*1 (index equals c mod p)."""
        return c % self.p

    # -- cached numpy operation tables (used by the distance kernels) -------

    def numpy_tables(self):
        """(add, mul) tables as q-by-q arrays of dtype min_scalar_type(q - 1),
        uint8 for q <= 256; built once, for q <= MAX_TABLE_ORDER."""
        if self._np_add is None:
            import numpy as np
            if self.q > MAX_TABLE_ORDER:
                raise Precondition(f"operation tables not built for q = {self.q} "
                                   f"> {MAX_TABLE_ORDER}")
            q, p = self.q, self.p
            # log a + log b < 2 (q - 1) <= 8190 indexes a doubled exp table
            dtype = np.min_scalar_type(q - 1)
            exp2 = np.array(self._exp * 2, dtype=dtype)
            log = np.array(self._log, dtype=np.uint16)
            mul = exp2[log[:, None] + log[None, :]]
            mul[0, :] = 0
            mul[:, 0] = 0
            idx = np.arange(q, dtype=np.uint16)
            add = np.zeros((q, q), dtype=np.uint16)
            for w in self._pows:
                digit = (idx // w) % p
                add += (digit[:, None] + digit[None, :]) % p * w
            self._np_add, self._np_mul = add.astype(dtype, copy=False), mul
        return self._np_add, self._np_mul

    # -- misc ----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldSpec)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, m={self.m})"

    def poly(self, coeffs: Iterable[int]) -> "Polynomial":
        return Polynomial(self, coeffs)


_cached_field = lru_cache(maxsize=None)(FieldSpec)


def make_field(p: int, m: int = 1) -> FieldSpec:
    """The canonical F_{p^m}; deterministic across runs and platforms.  The
    cache is keyed on (p, m) however m is passed, so F_p is built once."""
    return _cached_field(p, m)


def field_from_order(q: int) -> FieldSpec:
    """F_q from its order; q must be a prime power <= 2^16."""
    if q < 2:
        raise Precondition(f"{int_text(q)} is not a prime power")
    if q > MAX_FIELD_SIZE:
        raise Precondition(f"q = {int_text(q)} exceeds {MAX_FIELD_SIZE}")
    factors = prime_factors(q)
    if len(factors) != 1:
        raise Precondition(f"{q} is not a prime power")
    p, m = factors[0], 1
    while p ** m < q:
        m += 1
    return make_field(p, m)


def field_from_json(d: dict) -> FieldSpec:
    spec = make_field(int(d["p"]), int(d["m"]))
    if list(spec.modulus) != list(d["modulus"]):
        raise Precondition(f"non-canonical modulus {d['modulus']} for F_{spec.q}; "
                           f"expected {list(spec.modulus)}")
    return spec


def quadratic_character(spec: FieldSpec, a: int) -> int:
    """0 if a = 0, +1 if a is a nonzero square, -1 otherwise.  Odd q only."""
    if spec.q % 2 == 0:
        raise Precondition("quadratic character needs odd q")
    if a == 0:
        return 0
    return 1 if spec.pow(a, (spec.q - 1) // 2) == 1 else -1


def extension_field(base: FieldSpec, k: int) -> tuple[FieldSpec, list[int]]:
    """F_{q^k} together with the ring embedding F_q -> F_{q^k}.

    The embedding is returned as a list `emb` of length q with emb[a] the
    image index; it fixes 0 and 1 and commutes with add and mul.  The image
    of the base generator x is the smallest-index root of the base modulus
    in the extension, so the embedding is itself canonical.
    """
    if k > 16 or base.q ** k > MAX_FIELD_SIZE:    # q >= 2: k > 16 gives q^k > 2^16
        raise Precondition(f"{base.q}^{int_text(k)} exceeds {MAX_FIELD_SIZE}")
    ext = make_field(base.p, base.m * k)
    if base.m == 1:
        return ext, [a % base.p for a in range(base.q)]
    # smallest root of the base modulus (coeffs are prime-subfield indices)
    mod = ext.poly(base.modulus + (1,))
    beta = next((c for c in ext.elements() if poly_eval(mod, c) == 0), None)
    if beta is None:
        raise InvariantError("base modulus has no root in the extension")
    emb = [poly_eval(ext.poly(_digits(a, base.p, base.m)), beta) for a in base.elements()]
    return ext, emb


# ---------------------------------------------------------------------------
# Univariate polynomials over a FieldSpec
# ---------------------------------------------------------------------------

class Polynomial:
    """Dense univariate polynomial; coeffs ascending, trailing coeff nonzero.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: Iterable[int]):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def one(cls, field: FieldSpec) -> "Polynomial":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: FieldSpec) -> "Polynomial":
        return cls(field, (0, 1))

    @classmethod
    def from_roots(cls, field: FieldSpec, roots: Iterable[int]) -> "Polynomial":
        return reduce(operator.mul, (cls(field, (field.neg(r), 1)) for r in roots),
                      cls.one(field))

    # -- basic queries --------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise Precondition("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.field is not other.field and self.field != other.field:
            raise Precondition("polynomials over different fields")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        F = self.field
        return Polynomial(F, (F.add(a, b) for a, b in
                              zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, map(self.field.neg, self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        F = self.field
        if F.m == 1:
            from . import fpx
            return Polynomial(F, fpx.kron(self.coeffs, other.coeffs, F.p))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Polynomial(F, out)

    def scale(self, c: int) -> "Polynomial":
        F = self.field
        return Polynomial(F, (F.mul(c, a) for a in self.coeffs))

    def __divmod__(self, other: "Polynomial"):
        self._check(other)
        F = self.field
        if other.is_zero:
            raise Precondition("polynomial division by zero")
        if F.m == 1:
            from . import fpx
            quot, rem = fpx.divmod_ints(self.coeffs, other.coeffs, F.p)
            return Polynomial(F, quot), Polynomial(F, rem)
        r = list(self.coeffs)
        d = other.degree
        inv_lead = F.inv(other.leading)
        quot = [0] * max(0, len(r) - d)
        while len(r) - 1 >= d and r:
            c = F.mul(r[-1], inv_lead)
            shift = len(r) - 1 - d
            quot[shift] = c
            for i, oc in enumerate(other.coeffs):
                r[shift + i] = F.sub(r[shift + i], F.mul(c, oc))
            while r and r[-1] == 0:
                r.pop()
        return Polynomial(F, quot), Polynomial(F, r)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def monic(self) -> "Polynomial":
        if self.is_zero or self.leading == 1:
            return self
        return self.scale(self.field.inv(self.leading))

    def derivative(self) -> "Polynomial":
        F, p = self.field, self.field.p
        if F.m == 1:
            return Polynomial(F, [i * c % p for i, c in enumerate(self.coeffs[1:], 1)])
        return Polynomial(F, (F.mul(F.from_int(i), c)
                              for i, c in enumerate(self.coeffs[1:], 1)))

    def __repr__(self) -> str:
        terms = [(f"{c}*" if c != 1 else "") + (f"x^{i}" if i > 1 else "x") if i else f"{c}"
                 for i, c in reversed(list(enumerate(self.coeffs))) if c]
        return "Poly(" + (" + ".join(terms) or "0") + ")"


def poly_eval(f: Polynomial, a: int) -> int:
    """Horner evaluation of f at the element with index a."""
    F = f.field
    acc = 0
    if F.m == 1:
        for c in reversed(f.coeffs):
            acc = (acc * a + c) % F.p
        return acc
    for c in reversed(f.coeffs):
        acc = F.add(F.mul(acc, a), c)
    return acc


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by Euclid; over F_p on int lists (fpx.gcd_ints), where a run
    of steps one degree down is packed and reduced mod p lazily."""
    F = a.field
    if F.m > 1 or b.field is not F:
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()
    from . import fpx
    return Polynomial(F, fpx.gcd_ints(list(a.coeffs), list(b.coeffs), F.p)).monic()


def poly_pow_mod(base: Polynomial, e: int, mod: Polynomial) -> Polynomial:
    """base^e modulo mod by square-and-multiply, 1 at e = 0; e < 0 is
    refused.  Over F_p every product is reduced by one Barrett context of mod
    (fpx.barrett), over F_{p^m}, m > 1, by division."""
    if e < 0:
        raise Precondition(f"negative exponent {int_text(e)}")
    F, b = base.field, (base % mod).coeffs
    return F.poly(_power(_mulmod(F, mod.coeffs), b, e) if e else (1,))


def _mulmod(F: FieldSpec, m: Sequence[int]):
    """The product over F of residues modulo m, as coefficient sequences."""
    if F.m == 1:
        from . import fpx
        return fpx.barrett(m, F.p)
    mod = F.poly(m)
    return lambda a, b: (F.poly(a) * F.poly(b) % mod).coeffs


def _power(mul, b, e: int):
    """b^e, e >= 1, under the product mul, by square-and-multiply."""
    result = None
    while e:
        if e & 1:
            result = b if result is None else mul(result, b)
        e >>= 1
        if e:
            b = mul(b, b)
    return result


def distinct_degree(f: Polynomial) -> list[tuple[int, Polynomial]]:
    """f monic squarefree -> [(d, product of irreducible factors of degree d)].

    h = x^(q^d) mod f is the q-th power of its predecessor, and gcd(h - x, f)
    the product of the factors of degree d.  h is a coefficient list, and its
    powers share one product modulo f (over F_p a Barrett context,
    fpx.barrett), built for the first one and again only after f shrinks."""
    return list(_split(f))


def _split(f: Polynomial):
    """The entries of distinct_degree(f), one at a time.  The first also
    decides irreducibility of any monic f of degree m >= 2, squarefree or
    not: f is irreducible iff it has d = m (see _canonical_modulus)."""
    F, d, h, mulmod = f.field, 0, (0, 1), None
    while f.degree > 0:
        d += 1
        if 2 * d > f.degree:
            yield f.degree, f
            return
        mulmod = mulmod or _mulmod(F, f.coeffs)
        h = _power(mulmod, h, F.q)
        g = list(h) + [0] * (2 - len(h))
        g[1] = F.sub(g[1], 1)
        g = poly_gcd(F.poly(g), f)
        if g.degree > 0:
            yield d, g
            f, mulmod = f // g, None
            h = (F.poly(h) % f).coeffs


def _canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree m in base-p coefficient encoding.

    A monic f of degree m is irreducible iff the first distinct-degree entry
    of f has degree m.  This holds for non-squarefree f too: a reducible f of
    degree m has an irreducible factor of degree <= m/2, so its first entry
    has d <= m/2."""
    if m == 1:
        return (0,)
    fp = make_field(p)
    for enc in range(p ** m):
        coeffs = _digits(enc, p, m)
        if next(_split(fp.poly(coeffs + [1])))[0] == m:
            return tuple(coeffs)
    raise InvariantError("no irreducible polynomial found; unreachable")

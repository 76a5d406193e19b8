"""Polynomials over a prime field F_p as int coefficient lists, packed in ints.

A polynomial is the list of its coefficients in [0, p), constant term first.
gf hands every prime-field Polynomial product, division, gcd and modular
power to this module and imports it on first use, so a process that builds
prime fields without multiplying their polynomials never compiles it.  An
operand travels packed in one int, coefficient i in the w-bit slot i
(w = 8, 16, 32, 64 or 128): a product of two lists is one big-int product
(Kronecker substitution; von zur Gathen & Gerhard, Modern Computer Algebra,
8.4) whose slots stay exact while their sums fit in w bits.

* ``kron``        products, in slots wide enough never to carry
* ``divmod_ints`` schoolbook quotient and remainder, reduced mod p once per
                  quotient term
* ``gcd_ints``    a Euclid whose one-degree steps run on both remainders
                  packed, reduced mod p only when a tracked bound would
                  overflow
* ``barrett``     one Barrett context per modulus (mu by Newton iteration),
                  so a product mod m is three big-int products
"""

from __future__ import annotations

from array import array
from typing import Sequence

_CODES = {8: "B", 16: "H", 32: "I", 64: "Q", 128: "Q"}


def _width(bits: int) -> int:
    """The narrowest slot of at least this many bits, up to 128: 8, 16, 32, 64 or 128."""
    return 8 << max(0, (bits - 1).bit_length() - 3)


def _pack(a: Sequence[int], w: int) -> int:
    """The entries of a, each below 2^64, as one int: entry i in the w-bit slot i."""
    if w > 64:
        a, z = [0] * (2 * len(a)), a
        a[::2] = z
    return int.from_bytes(array(_CODES[w], a), "little")


def _unpack(x: int, n: int, w: int, p: int) -> list[int]:
    """The first n slots of the packed x, each below 2^64, reduced mod p."""
    x &= (1 << w * n) - 1
    a = array(_CODES[w], x.to_bytes(w * n >> 3, "little"))
    return [c % p for c in (a[::2] if w > 64 else a)]


def kron(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Product of coefficient lists over F_p by Kronecker substitution.

    Each operand is packed into one int, coefficient i in slot i; a slot
    of the product sums at most min(len) terms below p^2, so slots of the
    smallest machine width that holds that bound never carry.  Since
    (p-1)^2 < 2^32, 64-bit slots hold any list that fits in memory."""
    if not a or not b:
        return []
    w = _width((min(len(a), len(b)) * (p - 1) ** 2).bit_length())
    x = _pack(a, w)
    return _unpack(x * (x if a is b else _pack(b, w)), len(a) + len(b) - 1, w, p)


def divmod_ints(a: Sequence[int], b: Sequence[int], p: int
                ) -> tuple[list[int], list[int]]:
    """Schoolbook quotient and remainder of coefficient lists over F_p;
    b has a nonzero leading coefficient.  The remainder accumulates
    unreduced and is reduced once per leading coefficient and at the end."""
    d = len(b) - 1
    r = list(a)
    if len(r) <= d:
        return [], r
    inv = pow(b[-1], -1, p)
    low = b[:d]
    quot = [0] * (len(r) - d)
    for shift in range(len(r) - 1 - d, -1, -1):
        c = r[shift + d] % p * inv % p
        if c:
            quot[shift] = c
            r[shift:shift + d] = [x - c * y for x, y in zip(r[shift:shift + d], low)]
    return quot, [x % p for x in r[:d]]


def _reducer(p: int, w: int, n: int):
    """v -> v mod p slot by slot, for n slots of w bits that hold values below
    2^a, a = w/2 - 1, in five big-int operations: floor(v M / 2^s) is the
    quotient by p for M = floor(2^s / p) + 1, s = a + bits(p), since
    v (M p - 2^s) < 2^s, and v M < 2^w stays in its slot (Granlund &
    Montgomery 1994)."""
    s = w // 2 - 1 + p.bit_length()
    mul, q = (1 << s) // p + 1, ((1 << w - s) - 1) * ((1 << w * n) - 1) // ((1 << w) - 1)
    return lambda v: v - ((v * mul >> s) & q) * p


def gcd_ints(x: list[int], y: list[int], p: int) -> list[int]:
    """A gcd of coefficient lists over F_p, leading terms nonzero, by Euclid.

    A run of steps one degree down packs both remainders reversed, leading
    term in slot 0, and forms x - (c1 t + c0) y as x + y (p - c1 + (p - c0) 2^w)
    shifted two slots down, c1 and c0 read off slots 0 and 1.  The slots are
    reduced (_reducer) only when their bound bx + 2p by would reach 2^a.  Any
    other step is a divmod_ints division."""
    w = 64 if p < 1 << 15 else 128             # so that p + 2p^2 < 2^a
    a, one, two = w // 2 - 1, (1 << w) - 1, (1 << 2 * w) - 1
    while y:
        n = len(y)
        if len(x) != n + 1 or n < 2:
            x, y = y, divmod_ints(x, y, p)[1] if n > 1 else []
        else:
            red = _reducer(p, w, n + 1)
            xs, ys, bx, by, lead = _pack(x[::-1], w), _pack(y[::-1], w), p, p, y[-1]
            while n > 1 and lead:
                if bx + 2 * p * by >> a:
                    xs, ys, bx, by = red(xs), red(ys), p, p
                inv = pow(lead, -1, p)
                c1 = (xs & one) * inv % p
                c0 = (((xs & two) >> w) - c1 * ((ys & two) >> w)) * inv % p
                xs, ys = ys, (xs + ys * ((p - c0) << w | p - c1)) >> 2 * w
                bx, by, n, lead = by, bx + 2 * p * by, n - 1, (ys & one) % p
            x, y = _unpack(xs, n + 1, w, p)[::-1], _unpack(ys, n, w, p)[::-1]
        while y and not y[-1]:
            y.pop()
    return x


def barrett(m: Sequence[int], p: int):
    """The product modulo m over F_p (m with a nonzero leading term, so its
    remainders are those modulo its monic associate) of residues as int
    lists.  A product c has degree <= 2d - 2, d = deg m, so with
    mu = floor(x^(2d-2) / m) its quotient is floor(floor(c / x^d) mu / x^(d-2)):
    three big-int products, with mu and -m packed once.  mu reversed inverts
    m reversed modulo x^(d-1), by Newton iteration g -> g (2 - m g) on packed
    products (von zur Gathen & Gerhard, Modern Computer Algebra, 9.1)."""
    d, inv = len(m) - 1, pow(m[-1], -1, p)
    if d < 2:
        return lambda a, b: kron(a, b, p)
    neg, g = [-c * inv % p for c in m], [1]                 # -m, monic
    lo = d * (p - 1) ** 2                  # a slot of c, and of the other sums if c is reduced
    hi = max(lo * (d - 1) * (p - 1), 2 * lo)
    early = hi >> 64 > 0
    w = _width((lo + p if early else hi).bit_length())
    rev = _pack(neg[::-1][:d - 1], w)
    while len(g) < d - 1:
        k = min(2 * len(g), d - 1)
        x = _pack(g, w)
        e = _unpack(x * rev, k, w, p)                       # -m g reversed, term 0 -1
        e[0] = 1
        g = _unpack(x * _pack(e, w), k, w, p)
    mu, neg, low = _pack(g[::-1], w), _pack(neg[:d], w), (1 << d * w) - 1

    def mulmod(a: Sequence[int], b: Sequence[int]) -> list[int]:
        x, n = _pack(a, w), len(a) + len(b) - 1
        c = x * (x if a is b else _pack(b, w))
        if n <= d:                      # no reduction needed
            return _unpack(c, max(n, 0), w, p)
        if early:
            c = _pack(_unpack(c, 2 * d - 1, w, p), w)
        quot = _unpack((c >> d * w) * mu >> (d - 2) * w, d - 1, w, p)
        return _unpack((c & low) + _pack(quot, w) * neg, d, w, p)
    return mulmod

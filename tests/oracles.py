"""Reference implementations kept as test oracles.

The library computes the Kunneth invariant dimensions from the two
Frobenius cycle types alone.  The matrix path it replaced is here: the
bitmask GF(2) matrix of a cycle type with its row helpers, and the
elementary divisors read off the factored characteristic polynomial (by
the Samuelson-Berkowitz recurrence) and the kernel ranks of powers of p(M).
So are the independent ways of computing the same numbers: the rank of
MC (x) MD - I on the Kronecker product, a packed numpy elimination, and the
semisimple-only eigenvalue pairing.  Tests compare the library against
them, and the matrix path also on random invertible matrices drawn here.

The exact minimum distance has its three earlier kernels here too: blocks
of message indices decoded digit by digit, with one table multiply and one
table add per free row and message; the row-major span table of the last
generator rows, with one comparison against it per head codeword; and the
batched kernel, which rebuilt the heads of each leading index digit by
digit in batches of their own and compared each batch with the leading
columns of the position-major span table.

Code construction has its per-entry monomial evaluation here, one pow and
one mul per coordinate of each entry.

The quadratic branch sampler has its list of all q^2 pairs (b, c) here.

Full factorization into monic irreducibles with multiplicities is here:
the library only splits by distinct degree (the Frobenius cycle types need
no more).  poly_factor runs a squarefree decomposition (with p-th roots in
characteristic p), the distinct-degree split and seeded Cantor-Zassenhaus
equal-degree splitting, and sorts the factors by degree, then by base-q
coefficient encoding.  It gives the cycle types of two_torsion_frobenius
an independent check and the matrix oracles their characteristic-polynomial
factors.  It calls gf.poly_gcd, gf.poly_pow_mod and gf.distinct_degree
through the module, so schoolbook_kernels() routes it too.

Polynomial product, division, modular power and evaluation over F_p have
their per-coefficient schoolbook loops here, one FieldSpec.add/sub/mul call
per coefficient pair, and the gcd its generic Euclid, one full division per
step; schoolbook_kernels() routes gf through them, so gcds, distinct-degree
splits and factorizations can be recomputed on them.

The ample class for the Riemann-Roch lower bound has its earlier scan here:
the whole box -10..10 in each coordinate on a rank-2 lattice.

The asymptotic diagram has its per-sample Fraction loop here: each lattice
point an AsymptoticPoint, pushed through domain_membership, phi_g and
code_bound_checks and printed by str and float of the Fractions.
"""

from __future__ import annotations

import csv
import itertools
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace
from typing import Sequence

import random

import numpy as np

from surfcodes import asymptotic as am
from surfcodes import codes as cd
from surfcodes import fpx, gf
from surfcodes import surfaces as sf
from surfcodes.errors import BudgetExceeded, InvariantError, Precondition


class TooLarge(RuntimeError):
    pass


# -- full factorization over F_q -----------------------------------------------

# Seed for the randomized equal-degree splitting step of poly_factor.  The
# output order is canonical (sorted) so the seed only affects internal work,
# but fixing it keeps the work itself reproducible.
FACTOR_SEED = 1729


def _pth_root(f: gf.Polynomial) -> gf.Polynomial:
    """Inverse of the Frobenius on a polynomial whose exponents are all
    multiples of p (i.e. f = g(x)^p for the returned g)."""
    F = f.field
    root_exp = F.p ** (F.m - 1)  # inverse Frobenius on coefficients
    out = []
    for i in range(0, len(f.coeffs), F.p):
        out.append(F.pow(f.coeffs[i], root_exp) if f.coeffs[i] else 0)
    return gf.Polynomial(F, out)


def _squarefree_decomposition(f: gf.Polynomial) -> list[tuple[gf.Polynomial, int]]:
    """f monic -> [(g_i, e_i)] with f = prod g_i^{e_i}, g_i squarefree monic
    and pairwise coprime.  Characteristic-p aware (p-th power parts recurse
    through the coefficient-wise p-th root)."""
    F = f.field
    if f.degree == 0:
        return []
    out: list[tuple[gf.Polynomial, int]] = []
    d = gf.poly_gcd(f, f.derivative())
    if d.degree == 0:
        return [(f, 1)]
    w = f // d
    i = 1
    while w.degree > 0:
        y = gf.poly_gcd(w, d)
        fac = w // y
        if fac.degree > 0:
            out.append((fac, i))
        w = y
        d = d // y
        i += 1
    if d.degree > 0:
        for g, e in _squarefree_decomposition(_pth_root(d)):
            out.append((g, e * F.p))
    return out


def _equal_degree(f: gf.Polynomial, d: int, rng: random.Random) -> list[gf.Polynomial]:
    """Cantor-Zassenhaus split of a monic squarefree f all of whose
    irreducible factors have degree d."""
    F = f.field
    if f.degree == d:
        return [f]
    n = f.degree
    one = gf.Polynomial.one(F)
    while True:
        a = gf.Polynomial(F, [rng.randrange(F.q) for _ in range(n)])
        if a.degree < 1:
            continue
        g = gf.poly_gcd(a, f)
        if 0 < g.degree < n:
            break
        if F.p == 2:
            # additive trace of a over F_2 inside F_{q^d} = F_{2^(m*d)}
            b = a % f
            c = a % f
            for _ in range(F.m * d - 1):
                c = (c * c) % f
                b = (b + c) % f
        else:
            b = gf.poly_pow_mod(a, (F.q ** d - 1) // 2, f) - one
        g = gf.poly_gcd(b, f)
        if 0 < g.degree < n:
            break
    return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


def _sort_key(f: gf.Polynomial) -> tuple[int, int]:
    """Degree, then the coefficient tuple read as a base-q integer."""
    e = 0
    for c in reversed(f.coeffs):
        e = e * f.field.q + c
    return f.degree, e


def poly_factor(f: gf.Polynomial) -> list[tuple[gf.Polynomial, int]]:
    """Full factorization into monic irreducibles with multiplicities.

    The product of the factors (times the leading unit of f) reproduces f.
    Output order is canonical: by degree, then by base-q coefficient encoding.
    The equal-degree splitting draws from a Random seeded with FACTOR_SEED,
    so the work is reproducible as well as the output.
    """
    if f.is_zero:
        raise Precondition("cannot factor the zero polynomial")
    rng = random.Random(FACTOR_SEED)
    fm = f.monic()
    out: list[tuple[gf.Polynomial, int]] = []
    for g, mult in _squarefree_decomposition(fm):
        for d, h in gf.distinct_degree(g):
            for irr in _equal_degree(h, d, rng):
                out.append((irr, mult))
    out.sort(key=lambda t: _sort_key(t[0]))
    return out


# -- GF(2) matrices on bitmask rows -------------------------------------------
# A matrix is a sequence of Python ints: row i has bit j set iff entry (i, j)
# is 1.  A module-like matrix is any object with dim and rows.

def identity_rows(n: int) -> list[int]:
    return [1 << i for i in range(n)]


def add_rows(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return [x ^ y for x, y in zip(a, b)]


def matmul_rows(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Row-convention product: (AB)[i] = xor of B[k] over set bits k of A[i]."""
    out = []
    for row in a:
        acc = 0
        r = row
        while r:
            k = (r & -r).bit_length() - 1
            acc ^= b[k]
            r &= r - 1
        out.append(acc)
    return out


def transpose_rows(rows: Sequence[int], ncols: int) -> list[int]:
    out = [0] * ncols
    for i, row in enumerate(rows):
        r = row
        while r:
            j = (r & -r).bit_length() - 1
            out[j] |= 1 << i
            r &= r - 1
    return out


def poly_eval_rows(coeffs01: Sequence[int], m: Sequence[int], n: int) -> list[int]:
    """Evaluate a GF(2)[x] polynomial (coeffs ascending, entries 0/1) at a
    matrix, by Horner."""
    acc = [0] * n
    ident = identity_rows(n)
    for c in reversed(list(coeffs01)):
        acc = matmul_rows(acc, m)
        if c & 1:
            acc = add_rows(acc, ident)
    return acc


def rank(rows: Sequence[int], ncols: int) -> int:
    """Rank over GF(2) of rows below 2**ncols, by elimination on leading
    bits: each row is reduced by the pivot owning its leading bit until it
    vanishes or leads with a new bit, which makes it a pivot."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return len(pivots)


def kernel_dim(rows: Sequence[int], ncols: int) -> int:
    """Dimension of {x : Mx = 0} for the nrows-by-ncols matrix M."""
    return ncols - rank(rows, ncols)


def matpow_rows(a: Sequence[int], e: int, n: int) -> list[int]:
    result = identity_rows(n)
    base = list(a)
    while e:
        if e & 1:
            result = matmul_rows(result, base)
        base = matmul_rows(base, base)
        e >>= 1
    return result


def cycle_type_matrix(cycles: Sequence[int]) -> SimpleNamespace:
    """The 2-torsion module of a Frobenius with the given cycle type on the
    roots (sum(cycles) = n = 2g + 2) as a matrix: the permutation acting on
    (sum-zero vectors in F_2^n) / (all-ones) in the fixed difference basis
    d_i = e_i + e_{i+1}, i = 0..n-3.

    A vector w in the sum-zero subspace with last coordinate zero has
    coordinates x_j = w_0 + ... + w_j (prefix parities); when the last
    coordinate is one, reduce w + all-ones instead.
    """
    n = sum(cycles)
    dim = n - 2
    perm = list(range(n))
    start = 0
    for length in cycles:
        for off in range(length):
            perm[start + off] = start + (off + 1) % length
        start += length
    ones = (1 << n) - 1
    cols = []
    for i in range(dim):
        w = (1 << perm[i]) ^ (1 << perm[i + 1])
        if (w >> (n - 1)) & 1:
            w ^= ones
        coords = 0
        acc = 0
        for j in range(dim):
            acc ^= (w >> j) & 1
            coords |= acc << j
        cols.append(coords)
    # cols[i] holds column i; transpose into row-bitmask convention
    return SimpleNamespace(dim=dim, rows=tuple(transpose_rows(cols, dim)))


def _factored_charpoly(m) -> list[tuple[gf.Polynomial, int]]:
    cp = gf.Polynomial(gf.make_field(2, 1), berkowitz_charpoly(list(m.rows), m.dim))
    return poly_factor(cp)


def _block_counts(m, p: Sequence[int]) -> list[int]:
    """r_t = (dim ker p(M)^t - dim ker p(M)^(t-1)) / deg p for t = 1, 2, ...
    while positive: the number of elementary divisors p^e of M with e >= t,
    for an irreducible p over F_2 (coefficients ascending)."""
    n, deg = m.dim, len(p) - 1
    pm = poly_eval_rows(p, m.rows, n)
    power, prev, counts = pm, 0, []
    while (kdim := kernel_dim(power, n)) > prev:
        if (kdim - prev) % deg:
            raise InvariantError(
                f"kernel growth {kdim - prev} is not a multiple of degree {deg}")
        counts.append((kdim - prev) // deg)
        prev, power = kdim, matmul_rows(power, pm)
    return counts


def matrix_invariant_dim(mc, md) -> int:
    """dim ker(MC (x) MD - I) over F_2 on two invertible matrices, by the
    same pairing of elementary divisors as towers.tensor_invariant_dim
    (sum_p deg p * sum_t r_t(MC, p) * r_t(MD, p*)), with the divisors found
    from the factored characteristic polynomial and the kernel ranks of
    powers of p(M).  A singular matrix raises Precondition."""
    for m in (mc, md):
        if rank(m.rows, m.dim) < m.dim:
            raise Precondition(f"singular {m.dim}-dimensional module: "
                               "Frobenius must be invertible")
    total = 0
    for p, _ in _factored_charpoly(mc):
        pairs = zip(_block_counts(mc, p.coeffs), _block_counts(md, p.coeffs[::-1]))
        total += p.degree * sum(a * b for a, b in pairs)
    return total


def matrix_kunneth_invariants(mc, md) -> dict:
    """towers.kunneth_invariants on two matrices: fixed spaces by rank."""
    fixed = sum(kernel_dim(add_rows(m.rows, identity_rows(m.dim)), m.dim)
                for m in (mc, md))
    return {"h1G": fixed, "h2G": matrix_invariant_dim(mc, md) + 2}


def kron_rows(a: Sequence[int], na: int, b: Sequence[int], nb: int) -> list[int]:
    """Kronecker product with index convention (i, j) -> i*nb + j on both axes."""
    out = []
    for ra in a:
        for rb in b:
            acc = 0
            r = ra
            while r:
                k = (r & -r).bit_length() - 1
                acc |= rb << (k * nb)
                r &= r - 1
            out.append(acc)
    return out


def _pack(rows: Sequence[int], ncols: int) -> np.ndarray:
    words = max(1, (ncols + 63) // 64)
    nbytes = words * 8
    buf = bytearray(len(rows) * nbytes)
    for i, row in enumerate(rows):
        buf[i * nbytes:(i + 1) * nbytes] = row.to_bytes(nbytes, "little")
    return np.frombuffer(bytes(buf), dtype=np.uint64).reshape(len(rows), words).copy()


def packed_rank(rows: Sequence[int], ncols: int) -> int:
    """Rank over GF(2) by forward elimination on rows packed into numpy
    uint64 words, column by column."""
    nrows = len(rows)
    if nrows == 0 or ncols == 0:
        return 0
    m = _pack(rows, ncols)
    r = 0
    for c in range(ncols):
        w, b = divmod(c, 64)
        col = (m[r:, w] >> np.uint64(b)) & np.uint64(1)
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        below = r + 1 + np.nonzero((m[r + 1:, w] >> np.uint64(b)) & np.uint64(1))[0]
        if below.size:
            m[below] ^= m[r]
        r += 1
        if r == nrows:
            break
    return r


def kron_invariant_dim(mc, md) -> int:
    """dim ker(MC (x) MD - I) over F_2, computed directly on the Kronecker
    product of two matrices; refuses factors above 64 dimensions (a
    4096 x 4096 rank)."""
    if mc.dim > 64 or md.dim > 64:
        raise TooLarge("factors must have dimension <= 64 each")
    big = kron_rows(list(mc.rows), mc.dim, list(md.rows), md.dim)
    n = mc.dim * md.dim
    rows = add_rows(big, identity_rows(n))
    return n - packed_rank(rows, n)


def eigen_multiplicities(module) -> list[tuple[gf.Polynomial, int]]:
    """Geometric multiplicities per irreducible factor of the characteristic
    polynomial over F_2: for a factor p of degree k, each of its k conjugate
    eigenvalues has multiplicity dim ker(p(M)) / k."""
    n = module.dim
    out = []
    for p, _ in _factored_charpoly(module):
        kdim = kernel_dim(poly_eval_rows(p.coeffs, module.rows, n), n)
        if kdim % p.degree != 0:
            raise InvariantError(
                f"kernel dimension {kdim} is not a multiple of degree {p.degree}")
        out.append((p, kdim // p.degree))
    return out


def is_semisimple(module) -> bool:
    """True iff the minimal polynomial is squarefree over F_2, checked as
    ker p(M) = ker p(M)^2 for every irreducible factor p of the
    characteristic polynomial."""
    n = module.dim
    for p, _ in _factored_charpoly(module):
        pm = poly_eval_rows(p.coeffs, module.rows, n)
        if kernel_dim(pm, n) != kernel_dim(matmul_rows(pm, pm), n):
            return False
    return True


def eigen_pairing_dim(mc, md) -> int:
    """Sum over eigenvalues lambda of m_{lambda,C} * m_{lambda^{-1},D}
    (algebraic-closure eigenspace dimensions), valid for the invariant
    dimension when at least one factor is semisimple.  Computed per
    irreducible factor p via its reciprocal polynomial."""
    multsd = {p.coeffs: m for p, m in eigen_multiplicities(md)}
    return sum(p.degree * m * multsd.get(p.coeffs[::-1], 0)
               for p, m in eigen_multiplicities(mc))


def random_invertible(rng) -> SimpleNamespace:
    """A module-like matrix (dim, rows) drawn uniformly from GL_n(F_2), n
    uniform in 1..8: Jordan blocks of any size and eigenvalues in any
    extension of F_2, unlike the permutation modules.  The invariant
    dimension reads nothing but dim and rows."""
    n = rng.randrange(1, 9)
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(n))
        if packed_rank(rows, n) == n:
            return SimpleNamespace(dim=n, rows=rows)


_BLOCK = 1 << 14


def _min_weight_for_leading(field, gen_np, add_t, mul_t, lead: int) -> int:
    """Minimum codeword weight over messages whose first nonzero coordinate
    is 1 at position `lead`; exhaustive over the q^(k-1-lead) tails."""
    k, n = gen_np.shape
    q = field.q
    free = list(range(lead + 1, k))
    base = gen_np[lead]
    t = len(free)
    total = q ** t
    best = n + 1
    for start in range(0, total, _BLOCK):
        cnt = min(_BLOCK, total - start)
        block = np.arange(start, start + cnt, dtype=np.int64)
        cw = np.broadcast_to(base, (cnt, n)).copy()
        rem = block
        for j in free:
            rem, digit = np.divmod(rem, q)
            scaled = mul_t[digit[:, None], gen_np[j][None, :]]
            cw = add_t[cw, scaled]
        w = int(np.count_nonzero(cw, axis=1).min()) if cnt else n + 1
        if w < best:
            best = w
            if best <= 1:
                return best
    return best


def blocked_min_distance(code: cd.LinearCode,
                         budget: int = cd.DEFAULT_DISTANCE_BUDGET) -> int:
    """Exact minimum Hamming weight over nonzero codewords.

    Enumerates projective message representatives (first nonzero message
    coordinate fixed to 1) since scaling a message scales the codeword and
    preserves its weight.  The messages are searched in blocks by leading
    index, stopping early once a codeword of weight <= 1 is found.
    """
    if code.k == 0:
        raise Precondition("zero code has no minimum distance")
    q = code.field.q
    total = cd.enumeration_size(q, code.k)
    if total > budget:
        raise BudgetExceeded(
            f"enumeration needs {total} messages, budget is {budget}")
    add_t, mul_t = code.field.numpy_tables()
    gen_np = np.array(code.generator, dtype=np.uint16)
    best = code.n + 1
    for i in range(code.k):
        w = _min_weight_for_leading(code.field, gen_np, add_t, mul_t, i)
        if w < best:
            best = w
            if best <= 1:
                break
    return best


def _span_table(add_t, mul_t, rows):
    """All q^s combinations of the s given rows (a numpy array), built in s
    broadcast steps.

    Entry sum_u c_u q^u is sum_u c_u rows[s-1-u], so the first q^t entries
    are the span of the last t rows."""
    table = np.zeros((1, rows.shape[1]), dtype=np.uint16)
    for row in rows[::-1]:
        scaled = mul_t[:, row]                            # c * row, c in F_q
        table = add_t[scaled[:, None, :], table[None, :, :]]
        table = table.reshape(-1, rows.shape[1])
    return table


def span_table_min_distance(code: cd.LinearCode,
                            budget: int = cd.DEFAULT_DISTANCE_BUDGET) -> int:
    """Exact minimum Hamming weight over nonzero codewords.

    Enumerates projective message representatives (first nonzero message
    coordinate fixed to 1) since scaling a message scales the codeword and
    preserves its weight.  Table L holds all combinations of the last s
    generator rows, s as large as q^s * n <= MAX_KERNEL_CELLS allows (at
    least 1).  For leading index i, the heads h (row i plus a combination of
    the rows between i and L) are built in chunks of MAX_KERNEL_CELLS
    entries; with x over the span of the first q^min(s, k-1-i) rows of L,
    the h - x are the codewords with head h, and wt(h - x) counts the
    positions where x != h: one comparison per message.  The search stops
    at the first codeword of weight <= 1.  check_table_budget refuses a
    code whose tables would be over budget before any table is built.
    """
    if code.k == 0:
        raise Precondition("zero code has no minimum distance")
    q, n, k = code.field.q, code.n, code.k
    total = cd.enumeration_size(q, k)
    if total > budget:
        raise BudgetExceeded(
            f"enumeration needs {total} messages, budget is {budget}")
    cd.check_table_budget(q, n)
    add_t, mul_t = code.field.numpy_tables()
    gen = np.array(code.generator, dtype=np.uint16)
    s = 1
    while s + 1 < k and q ** (s + 1) * n <= cd.MAX_KERNEL_CELLS:
        s += 1
    low = _span_table(add_t, mul_t, gen[k - s:])
    chunk = max(1, cd.MAX_KERNEL_CELLS // n)
    best = n + 1
    for i in range(k):
        table = low[:q ** min(s, k - 1 - i)]
        free = gen[i + 1:k - s]                           # rows above L
        heads_total = q ** len(free)
        for start in range(0, heads_total, chunk):
            idx = np.arange(start, min(start + chunk, heads_total))
            heads = np.broadcast_to(gen[i], (len(idx), n))
            for row in free:
                idx, digit = np.divmod(idx, q)
                heads = add_t[heads, mul_t[digit[:, None], row]]
            for head in heads:
                w = n - int((table == head).sum(axis=1).max())
                if w < best:
                    best = w
                    if best <= 1:
                        return best
    return best


def batched_min_distance(code: cd.LinearCode,
                         budget: int = cd.DEFAULT_DISTANCE_BUDGET) -> int:
    """Exact minimum Hamming weight over nonzero codewords.

    Enumerates projective message representatives (first nonzero message
    coordinate fixed to 1) since scaling a message scales the codeword and
    preserves its weight.  Table L (n x q^s) holds all combinations of the
    last s generator rows, s as large as q^s * n <= MAX_KERNEL_CELLS / 4
    allows (at least 1).  For leading index i, the heads h (row i plus a
    combination of the rows between i and L) come in batches whose one
    comparison with the first q^min(s, k-1-i) columns x of L takes at most
    MAX_KERNEL_CELLS cells (or one head): wt(h - x) is n minus the positions
    where x == h, summed in the narrowest dtype that holds n.  The search
    stops after the first batch with a codeword of weight <= 1.
    check_table_budget refuses a code whose tables would be over budget
    before any table is built.
    """
    if code.k == 0:
        raise Precondition("zero code has no minimum distance")
    q, n, k = code.field.q, code.n, code.k
    total = cd.enumeration_size(q, k)
    if total > budget:
        raise BudgetExceeded(
            f"enumeration needs {total} messages, budget is {budget}")
    cd.check_table_budget(q, n)
    add_t, mul_t = code.field.numpy_tables()
    gen = np.array(code.generator, dtype=add_t.dtype)
    s = 1
    while s + 1 < k and q ** (s + 1) * n <= cd.MAX_KERNEL_CELLS >> 2:
        s += 1
    low = cd._span_table(add_t, mul_t, gen[k - s:])
    best = n + 1
    for i in range(k):
        table = low[:, :q ** min(s, k - 1 - i)]
        free = gen[i + 1:k - s]                           # rows above L
        heads_total = q ** len(free)
        batch = max(1, cd.MAX_KERNEL_CELLS // table.size)
        for start in range(0, heads_total, batch):
            idx = np.arange(start, min(start + batch, heads_total))
            heads = np.broadcast_to(gen[i], (len(idx), n))
            for row in free:
                idx, digit = np.divmod(idx, q)
                heads = add_t[heads, mul_t[digit[:, None], row]]
            agree = (heads[:, :, None] == table).view(np.uint8).sum(
                axis=1, dtype=np.min_scalar_type(n))
            best = min(best, n - int(agree.max()))
            if best <= 1:
                return best
    return best


def _eval_monomial(field: gf.FieldSpec, exp: tuple[int, ...],
                   point: tuple[int, ...]) -> int:
    acc = 1
    for e, c in zip(exp, point):
        if e:
            if c == 0:
                return 0
            acc = field.mul(acc, field.pow(c, e))
    return acc


def monomial_rows(field: gf.FieldSpec, exponents, points) -> list[list[int]]:
    """The value of each monomial at each point, one _eval_monomial call per
    entry."""
    return [[_eval_monomial(field, exp, p) for p in points] for exp in exponents]


def berkowitz_charpoly(rows: Sequence[int], n: int) -> list[int]:
    """Characteristic polynomial over GF(2), coefficients ascending (length
    n + 1, leading coefficient 1), by the division-free Samuelson-Berkowitz
    recurrence on leading principal submatrices."""
    if n == 0:
        return [1]
    # c holds coefficients highest-degree first
    c = [1]
    for r in range(1, n + 1):
        a = (rows[r - 1] >> (r - 1)) & 1
        # column pieces: R = row r-1 restricted to cols < r-1, C = col r-1 of rows < r-1
        mask = (1 << (r - 1)) - 1
        rvec = rows[r - 1] & mask
        cvec = 0
        for i in range(r - 1):
            cvec |= ((rows[i] >> (r - 1)) & 1) << i
        # toeplitz column: [1, a, R C, R M C, R M^2 C, ...]
        col = [1, a]
        v = cvec
        sub = rows[: r - 1]
        for _ in range(r - 1):
            col.append(bin(rvec & v).count("1") & 1)
            # v <- M_{r-1} v  (column vector: entry i = parity of row_i & v)
            nv = 0
            for i in range(r - 1):
                nv |= (bin(sub[i] & mask & v).count("1") & 1) << i
            v = nv
        newc = [0] * (r + 1)
        for i in range(r + 1):
            s = 0
            for j in range(len(c)):
                k = i - j
                if 0 <= k < len(col):
                    s ^= col[k] & c[j]
            newc[i] = s
        c = newc
    c.reverse()  # ascending
    return c


def listed_quadratic_poly(q: int, count: int, seed: int) -> gf.Polynomial:
    """The quadratic branch sampler over the full list of irreducible
    t^2 + b t + c, built from all q^2 pairs (b, c) in element order."""
    field = gf.field_from_order(q)
    rng = random.Random(seed)
    available = (q * q - q) // 2
    if count > available:
        raise Precondition(
            f"only {available} monic irreducible quadratics exist, need {count}")
    # t^2 + b t + c irreducible over odd F_q iff b^2 - 4c is a nonsquare
    four = field.from_int(4)
    irreducible = [(b, c) for b in field.elements() for c in field.elements()
                   if gf.quadratic_character(
                       field, field.sub(field.mul(b, b), field.mul(four, c))) == -1]
    picks = sorted(rng.sample(range(len(irreducible)), count))
    poly = gf.Polynomial.one(field)
    for i in picks:
        b, c = irreducible[i]
        poly = poly * field.poly((c, b, 1))
    return poly


def schoolbook_mul(f: gf.Polynomial, g: gf.Polynomial) -> gf.Polynomial:
    F = f.field
    if f.is_zero or g.is_zero:
        return F.poly(())
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a:
            for j, b in enumerate(g.coeffs):
                if b:
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
    return gf.Polynomial(F, out)


def schoolbook_divmod(f: gf.Polynomial, g: gf.Polynomial
                      ) -> tuple[gf.Polynomial, gf.Polynomial]:
    F = f.field
    if g.is_zero:
        raise Precondition("polynomial division by zero")
    r = list(f.coeffs)
    d = g.degree
    inv_lead = F.inv(g.leading)
    quot = [0] * max(0, len(r) - d)
    while len(r) - 1 >= d and r:
        c = F.mul(r[-1], inv_lead)
        shift = len(r) - 1 - d
        quot[shift] = c
        for i, gc in enumerate(g.coeffs):
            r[shift + i] = F.sub(r[shift + i], F.mul(c, gc))
        while r and r[-1] == 0:
            r.pop()
    return gf.Polynomial(F, quot), gf.Polynomial(F, r)


def schoolbook_pow_mod(base: gf.Polynomial, e: int, mod: gf.Polynomial
                       ) -> gf.Polynomial:
    result = gf.Polynomial.one(base.field)
    base = schoolbook_divmod(base, mod)[1]
    while e:
        if e & 1:
            result = schoolbook_divmod(schoolbook_mul(result, base), mod)[1]
        base = schoolbook_divmod(schoolbook_mul(base, base), mod)[1]
        e >>= 1
    return result


def horner_eval(f: gf.Polynomial, a: int) -> int:
    F = f.field
    acc = 0
    for c in reversed(f.coeffs):
        acc = F.add(F.mul(acc, a), c)
    return acc


def euclid_gcd(a: gf.Polynomial, b: gf.Polynomial) -> gf.Polynomial:
    """The monic gcd by the generic Euclid: one full division per step."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def list_euclid_gcd(a: gf.Polynomial, b: gf.Polynomial) -> gf.Polynomial:
    """The monic gcd over F_p by Euclid on unpacked int lists: a step one
    degree down reads its quotient c1 x + c0 off the top coefficients and
    takes one pass, reduced mod p at every step; any other step divides."""
    F, p = a.field, a.field.p
    if F.m > 1:
        return euclid_gcd(a, b)
    x, y = list(a.coeffs), list(b.coeffs)
    while y:
        if len(x) == len(y) + 1 > 2:
            inv = pow(y[-1], -1, p)
            c1 = x[-1] * inv % p
            c0 = (x[-2] - c1 * y[-2]) * inv % p
            x, y = y, [(s - c1 * t - c0 * u) % p for s, t, u in zip(x, [0] + y, y[:-1])]
        else:
            x, y = y, fpx.divmod_ints(x, y, p)[1]
        while y and not y[-1]:
            y.pop()
    return gf.Polynomial(F, x).monic()


def barrett_pow_mod(base: gf.Polynomial, e: int, mod: gf.Polynomial) -> gf.Polynomial:
    """base^e modulo mod over F_p, rebuilding its Barrett inverse (the
    inverse of the reversed monic associate of mod modulo x^(d-1)) by the
    O(d^2) recurrence on every call; each product is reduced by two unpacked
    Kronecker products against that inverse."""
    F, p, d = base.field, base.field.p, mod.degree
    if F.m > 1:
        return schoolbook_pow_mod(base, e, mod)
    m = mod.monic().coeffs
    low, rev = m[:d], m[::-1]
    inv = [1]
    for j in range(1, d - 1):
        inv.append(-sum(a * b for a, b in zip(rev[1:j + 1], reversed(inv))) % p)

    def mulmod(a: list[int], b: list[int]) -> list[int]:
        c = fpx.kron(a, b, p)
        k = len(c) - d
        if k <= 0:
            return c
        quot = fpx.kron(c[:d - 1:-1], inv[:k], p)[k - 1::-1]
        return [(x - y) % p for x, y in zip(c[:d], fpx.kron(quot, low, p))]

    result, b = [1], list((base % mod).coeffs)
    while e:
        if e & 1:
            result = mulmod(result, b)
        b = mulmod(b, b) if e > 1 else b
        e >>= 1
    return gf.Polynomial(F, result)


def polynomial_distinct_degree(f: gf.Polynomial) -> list[tuple[int, gf.Polynomial]]:
    """The distinct-degree split on Polynomial values: each h = x^(q^d) mod f
    by its own gf.poly_pow_mod call and gcd(h - x, f) by gf.poly_gcd, both
    looked up through the module, so schoolbook_kernels() routes them."""
    F = f.field
    out = []
    x = gf.Polynomial.x(F)
    h = x % f
    d = 0
    while f.degree > 0:
        d += 1
        if 2 * d > f.degree:
            out.append((f.degree, f))
            break
        h = gf.poly_pow_mod(h, F.q, f)
        g = gf.poly_gcd(h - x, f)
        if g.degree > 0:
            out.append((d, g))
            f = f // g
            h = h % f
    return out


@contextmanager
def schoolbook_kernels():
    """Inside the block, gf's polynomial product, division, modular power,
    gcd, evaluation and distinct-degree split are the oracles above: the
    schoolbook loops, the generic Euclid and the Polynomial split."""
    saved = (gf.Polynomial.__mul__, gf.Polynomial.__divmod__,
             gf.poly_pow_mod, gf.poly_gcd, gf.poly_eval, gf.distinct_degree)
    gf.Polynomial.__mul__ = schoolbook_mul
    gf.Polynomial.__divmod__ = schoolbook_divmod
    gf.poly_pow_mod, gf.poly_gcd, gf.poly_eval = schoolbook_pow_mod, euclid_gcd, horner_eval
    gf.distinct_degree = polynomial_distinct_degree
    try:
        yield
    finally:
        (gf.Polynomial.__mul__, gf.Polynomial.__divmod__,
         gf.poly_pow_mod, gf.poly_gcd, gf.poly_eval, gf.distinct_degree) = saved


@lru_cache(maxsize=None)
def _box_ample_classes(surface: sf.SurfaceModel) -> list:
    # the box in scan order, kept to its ample classes, each with K.H
    k, box = surface.canonical, 10
    if surface.ns_rank == 1:
        candidates = [surface.divisor(a) for a in range(1, box + 1)]
    else:
        candidates = [surface.divisor(a, b)
                      for a in range(-box, box + 1) for b in range(-box, box + 1)]
    return [(h, sf.intersect(k, h)) for h in candidates
            if sf.ampleness_flags(surface, h).ample]


def box_ample_h(surface: sf.SurfaceModel, g: sf.DivisorClass):
    """The first ample H with G.H > K.H, scanning 1..10 on P^2 and
    -10..10 in each coordinate otherwise; None if the box has none."""
    return next((h for h, kh in _box_ample_classes(surface)
                 if sf.intersect(g, h) > kh), None)


# -- the asymptotic diagram on Fractions ----------------------------------------

def fraction_diagram(q: int, g: int, grid_n: int, path: str, svg_path=None) -> None:
    """The CSV (and SVG) of asymptotic.emit_diagram, one Fraction sample at a
    time: kappa = (2/(g(q+1))) i/(grid_n-1) and chi = (1/(g(q+1))) j/(grid_n-1),
    then the four polygon corners, each through the library's exact maps."""
    poly = am.polygon_image(q, g)
    kmax = Fraction(2, g * (q + 1))
    cmax = Fraction(1, g * (q + 1))
    samples = itertools.chain(
        (am.AsymptoticPoint(kmax * i / (grid_n - 1), cmax * j / (grid_n - 1))
         for i in range(grid_n) for j in range(grid_n)),
        (poly[name] for name in ("A1", "B1", "C1", "D1")))
    with open(path, "w", encoding="utf-8", newline="") as fh, \
            (open(svg_path, "w", encoding="utf-8") if svg_path else nullcontext()) as svg:
        writer = csv.writer(fh)
        writer.writerow(am.DIAGRAM_HEADER)
        if svg:
            svg.write(am._svg_head(q, poly))
        for pt in samples:
            member = am.domain_membership(q, pt)
            cp = am.phi_g(q, g, pt)
            checks = am.code_bound_checks(q, cp)
            in_domain = member["kappa_lb_ok"] and member["chi_ub_ok"]
            writer.writerow((str(pt.kappa), str(pt.chi), str(cp.delta), str(cp.r),
                             str(in_domain).lower(),
                             str(checks["singleton_ok"]).lower(),
                             str(checks["plotkin_ok"]).lower()))
            if svg:
                x, y = am._svg_xy(float(cp.delta), float(cp.r))
                color = "black" if in_domain else "lightgray"
                svg.write(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="{color}"/>\n')
        if svg:
            svg.write("</svg>\n")

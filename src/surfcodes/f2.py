"""Dense linear algebra over GF(2) on bitmask rows.

A matrix is a sequence of Python ints: row i has bit j set iff entry (i, j)
is 1.  Every matrix here is small (a Frobenius module or a polynomial in one,
at most 2g x 2g), so all operations, rank included, work on the ints
directly.
"""

from __future__ import annotations

from typing import Sequence


def identity_rows(n: int) -> list[int]:
    return [1 << i for i in range(n)]


def zero_rows(n: int) -> list[int]:
    return [0] * n


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
    acc = zero_rows(n)
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


def charpoly(rows: Sequence[int], n: int) -> list[int]:
    """Characteristic polynomial over GF(2), coefficients ascending (length
    n + 1, leading coefficient 1).

    A similarity brings the matrix to upper Hessenberg form H column by
    column: a row swap with the matching column swap moves a pivot to the
    subdiagonal, rows below it are cleared by adding the pivot row, and the
    inverse column update (column k+1 += the cleared rows' columns) is done
    for every row at once as the parity of row & kmask.  The charpolys p_m
    of the leading m x m blocks of H then follow from
        p_m = (x + H[c][c]) p_c + sum_{i < c} H[i][c] H[i+1][i]...H[c][c-1] p_i
    with c = m - 1, on GF(2)[x] polynomials packed into ints (bit j = x^j).
    """
    h = list(rows)
    for k in range(n - 2):
        col = 1 << k
        piv = next((i for i in range(k + 1, n) if h[i] & col), None)
        if piv is None:
            continue
        t = k + 1
        if piv != t:
            h[piv], h[t] = h[t], h[piv]
            for i in range(n):
                d = ((h[i] >> piv) ^ (h[i] >> t)) & 1
                h[i] ^= (d << piv) | (d << t)
        kmask = 0
        for i in range(t + 1, n):
            if h[i] & col:
                h[i] ^= h[t]
                kmask |= 1 << i
        if kmask:
            for i in range(n):
                h[i] ^= ((h[i] & kmask).bit_count() & 1) << t
    polys = [1]
    for m in range(1, n + 1):
        c = m - 1
        acc = (polys[c] << 1) ^ (polys[c] if (h[c] >> c) & 1 else 0)
        for i in range(c - 1, -1, -1):
            if not (h[i + 1] >> i) & 1:
                break
            if (h[i] >> c) & 1:
                acc ^= polys[i]
        polys.append(acc)
    return [(polys[n] >> j) & 1 for j in range(n + 1)]

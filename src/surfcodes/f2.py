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

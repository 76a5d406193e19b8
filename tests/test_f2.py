"""The GF(2) bitmask-row helpers and the characteristic polynomial of the
matrix oracle in oracles.py."""

import random

import oracles
from surfcodes import gf


def random_rows(rng, n):
    return [rng.getrandbits(n) for _ in range(n)]


def brute_charpoly(rows, n):
    """det(xI - M) by Laplace expansion with exact F_2[x] arithmetic."""
    F2 = gf.make_field(2, 1)
    x = gf.Polynomial.x(F2)

    entries = [[gf.Polynomial(F2, ((rows[i] >> j) & 1,)) for j in range(n)]
               for i in range(n)]
    # xI - M entrywise; minus is plus over F_2
    mat = [[entries[i][j] + (x if i == j else F2.poly(()))
            for j in range(n)] for i in range(n)]

    def det(m):
        k = len(m)
        if k == 1:
            return m[0][0]
        acc = F2.poly(())
        for j in range(k):
            if m[0][j].is_zero:
                continue
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            acc = acc + m[0][j] * det(minor)
        return acc

    return det(mat)


class TestRank:
    def test_identity(self):
        assert oracles.rank(oracles.identity_rows(10), 10) == 10

    def test_zero(self):
        assert oracles.rank([0, 0, 0], 5) == 0
        assert oracles.rank([], 5) == 0

    def test_duplicated_rows(self):
        assert oracles.rank([0b101, 0b101, 0b011], 3) == 2

    def test_against_python_elimination(self):
        rng = random.Random(11)
        for n in (1, 2, 3, 7, 17, 40, 65, 130):
            rows = random_rows(rng, n)
            # plain int-row elimination as the oracle
            work = list(rows)
            rank = 0
            for c in range(n):
                piv = next((i for i in range(rank, n) if (work[i] >> c) & 1), None)
                if piv is None:
                    continue
                work[rank], work[piv] = work[piv], work[rank]
                for i in range(n):
                    if i != rank and (work[i] >> c) & 1:
                        work[i] ^= work[rank]
                rank += 1
            assert oracles.rank(rows, n) == rank
            assert oracles.kernel_dim(rows, n) == n - rank

    def test_against_packed_oracle(self):
        # dense square, rectangular both ways, low rank, and Kronecker
        # products with an identity shift (the old tensor-invariant input)
        rng = random.Random(12)
        cases = [(n, n) for n in (1, 8, 64, 65, 200)]
        cases += [(5, 90), (90, 5), (64, 130), (130, 64)]
        for nrows, ncols in cases:
            rows = [rng.getrandbits(ncols) for _ in range(nrows)]
            few = rows[:3]          # rank <= 3 after mixing
            low = [rng.choice(few) ^ rng.choice(few) for _ in range(nrows)]
            for m in (rows, low):
                assert oracles.rank(m, ncols) == oracles.packed_rank(m, ncols)
        for na, nb in ((3, 4), (6, 6), (8, 10)):
            a = [rng.getrandbits(na) for _ in range(na)]
            b = [rng.getrandbits(nb) for _ in range(nb)]
            n = na * nb
            for k in (oracles.kron_rows(a, na, b, nb),
                      oracles.add_rows(oracles.kron_rows(a, na, b, nb),
                                  oracles.identity_rows(n))):
                assert oracles.rank(k, n) == oracles.packed_rank(k, n)


class TestMatOps:
    def test_matmul_identity(self):
        rng = random.Random(3)
        rows = random_rows(rng, 9)
        assert oracles.matmul_rows(rows, oracles.identity_rows(9)) == rows
        assert oracles.matmul_rows(oracles.identity_rows(9), rows) == rows

    def test_transpose_involution(self):
        rng = random.Random(5)
        rows = random_rows(rng, 12)
        assert oracles.transpose_rows(oracles.transpose_rows(rows, 12), 12) == rows

    def test_kron_against_definition(self):
        rng = random.Random(9)
        a = random_rows(rng, 3)
        b = random_rows(rng, 4)
        k = oracles.kron_rows(a, 3, b, 4)
        for i in range(3):
            for j in range(4):
                for s in range(3):
                    for t in range(4):
                        got = (k[i * 4 + j] >> (s * 4 + t)) & 1
                        want = ((a[i] >> s) & 1) & ((b[j] >> t) & 1)
                        assert got == want

    def test_matpow(self):
        # 4-cycle permutation matrix has order 4
        perm = [1 << ((i + 1) % 4) for i in range(4)]
        assert oracles.matpow_rows(perm, 4, 4) == oracles.identity_rows(4)
        assert oracles.matpow_rows(perm, 2, 4) != oracles.identity_rows(4)


class TestCharpoly:
    def test_small_against_laplace(self):
        rng = random.Random(21)
        for n in (1, 2, 3, 4, 5, 6):
            for _ in range(8):
                rows = random_rows(rng, n)
                got = oracles.berkowitz_charpoly(rows, n)
                want = brute_charpoly(rows, n)
                assert gf.Polynomial(gf.make_field(2, 1), got) == want

    def test_cayley_hamilton(self):
        rng = random.Random(33)
        for n in (8, 13, 20):
            rows = random_rows(rng, n)
            cp = oracles.berkowitz_charpoly(rows, n)
            assert len(cp) == n + 1 and cp[-1] == 1
            assert oracles.poly_eval_rows(cp, rows, n) == [0] * n

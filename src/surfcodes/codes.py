"""Evaluation codes on the catalog surfaces as explicit generator matrices.

A code is built by evaluating a monomial basis of the sections of a divisor
class at a canonical list of rational points; the exact minimum distance is
then available by exhaustive search over projective message representatives.
The messages inside a table L of all combinations of the last generator rows
are read off L's own columns; the heads of all others (their parts above L)
come from one capped table and fill shared batches, each compared with L in
one numpy comparison of at most MAX_KERNEL_CELLS cells (or one head, if
more).  A code whose one-row table (q * n entries) exceeds MAX_ROW_TABLE_CELLS
is refused as over budget, and so is one whose generator would hold more than
MAX_CODE_CELLS section values, before its basis is listed.

Canonical point representatives
-------------------------------
For each projective factor the representative is scaled so its first nonzero
coordinate is 1.  On a Hirzebruch surface with Cox coordinates
(t0, t1, x0, x1) and torus weights (lambda: t-pair and x1 by lambda^e;
mu: x-pair), the t-pair is normalized first (fixing lambda, which rescales
x1 by lambda^e), then the x-pair (fixing mu).  Evaluating at a different
representative rescales a whole generator column, which changes no code
parameter; canonicalization just makes outputs bit-exact.

Grid evaluation sets live in the affine chart t1 = x1 = 1 of F_e (the
quadric at e = 0) and are stored as coordinate pairs; a pair (t, x) is
evaluated as the point (t, 1, x, 1) like any other point.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from typing import Optional, Sequence

from . import gf
from . import surfaces as sf
from .errors import BudgetExceeded, Precondition, int_text, ints_text
from .records import Record

DEFAULT_DISTANCE_BUDGET = 10_000_000
MAX_POINTS = 10 ** 6
MAX_KERNEL_CELLS = 1 << 20
MAX_ROW_TABLE_CELLS = 1 << 25
MAX_CODE_CELLS = 10 ** 7


# ---------------------------------------------------------------------------
# Rational points
# ---------------------------------------------------------------------------

class PointList(Record):
    __slots__ = ("tag", "points", "grid")          # tag "all" | "grid"
    _defaults = {"grid": None}


def _projective_points(elements, dim: int):
    """Canonical representatives of P^dim over the given field elements, one
    at a time: the first nonzero coordinate is 1.  A later leading 1 sorts
    first, so ascending elements give ascending points."""
    for lead in range(dim, -1, -1):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(elements, repeat=dim - lead):
            yield prefix + tail


def _check_point_budget(n: int) -> None:
    if n > MAX_POINTS:
        raise BudgetExceeded(f"{int_text(n, 'evaluation points')} exceed {MAX_POINTS}")


def grid_sides(surface: sf.SurfaceModel, q: int,
               grid: Optional[tuple[Sequence[int], Sequence[int]]] = None
               ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The sides (A, B) of a grid evaluation set, each sorted and distinct,
    all of F_q for grid=None; the grid itself is never listed.  Refused in
    this order: a surface other than the quadric and the Hirzebruch
    surfaces, more than MAX_POINTS points (BudgetExceeded, counted before the
    field is built or a default side listed), q not a prime power, an entry
    outside F_q."""
    if sf.hirzebruch_e(surface) is None:
        raise Precondition(f"grid points are not defined on {surface.kind}")
    if grid is None:
        grid = (range(q), range(q))
    # count an ascending range (sorted, distinct) unlisted; len() overflows at 2^63
    a, b = (s if isinstance(s, range) and s.step > 0
            else tuple(sorted(set(int(x) for x in s))) for s in grid)
    _check_point_budget(math.prod(max(0, -((s.start - s.stop) // s.step))
                                  if isinstance(s, range) else len(s) for s in (a, b)))
    gf.field_from_order(q)
    a, b = tuple(a), tuple(b)
    for c in a + b:
        if not 0 <= c < q:
            raise Precondition(f"grid entry {int_text(c)} is not an element of F_{q}")
    return a, b


def rational_points(surface: sf.SurfaceModel, q: int, tag: str = "all",
                    grid: Optional[tuple[Sequence[int], Sequence[int]]] = None
                    ) -> PointList:
    """Deterministically ordered canonical point list.

    tag="grid" takes grid=(A, B) with A, B subsets of F_q element indices,
    checked by grid_sides.  The point count is checked against MAX_POINTS
    before the field or any point is built; a larger count raises
    BudgetExceeded.
    """
    if tag == "grid":
        a, b = grid_sides(surface, q, grid)
        return PointList("grid", tuple((x, y) for x in a for y in b), (a, b))
    if tag != "all":
        raise Precondition(f"unknown point tag {tag!r}")
    if surface.kind not in (sf.P2, sf.P1XP1, sf.HIRZEBRUCH):
        raise Precondition(f"{surface.kind} has no point enumeration (bounds only)")
    _check_point_budget(sf.point_count(surface, q))
    field = gf.field_from_order(q)
    if surface.kind == sf.P2:
        pts = list(_projective_points(field.elements(), 2))
    else:
        reps = list(_projective_points(field.elements(), 1))
        pts = [a + b for a in reps for b in reps]
    return PointList("all", tuple(pts))


# ---------------------------------------------------------------------------
# Monomial section bases
# ---------------------------------------------------------------------------

class MonomialBasis(Record):
    __slots__ = ("exponents",)

    def __len__(self) -> int:
        return len(self.exponents)


def section_count(surface: sf.SurfaceModel, g: sf.DivisorClass) -> int:
    """len(section_basis(surface, g)) in closed form, raising the same errors
    without listing a monomial."""
    e = sf.hirzebruch_e(surface)
    if surface.kind == sf.P2:
        (d,) = g.coords
        count = (d + 1) * (d + 2) // 2 if d >= 0 else 0
    elif e is not None:
        u, v = g.coords
        # de = 0..m, the de with u - e*de >= 0, each give u - e*de + 1
        m = min(v, u // e) if e else v
        count = (m + 1) * (u + 1) - e * m * (m + 1) // 2 if u >= 0 and v >= 0 else 0
    else:
        raise Precondition(f"{surface.kind} has no section basis (bounds only)")
    if not count:
        raise Precondition(
            f"no sections for divisor {ints_text(g.coords)} on {surface.kind}")
    return count


def section_basis(surface: sf.SurfaceModel, g: sf.DivisorClass) -> MonomialBasis:
    """Monomial exponent tuples spanning the sections of g, in lexicographic
    order.

    P2, degree d:        (i, j, k), i + j + k = d
    Hirzebruch(e),(u,v): (al, be, ga, de), ga + de = v, al + be = u - e*de >= 0
    """
    section_count(surface, g)       # an unsupported surface or no sections raise
    if surface.kind == sf.P2:
        (d,) = g.coords
        exps = [(i, j, d - i - j) for i in range(d + 1) for j in range(d - i + 1)]
    else:
        e = sf.hirzebruch_e(surface)
        u, v = g.coords
        exps = [(al, u - e * de - al, v - de, de)
                for de in range(v + 1) for al in range(u - e * de + 1)]
    exps.sort()
    return MonomialBasis(tuple(exps))


def _evaluation_rows(field: gf.FieldSpec, exponents, points) -> list[list[int]]:
    """The value of each monomial at each point: a row is the product of the
    (coordinate, exponent) columns of powers, each computed once."""
    powers = {(j, e): [field.pow(p[j], e) for p in points]
              for j, e in {(j, e) for exp in exponents for j, e in enumerate(exp) if e}}
    return [functools.reduce(lambda a, b: list(map(field.mul, a, b)),
                             [powers[j, e] for j, e in enumerate(exp) if e]
                             or [[1] * len(points)]) for exp in exponents]


# ---------------------------------------------------------------------------
# Linear codes
# ---------------------------------------------------------------------------

class LinearCode(Record):
    __slots__ = ("field", "n", "k", "generator",    # generator: k independent rows
                 "section_count", "surface", "divisor", "tag", "grid")
    _defaults = {"surface": None, "divisor": None, "tag": "all", "grid": None}

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.to_json_dict(),
            "n": self.n,
            "k": self.k,
            "surface": self.surface.to_json_dict() if self.surface else None,
            "divisor": list(self.divisor) if self.divisor else None,
            "point_tag": (self.tag if self.tag == "all" else
                          {"grid": {"A": list(self.grid[0]), "B": list(self.grid[1])}}),
            "section_count": self.section_count,
            "generator": [int(x) for row in self.generator for x in row],
        }

    def generator_csv(self) -> str:
        return "\n".join(",".join(str(x) for x in row) for row in self.generator) + "\n"


def _require(d, key: str, kind: type):
    """d[key], which must exist and have type kind; anything else is a
    Precondition naming the key."""
    if not isinstance(d, dict) or key not in d:
        raise Precondition(f"code JSON: missing key {key!r}")
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise Precondition(f"code JSON: key {key!r} must be of type {kind.__name__}")
    return value


def code_from_json_dict(d: dict, distance_budget: Optional[int] = None) -> LinearCode:
    """Parse a code JSON document, validating it on the way: required keys
    and their types, the generator length, every entry in [0, q), and the
    generator rows having rank exactly k.  Violations raise Precondition;
    n > MAX_POINTS or n * k > MAX_CODE_CELLS raise BudgetExceeded first, and
    so, given a distance_budget, does a nonzero code that exact_min_distance
    would refuse for that budget (check_distance_budget, from q, n and k)."""
    fd = _require(d, "field", dict)
    _require(fd, "p", int)
    _require(fd, "m", int)
    _require(fd, "modulus", list)
    field = gf.field_from_json(fd)
    n, k = _require(d, "n", int), _require(d, "k", int)
    if n < 1 or k < 0:
        raise Precondition(f"code JSON: need n >= 1 and k >= 0, got n = {n}, k = {k}")
    _check_point_budget(n)
    if n * k > MAX_CODE_CELLS:
        raise BudgetExceeded(f"{k} rows at {n} points exceed {MAX_CODE_CELLS} "
                             f"generator entries")
    if distance_budget is not None and k > 0:
        check_distance_budget(field.q, n, k, distance_budget)
    flat = _require(d, "generator", list)
    if len(flat) != n * k:
        raise Precondition(f"generator has {len(flat)} entries, expected {n * k}")
    for x in flat:
        if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < field.q:
            raise Precondition(f"code JSON: generator entry {x!r} is not an element "
                               f"of F_{field.q}")
    rows = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(k))
    rank = matrix_rank(field, rows)
    if rank != k:
        raise Precondition(f"code JSON: generator rows have rank {rank}, not k = {k}")
    try:
        surf = sf.surface_from_json(d["surface"]) if d.get("surface") else None
        divisor = tuple(int(c) for c in d["divisor"]) if d.get("divisor") else None
        section_count = int(d.get("section_count", k))
        tag, grid = d.get("point_tag", "all"), None
        if isinstance(tag, dict):
            g = tag["grid"]
            tag, grid = "grid", (tuple(int(x) for x in g["A"]),
                                 tuple(int(x) for x in g["B"]))
    except (KeyError, IndexError, TypeError) as exc:
        raise Precondition(f"code JSON: malformed metadata, "
                           f"{type(exc).__name__}: {exc}") from exc
    except Precondition:
        raise
    except (ValueError, OverflowError) as exc:    # int() of "a", NaN or Infinity
        raise Precondition(str(exc)) from exc
    if tag != "all" and grid is None:
        raise Precondition("code JSON: key 'point_tag' must be \"all\" or a grid")
    return LinearCode(field=field, n=n, k=k, generator=rows,
                      section_count=section_count, surface=surf, divisor=divisor,
                      tag=tag, grid=grid)


def load_code(path: str, distance_budget: Optional[int] = None) -> LinearCode:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:                 # not JSON, or not UTF-8
            raise Precondition(str(exc)) from exc
    return code_from_json_dict(doc, distance_budget)


def matrix_rank(field: gf.FieldSpec, rows: Sequence[Sequence[int]]) -> int:
    rank, _ = _row_reduce(field, rows)
    return rank


def _row_reduce(field: gf.FieldSpec, rows: Sequence[Sequence[int]]
                ) -> tuple[int, list[int]]:
    """Gaussian elimination with exact field arithmetic; returns the rank and
    the indices of a maximal independent subset of the original rows."""
    work = [list(r) for r in rows]
    idx = list(range(len(work)))
    selected: list[int] = []
    col = 0
    ncols = len(work[0]) if work else 0
    r = 0
    while r < len(work) and col < ncols:
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        work[r], work[piv] = work[piv], work[r]
        idx[r], idx[piv] = idx[piv], idx[r]
        selected.append(idx[r])
        inv = field.inv(work[r][col])
        for i in range(r + 1, len(work)):
            c = work[i][col]
            if c:
                factor = field.mul(c, inv)
                work[i] = [field.sub(a, field.mul(factor, b))
                           for a, b in zip(work[i], work[r])]
        r += 1
        col += 1
    return r, sorted(selected)


def build_code(surface: sf.SurfaceModel, g: sf.DivisorClass, q: int,
               tag: str = "all",
               grid: Optional[tuple[Sequence[int], Sequence[int]]] = None
               ) -> LinearCode:
    """Generator matrix of the evaluation code: rows are basis monomials,
    columns are canonical points; rows are then reduced to a basis (k = rank)
    while the full monomial count stays available as metadata.  More than
    MAX_CODE_CELLS section values (sections times points) raise
    BudgetExceeded before the basis is listed or any value computed."""
    sections = section_count(surface, g)
    pts = rational_points(surface, q, tag, grid)
    if not pts.points:
        raise Precondition("empty evaluation set")
    if sections * len(pts.points) > MAX_CODE_CELLS:
        raise BudgetExceeded(f"{int_text(sections, 'sections')} at {len(pts.points)} "
                             f"points exceed {MAX_CODE_CELLS} generator entries")
    basis = section_basis(surface, g)
    field = gf.field_from_order(q)
    # a grid pair (t, x) is the chart point (t, 1, x, 1)
    points = ([(t, 1, x, 1) for t, x in pts.points] if pts.tag == "grid"
              else pts.points)
    rows = _evaluation_rows(field, basis.exponents, points)
    rank, keep = _row_reduce(field, rows)
    generator = tuple(tuple(rows[i]) for i in keep)
    return LinearCode(field=field, n=len(pts.points), k=rank, generator=generator,
                      section_count=len(basis), surface=surface, divisor=g.coords,
                      tag=pts.tag, grid=pts.grid)


# ---------------------------------------------------------------------------
# Exact minimum distance
# ---------------------------------------------------------------------------

def enumeration_size(q: int, k: int) -> int:
    """Number of projective message representatives, (q^k - 1)/(q - 1)."""
    return (q ** k - 1) // (q - 1)


def _span_table(add_t, mul_t, rows):
    """All q^s combinations of the s >= 0 given rows (a numpy array) as an
    n x q^s table, one contiguous row per position, built in s broadcast steps.

    Column sum_u c_u q^u is sum_u c_u rows[s-1-u], so the first q^t columns
    are the span of the last t rows."""
    import numpy as np
    q, n = add_t.shape[0], rows.shape[1]
    table = (mul_t[:, rows[-1]].T.copy() if len(rows)     # c * last row
             else np.zeros((n, 1), dtype=add_t.dtype))
    for row in rows[-2::-1]:                    # flat index (c * row) * q + entry
        scaled = mul_t[:, row].T.astype(np.min_scalar_type(q * q - 1)) * q
        table = np.take(add_t, scaled[:, :, None] + table[:, None, :]).reshape(n, -1)
    return table


def check_table_budget(q: int, n: int) -> None:
    """Raise BudgetExceeded unless the distance search can build its tables
    for a length-n code over F_q: fields above gf.MAX_TABLE_ORDER have no
    operation tables, and one row's q multiples take q * n entries, at most
    MAX_ROW_TABLE_CELLS."""
    if q > gf.MAX_TABLE_ORDER:
        raise BudgetExceeded(f"operation tables not built for q = {q} > "
                             f"{gf.MAX_TABLE_ORDER}")
    if q * n > MAX_ROW_TABLE_CELLS:
        raise BudgetExceeded(f"a span table of q * n = {q * n} entries exceeds "
                             f"{MAX_ROW_TABLE_CELLS}")


def check_distance_budget(q: int, n: int, k: int, budget: int) -> None:
    """Raise BudgetExceeded unless the distance search of a length-n code of
    dimension k over F_q enumerates at most budget messages and can build its
    tables (check_table_budget): all decided from q, n and k."""
    total = enumeration_size(q, k)
    if total > budget:
        raise BudgetExceeded(
            f"enumeration needs {int_text(total, 'messages')}, budget is {budget}")
    check_table_budget(q, n)


def exact_min_distance(code: LinearCode,
                       budget: int = DEFAULT_DISTANCE_BUDGET) -> int:
    """Exact minimum Hamming weight over nonzero codewords.

    Enumerates projective message representatives (first nonzero message
    coordinate fixed to 1) since scaling a message scales the codeword and
    preserves its weight.  Table L (n x q^s) holds all combinations of the
    last s generator rows, s as large as q^s * n <= MAX_KERNEL_CELLS / 4
    allows (at least 1); the messages inside L are its nonzero columns,
    weighed in one count.  Any other message has a leading index r < k - s
    and a head h: row r, plus a combination of any free rows above the table
    of the last t free rows (q^t * n <= MAX_KERNEL_CELLS), plus a column of
    that table.  The heads of consecutive leading indices fill shared
    batches whose one comparison with L takes at most MAX_KERNEL_CELLS cells
    (or one head): wt(h - x) is n minus the positions where x == h, summed
    in the narrowest dtype that holds n.  The search stops at the first
    codeword of weight <= 1.  check_table_budget refuses a code whose tables
    would be over budget before any table is built.
    """
    if code.k == 0:
        raise Precondition("zero code has no minimum distance")
    q, n, k = code.field.q, code.n, code.k
    check_distance_budget(q, n, k, budget)
    import numpy as np
    add_t, mul_t = code.field.numpy_tables()
    gen = np.array(code.generator, dtype=add_t.dtype)
    s = 1
    while s + 1 < k and q ** (s + 1) * n <= MAX_KERNEL_CELLS >> 2:
        s += 1
    t = 0
    while t + 1 < k - s and q ** (t + 1) * n <= MAX_KERNEL_CELLS:
        t += 1
    low = _span_table(add_t, mul_t, gen[k - s:])
    count = np.min_scalar_type(n)
    # projective messages inside L: first L coefficient 0 or 1
    zeros = (low[:, 1:2 * q ** (s - 1)] == 0).view(np.uint8).sum(axis=0, dtype=count)
    best = n - int(zeros.max())
    if best <= 1:
        return best
    span = _span_table(add_t, mul_t, gen[k - s - t:k - s]).T   # one tail per row
    buf, filled = np.empty((max(1, MAX_KERNEL_CELLS // low.size), n), gen.dtype), 0
    for r in range(k - s):
        for digits in itertools.product(range(q), repeat=max(0, k - s - t - 1 - r)):
            vec = gen[r]
            for digit, row in zip(digits, gen[r + 1:k - s - t]):  # rows above the table
                vec = add_t[vec, mul_t[digit, row]]
            heads = add_t[vec, span[:q ** min(t, k - s - 1 - r)]]
            while len(heads):
                m = min(len(buf) - filled, len(heads))
                buf[filled:filled + m], heads = heads[:m], heads[m:]
                filled += m
                # a full batch, or the last head (leading index k-s-1 has one)
                if filled == len(buf) or r == k - s - 1:
                    agree = (buf[:filled, :, None] == low).view(np.uint8).sum(
                        axis=1, dtype=count)
                    best, filled = min(best, n - int(agree.max())), 0
                    if best <= 1:
                        return best
    return best


# ---------------------------------------------------------------------------
# Rational-point locus of the Frobenius difference forms
# ---------------------------------------------------------------------------

def _locus_survivors(ell: int, q: int, m: int, budget: int
                     ) -> tuple[set, set]:
    """Survivor set of the Frobenius-difference forms in P^ell(F_{q^m}) and
    the embedded P^ell(F_q), both as canonical-representative sets."""
    ext, emb = gf.extension_field(gf.field_from_order(q), m)
    if ell < 0:
        raise Precondition(f"ell must be >= 0, got {int_text(ell)}")
    # P^ell has at least Q^ell >= 2^(ell * (bits(Q) - 1)) points, so that
    # exponent decides a long ell before any power is formed
    if (ell * (ext.q.bit_length() - 1) >= budget.bit_length()
            or (ext.q ** (ell + 1) - 1) // (ext.q - 1) > budget):
        raise BudgetExceeded(f"P^{int_text(ell)}(F_{ext.q}) has more points than "
                             f"the budget of {int_text(budget)}")
    subfield = set(emb)
    survivors = {pt for pt in _projective_points(ext.elements(), ell)
                 if all(ext.mul(ext.pow(pt[i], q), pt[j])
                        == ext.mul(pt[i], ext.pow(pt[j], q))
                        for i in range(ell + 1) for j in range(i + 1, ell + 1))}
    expected = {pt for pt in _projective_points(ext.elements(), ell)
                if all(c in subfield for c in pt)}
    return survivors, expected


def rational_locus_check(ell: int, q: int, m: int,
                         budget: int = DEFAULT_DISTANCE_BUDGET) -> bool:
    """True iff the common zero locus in P^ell(F_{q^m}) of the forms
    x_i^q x_j - x_i x_j^q (0 <= i < j <= ell) is exactly P^ell(F_q)."""
    survivors, expected = _locus_survivors(ell, q, m, budget)
    return survivors == expected

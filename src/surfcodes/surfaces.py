"""Numerical surface models: Neron-Severi lattices with intersection form,
canonical class, Euler characteristics, and positivity predicates.

Every bound computed downstream consumes only intersection numbers, chi(O),
and point counts, so a surface here is a small catalog entry rather than a
scheme:

* ``P2``            basis (L),      gram [[1]],            K = -3L
* ``P1xP1``         basis (H, V),   gram [[0,1],[1,0]],    K = -2H - 2V
* ``Hirzebruch(e)`` basis (F, S),   gram [[0,1],[1,-e]],   K = -(e+2)F - 2S
* ``CurveProduct``  basis (FC, FD), gram [[0,1],[1,0]],    K = (2gD-2)FC + (2gC-2)FD

The quadric is F_0 with H = F and V = S, so the F_e formulas serve it at
e = 0 (hirzebruch_e).  A ``CurveProduct`` carries caller-supplied point
counts N_C, N_D; it supports bound computations only, not code construction.
"""

from __future__ import annotations

from .errors import InvariantError, Precondition, int_text, ints_text
from .records import Record

P2 = "P2"
P1XP1 = "P1xP1"
HIRZEBRUCH = "Hirzebruch"
CURVE_PRODUCT = "CurveProduct"


class SurfaceModel(Record):
    __slots__ = ("kind", "params", "gram", "canonical_coords", "chi_o", "chi_et")

    @property
    def ns_rank(self) -> int:
        return len(self.gram)

    @property
    def canonical(self) -> "DivisorClass":
        return DivisorClass(self, self.canonical_coords)

    def divisor(self, *coords: int) -> "DivisorClass":
        return DivisorClass(self, tuple(int(c) for c in coords))

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": list(self.params),
            "gram": [list(r) for r in self.gram],
            "canonical": list(self.canonical_coords),
            "chi_O": self.chi_o,
            "chi_et": self.chi_et,
        }

    def __repr__(self) -> str:
        if self.params:
            return f"SurfaceModel({self.kind}{self.params})"
        return f"SurfaceModel({self.kind})"


class DivisorClass(Record):
    __slots__ = ("surface", "coords")

    def _check(self):
        if len(self.coords) != self.surface.ns_rank:
            raise Precondition(
                f"divisor needs {self.surface.ns_rank} coordinates, got {len(self.coords)}")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        _same_surface(self, other)
        return DivisorClass(self.surface,
                            tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        _same_surface(self, other)
        return DivisorClass(self.surface,
                            tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.surface, tuple(-a for a in self.coords))

    def __rmul__(self, c: int) -> "DivisorClass":
        return DivisorClass(self.surface, tuple(c * a for a in self.coords))

    __mul__ = __rmul__

    def __repr__(self) -> str:
        return f"DivisorClass{self.coords}"


def _same_surface(d: DivisorClass, e: DivisorClass) -> None:
    if d.surface != e.surface:
        raise Precondition("divisor classes live on different surfaces")


def projective_plane() -> SurfaceModel:
    return SurfaceModel(P2, (), ((1,),), (-3,), 1, 3)


def quadric_p1xp1() -> SurfaceModel:
    return SurfaceModel(P1XP1, (), ((0, 1), (1, 0)), (-2, -2), 1, 4)


def hirzebruch(e: int) -> SurfaceModel:
    if e < 0:
        raise Precondition(f"Hirzebruch parameter e must be >= 0, got {int_text(e)}")
    return SurfaceModel(HIRZEBRUCH, (e,), ((0, 1), (1, -e)), (-(e + 2), -2), 1, 4)


def hirzebruch_e(surface: SurfaceModel) -> int | None:
    """e of the surface as F_e: 0 on the quadric, None if it is no F_e."""
    if surface.kind == HIRZEBRUCH:
        return surface.params[0]
    return 0 if surface.kind == P1XP1 else None


def curve_product(g_c: int, g_d: int, n_c: int, n_d: int) -> SurfaceModel:
    if g_c < 0 or g_d < 0:
        raise Precondition("genera must be >= 0")
    if n_c < 0 or n_d < 0:
        raise Precondition("point counts must be >= 0")
    chi_o = (g_c - 1) * (g_d - 1)
    chi_et = (2 - 2 * g_c) * (2 - 2 * g_d)
    return SurfaceModel(CURVE_PRODUCT, (g_c, g_d, n_c, n_d), ((0, 1), (1, 0)),
                        (2 * g_d - 2, 2 * g_c - 2), chi_o, chi_et)


def surface_from_json(d: dict) -> SurfaceModel:
    kind, params = d["kind"], d.get("params", [])
    if kind == P2:
        return projective_plane()
    if kind == P1XP1:
        return quadric_p1xp1()
    if kind == HIRZEBRUCH:
        return hirzebruch(int(params[0]))
    if kind == CURVE_PRODUCT:
        return curve_product(*[int(x) for x in params])
    raise Precondition(f"unknown surface kind {kind!r}")


def intersect(d: DivisorClass, e: DivisorClass) -> int:
    """Intersection number D.E via the surface's Gram matrix."""
    _same_surface(d, e)
    g = d.surface.gram
    return sum(d.coords[i] * g[i][j] * e.coords[j]
               for i in range(len(g)) for j in range(len(g)))


class AmpleFlags(Record):
    """very_ample is None when the catalog provides no criterion (CurveProduct)."""
    __slots__ = ("ample", "very_ample", "base_point_free")


def ampleness_flags(surface: SurfaceModel, d: DivisorClass) -> AmpleFlags:
    """Coordinate criteria for ample / very ample / base-point-free.

    On Hirzebruch surfaces the strict very-ampleness criterion u >= e*v + 1
    is used; base-point-freeness only needs u >= e*v.  For a product of
    curves the degrees pair with the opposite factor's genus: a*FC + b*FD is
    base point free once a >= 2*gD and b >= 2*gC, and very-ampleness is left
    undecided (None).
    """
    if d.surface != surface:
        raise Precondition("divisor is not on this surface")
    if surface.kind == P2:
        (deg,) = d.coords
        va = deg >= 1
        return AmpleFlags(va, va, deg >= 0)
    e = hirzebruch_e(surface)
    if e is not None:
        u, v = d.coords
        va = v >= 1 and u >= e * v + 1
        bpf = v >= 0 and u >= e * v
        return AmpleFlags(va, va, bpf)
    if surface.kind == CURVE_PRODUCT:
        g_c, g_d, _, _ = surface.params
        a, b = d.coords
        ample = a >= 1 and b >= 1
        bpf = a >= 2 * g_d and b >= 2 * g_c
        return AmpleFlags(ample, None if ample else False, bpf)
    raise Precondition(f"unsupported surface kind {surface.kind!r}")


def riemann_roch_lower(surface: SurfaceModel, g: DivisorClass,
                       h: DivisorClass) -> int:
    """Lower bound (1/2) G.(G - K) + chi(O) for h^0(G), valid once an ample H
    with G.H > K.H certifies the vanishing of h^2."""
    flags = ampleness_flags(surface, h)
    if not flags.ample:
        raise Precondition(f"H = {ints_text(h.coords)} is not ample")
    k = surface.canonical
    if intersect(g, h) <= intersect(k, h):
        raise Precondition(f"G.H = {int_text(intersect(g, h))} must exceed "
                           f"K.H = {int_text(intersect(k, h))}")
    prod = intersect(g, g - k)
    if prod % 2 != 0:
        raise InvariantError("G.(G-K) must be even on a smooth surface")
    return prod // 2 + surface.chi_o


def point_count(surface: SurfaceModel, q: int) -> int:
    if surface.kind == P2:
        return q * q + q + 1
    if hirzebruch_e(surface) is not None:
        return (q + 1) ** 2
    if surface.kind == CURVE_PRODUCT:
        _, _, n_c, n_d = surface.params
        return n_c * n_d
    raise Precondition(f"unsupported surface kind {surface.kind!r}")


def noether_identity(surface: SurfaceModel) -> bool:
    """12 chi(O) = K^2 + chi_et; holds for every catalog instance."""
    k = surface.canonical
    return 12 * surface.chi_o == intersect(k, k) + surface.chi_et

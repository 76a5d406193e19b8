"""Minimum-distance and dimension bounds over intersection numbers.

The central lower bound is the interpolating one: if a linear system Gamma
has a nonempty subsystem vanishing on the evaluation set P with
zero-dimensional base locus, then d >= n - Gamma.G.  The class (q+1)L for a
very ample L always qualifies, and qL does when P sits inside an affine chart
avoiding a member of |L|.  Alongside it this module computes the classical
alternatives (Aubry; Hansen's auxiliary-curve and Seshadri-constant bounds),
reports them jointly with applicability reasons, and lifts interpolating
reports along finite covers in which the evaluation set splits totally.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import floor
from typing import Optional, Sequence

from . import codes as cd
from . import surfaces as sf
from .errors import BudgetExceeded, Precondition, int_text, ints_text, ratio_text
from .records import Record


# ---------------------------------------------------------------------------
# Individual bounds
# ---------------------------------------------------------------------------

def _require_very_ample(surface: sf.SurfaceModel, d: sf.DivisorClass,
                        name: str, where: str = "") -> None:
    """Refuse d unless the catalog decides it very ample; the message reads
    "<name> = <coords> is undecided" or "... is not very ample", then where."""
    flags = sf.ampleness_flags(surface, d)
    if flags.very_ample is not True:
        state = "undecided" if flags.very_ample is None else "not very ample"
        raise Precondition(f"{name} = {ints_text(d.coords)} is {state}{where}")


def universal_gamma(surface: sf.SurfaceModel, l: sf.DivisorClass, q: int,
                    affine_chart: bool = False) -> sf.DivisorClass:
    """(q+1)L, or qL when the caller asserts the evaluation set avoids a
    member of |L| (affine chart); L must be very ample."""
    _require_very_ample(surface, l, "L", f" on {surface.kind}")
    return (q if affine_chart else q + 1) * l


def interpolating_bound(n: int, gamma: sf.DivisorClass, g: sf.DivisorClass) -> int:
    """d >= n - Gamma.G for an interpolating system Gamma."""
    return n - sf.intersect(gamma, g)


def gamma_square_check(gamma: sf.DivisorClass, n: int) -> bool:
    """Necessary condition Gamma^2 >= n for Gamma to interpolate n points."""
    return sf.intersect(gamma, gamma) >= n


def aubry_bound(n: int, q: int, d: sf.DivisorClass) -> int:
    """d >= n - (q+1) D^2 for a very ample D."""
    _require_very_ample(d.surface, d, "D")
    return n - (q + 1) * sf.intersect(d, d)


def hansen_curve_bound(n: int, l_contained: int, point_cap: int,
                       lc_list: Sequence[int]) -> int:
    """Auxiliary-curve bound n - l*N - sum(L.C_i) where the curves C_i cover
    the evaluation set, each has at most N rational points, and at most l of
    them fit inside the zero set of a single section."""
    if any(v < 0 for v in lc_list):
        raise Precondition("all L.C_i must be >= 0")
    return n - l_contained * point_cap - sum(lc_list)


def hansen_curve_bound_uniform(n: int, l_contained: int, point_cap: int,
                               eta: int, num_curves: int) -> int:
    """Sharper form when L.C_i = eta <= N for every curve:
    n - l*N - (a - l)*eta."""
    if eta < 0:
        raise Precondition("eta must be >= 0")
    if eta > point_cap:
        raise Precondition(f"eta = {int_text(eta)} exceeds the point cap "
                           f"{int_text(point_cap)}")
    return n - l_contained * point_cap - (num_curves - l_contained) * eta


def hansen_seshadri_bound(n: int, l_sq: int, *,
                          epsilon: Optional[Fraction] = None,
                          xi: Optional[int] = None) -> int:
    """Seshadri family: floor(n - L^2/epsilon) with a caller-supplied lower
    bound epsilon on the Seshadri constant, or n - xi*L^2 when L^xi twisted
    by the point ideal is globally generated.  Exactly one of epsilon/xi."""
    if (epsilon is None) == (xi is None):
        raise Precondition("pass exactly one of epsilon (S1) or xi (S2)")
    if epsilon is not None:
        eps = Fraction(epsilon)
        if eps <= 0:
            raise Precondition(f"epsilon must be positive, got {ratio_text(epsilon)}")
        return floor(n - Fraction(l_sq) / eps)
    if xi < 1:
        raise Precondition(f"xi must be >= 1, got {int_text(xi)}")
    return n - xi * l_sq


def seshadri_upper(gamma_dot_g: int, n: int) -> Fraction:
    """Gamma.G / n, an upper bound for the Seshadri constant at the
    evaluation set whenever Gamma interpolates it."""
    if n < 1:
        raise Precondition("n must be >= 1")
    return Fraction(gamma_dot_g, n)


def product_grid_bound(n: int, alpha: int, beta: int, a: int, b: int) -> int:
    """Grid of alpha x beta points on a product of curves, section bidegree
    (a, b): d >= n - alpha*b - beta*a (fiber-class pairing)."""
    return n - alpha * b - beta * a


def hirzebruch_grid_bound(a: int, b: int, e: int, u: int, v: int) -> int:
    """Grid of a x b affine points on the Hirzebruch surface with parameter e,
    divisor (u, v): d >= ab - (a + b*e)*v - u*b + e*b*v."""
    return a * b - (a + b * e) * v - u * b + e * b * v


# ---------------------------------------------------------------------------
# Joint reports
# ---------------------------------------------------------------------------

class BoundEntry(Record):
    __slots__ = ("name", "value", "applicable", "reason")

    def to_json_dict(self) -> dict:
        return {"name": self.name, "value": self.value,
                "applicable": self.applicable, "reason": self.reason}


class BoundReport(Record):
    __slots__ = ("n", "k_lower", "entries", "exact")     # exact {"k": int, "d": int}
    _defaults = {"entries": None, "exact": None}

    def _check(self):
        if self.entries is None:        # a fresh list, shared with no other report
            object.__setattr__(self, "entries", [])

    def entry(self, name: str) -> Optional[BoundEntry]:
        return next((e for e in self.entries if e.name == name), None)

    def defect(self) -> Optional[int]:
        inter = self.entry("interpolating")
        if self.exact and inter and inter.applicable:
            return self.exact["d"] - inter.value
        return None

    def to_json_dict(self) -> dict:
        d = {
            "n": self.n,
            "k_lower": self.k_lower if self.k_lower is not None else "n/a",
            "entries": [e.to_json_dict() for e in self.entries],
            "exact": self.exact,
        }
        defect = self.defect()
        if defect is not None:
            d["defect"] = defect
        return d


def _default_very_ample(surface: sf.SurfaceModel) -> Optional[sf.DivisorClass]:
    if surface.kind == sf.P2:
        return surface.divisor(1)
    e = sf.hirzebruch_e(surface)
    return None if e is None else surface.divisor(e + 1, 1)


def _find_ample_h(surface: sf.SurfaceModel,
                  g: sf.DivisorClass) -> Optional[sf.DivisorClass]:
    # heuristic scan of the box 1..10 in each coordinate, sufficient for the
    # catalog: every catalog ample class has positive coordinates
    k = surface.canonical
    for coords in itertools.product(range(1, 11), repeat=surface.ns_rank):
        h = surface.divisor(*coords)
        if sf.ampleness_flags(surface, h).ample and \
                sf.intersect(g, h) > sf.intersect(k, h):
            return h
    return None


def parameter_report(surface: sf.SurfaceModel, g: sf.DivisorClass, q: int, *,
                     gamma: str = "universal",
                     tag: str = "all",
                     grid: Optional[tuple[Sequence[int], Sequence[int]]] = None,
                     exact_budget: Optional[int] = None,
                     epsilon: Optional[Fraction] = None,
                     xi: Optional[int] = None) -> BoundReport:
    """Assemble every applicable bound for the code on `surface` with divisor
    `g` and evaluation set selected by `tag`.

    Inapplicable bounds are reported with reasons, never raised.  gamma is
    "universal" ((q+1)L) or "universal-affine" (qL, caller asserting the
    point set avoids a member of |L|), with L the catalog's very ample class
    for the surface.  Seshadri data (epsilon, xi) is caller-supplied.  With
    exact_budget set, the exact (k, d) is attached when the code fits every
    budget; the operation-table budget is checked before the code is built,
    and any budget refusal leaves exact as None.
    """
    if tag == "grid":
        a_sz, b_sz = (len(side) for side in cd.grid_sides(surface, q, grid))
        n = a_sz * b_sz
    else:
        n = sf.point_count(surface, q)
    entries, k_lower, exact = [], None, None

    # interpolating bound
    l = _default_very_ample(surface)
    if l is None:
        entries.append(BoundEntry(
            "interpolating", None, False,
            "no very ample class known in the catalog for this surface"))
    else:
        affine = gamma == "universal-affine"
        gamma_div = universal_gamma(surface, l, q, affine)
        gdotg = sf.intersect(gamma_div, g)
        entries.append(BoundEntry(
            "interpolating", interpolating_bound(n, gamma_div, g), True,
            f"Gamma = {'q' if affine else '(q+1)'}L with L = {ints_text(l.coords)}"
            + ("; caller asserts the point set avoids a member of |L|"
               if affine else "")
            + f"; Gamma.G = {int_text(gdotg)}; Gamma^2 = "
            f"{int_text(sf.intersect(gamma_div, gamma_div))} >= n is "
            f"{gamma_square_check(gamma_div, n)}"))

    # Aubry
    try:
        entries.append(BoundEntry("aubry", aubry_bound(n, q, g), True,
                                  f"G = {ints_text(g.coords)} is very ample"))
    except Precondition as exc:       # G is not very ample
        entries.append(BoundEntry("aubry", None, False, str(exc)))

    # Hansen (S), caller-supplied data only
    l_sq = sf.intersect(g, g)
    for name, data, reason in (
            ("hansen_S1", {"epsilon": epsilon},
             f"caller-supplied Seshadri lower bound epsilon = {ratio_text(epsilon)}"),
            ("hansen_S2", {"xi": xi}, f"caller-supplied xi = {ratio_text(xi)}")):
        if None in data.values():
            continue
        try:
            entries.append(BoundEntry(
                name, hansen_seshadri_bound(n, l_sq, **data), True, reason))
        except Precondition as exc:   # epsilon <= 0 or xi < 1
            entries.append(BoundEntry(name, None, False, str(exc)))

    # grid-specific bound
    if tag == "grid":                 # grid_sides admits F_e and the quadric only
        e = sf.hirzebruch_e(surface)
        entries.append(BoundEntry(
            "grid", hirzebruch_grid_bound(a_sz, b_sz, e, *g.coords), True,
            f"affine {a_sz}x{b_sz} grid on Hirzebruch({int_text(e)})"
            if surface.kind == sf.HIRZEBRUCH else f"{a_sz}x{b_sz} grid on the quadric"))

    # dimension lower bound: needs injectivity (n > Gamma.G) and an ample H
    if l is not None and n > gdotg:
        h = _find_ample_h(surface, g)
        if h is not None:
            k_lower = sf.riemann_roch_lower(surface, g, h)
    # exact parameters
    if exact_budget and surface.kind in (sf.P2, sf.P1XP1, sf.HIRZEBRUCH):
        try:
            cd.section_count(surface, g)    # an empty system stays an error
            cd.check_table_budget(q, n)
            code = cd.build_code(surface, g, q, tag, grid)
            d_exact = cd.exact_min_distance(code, exact_budget)
            exact = {"k": code.k, "d": d_exact}
        except BudgetExceeded:      # exact stays None
            pass
    return BoundReport(n, k_lower, entries, exact)


def lifted_bound(report: BoundReport, deg: int) -> BoundReport:
    """Transport a report along a degree-`deg` finite cover in which the
    evaluation set splits totally: n and Gamma.G both scale by deg, so the
    interpolating value scales by deg and the relative bound is unchanged.
    The other entries do not transport from base data alone."""
    if deg < 1:
        raise Precondition(f"degree must be >= 1, got {int_text(deg)}")
    inter = report.entry("interpolating")
    if inter is None or not inter.applicable:
        raise Precondition("report carries no applicable interpolating bound to lift")
    entries = []
    for e in report.entries:
        if e.name == "interpolating":
            entries.append(BoundEntry(
                "interpolating", deg * e.value, True,
                f"pullback along a degree-{int_text(deg)} totally split cover; "
                f"relative bound {ratio_text(Fraction(e.value, report.n))} preserved"))
        elif e.name == "aubry":
            entries.append(BoundEntry(
                "aubry", None, False,
                "not liftable from base data: very ampleness of the pullback "
                "must be asserted at every level"))
        elif e.name in ("hansen_S1", "hansen_S2"):
            entries.append(BoundEntry(
                e.name, None, False,
                "liftable with caller inputs: Seshadri constants/global "
                "generation transport along unramified covers"))
        else:
            entries.append(BoundEntry(e.name, None, False, "not liftable from base data"))
    return BoundReport(deg * report.n, None, entries)

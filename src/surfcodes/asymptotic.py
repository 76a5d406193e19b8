"""Exact rational arithmetic on the asymptotic domain of surface invariants
(kappa, chi) and its affine maps into the code-parameter domain (delta, R).

kappa is the limit of K^2 over the number of rational points along a family,
chi the limit of chi(O) over the same count.  The domain itself is poorly
understood; this module implements only its proven outer constraints
(kappa >= 1/(q+1)^2 and chi <= kappa/2) and the maps

    phi_g(kappa, chi) = (1 - g(q+1) kappa,  g(g-1)/2 kappa + chi),

which are relevant for 2 <= g <= q.  All comparisons close over Fraction;
square-root comparisons are decided by algebraic rearrangement and squaring
with sign tracking, never with floats.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .codes import BudgetExceeded
from .gf import InvariantError

RationalLike = Union[Fraction, int, str]

INF = math.inf
# each diagram sample keeps its image point for the SVG, about 0.3 KiB, and
# about 0.5 KiB while the SVG is drawn; CSV rows are written as computed
MAX_DIAGRAM_SAMPLES = 250_000


class GOutOfRange(ValueError):
    pass


class InfiniteInput(ValueError):
    pass


class InvalidGenus(ValueError):
    pass


@dataclass(frozen=True)
class AsymptoticPoint:
    """A (kappa, chi) pair; finite parts are reduced fractions, infinity is
    represented by math.inf."""
    kappa: Union[Fraction, float]
    chi: Union[Fraction, float]

    def __post_init__(self):
        for name, v in (("kappa", self.kappa), ("chi", self.chi)):
            if isinstance(v, float):
                if v != INF:
                    raise ValueError(f"{name} must be a Fraction or +inf")
            elif not isinstance(v, Fraction):
                object.__setattr__(self, name, Fraction(v))
        if self.is_finite and self.kappa < 0:
            raise ValueError("kappa must be >= 0")

    @property
    def is_finite(self) -> bool:
        return isinstance(self.kappa, Fraction) and isinstance(self.chi, Fraction)


@dataclass(frozen=True)
class CodePoint:
    delta: Fraction
    r: Fraction


def asym_point(kappa: RationalLike, chi: RationalLike) -> AsymptoticPoint:
    return AsymptoticPoint(Fraction(kappa), Fraction(chi))


def phi_g(q: int, g: int, pt: AsymptoticPoint) -> CodePoint:
    """The affine map into the code domain; relevant range 2 <= g <= q."""
    if not 2 <= g <= q:
        raise GOutOfRange(f"need 2 <= g <= q, got g = {g}, q = {q}")
    if not pt.is_finite:
        raise InfiniteInput("phi_g needs finite coordinates")
    delta = 1 - g * (q + 1) * pt.kappa
    r = Fraction(g * (g - 1), 2) * pt.kappa + pt.chi
    return CodePoint(delta, r)


def domain_membership(q: int, pt: AsymptoticPoint) -> dict:
    """Exact checks of the two proven outer constraints."""
    if not pt.is_finite:
        raise InfiniteInput("membership checks need finite coordinates")
    return {
        "kappa_lb_ok": pt.kappa >= Fraction(1, (q + 1) ** 2),
        "chi_ub_ok": pt.chi <= pt.kappa / 2,
    }


def code_bound_checks(q: int, cp: CodePoint) -> dict:
    """Singleton (R + delta <= 1) and Plotkin (R <= 1 - q delta/(q-1))."""
    return {
        "singleton_ok": cp.r + cp.delta <= 1,
        "plotkin_ok": cp.r <= 1 - Fraction(q, q - 1) * cp.delta,
    }


def polygon_image(q: int, g: int) -> dict:
    """The reference polygon A1 B1 C1 D1 in the (kappa, chi) plane and its
    image A2 B2 C2 D2 under phi_g, all as exact rationals.

    The images are computed through phi_g and verified against their closed
    forms, e.g. A2 = (1 - g/(q+1), (g^2-g)/(2(q+1)^2)).
    """
    if not 2 <= g <= q:
        raise GOutOfRange(f"need 2 <= g <= q, got g = {g}, q = {q}")
    qq = (q + 1) ** 2
    gq = g * (q + 1)
    corners = {
        "A1": asym_point(Fraction(1, qq), 0),
        "B1": asym_point(Fraction(1, gq), 0),
        "C1": asym_point(Fraction(1, gq), Fraction(1, 2 * gq)),
        "D1": asym_point(Fraction(1, qq), Fraction(1, 2 * qq)),
    }
    closed = {
        "A2": CodePoint(1 - Fraction(g, q + 1), Fraction(g * g - g, 2 * qq)),
        "B2": CodePoint(Fraction(0), Fraction(g * g - g, 2 * gq)),
        "C2": CodePoint(Fraction(0), Fraction(g * g - g + 1, 2 * gq)),
        "D2": CodePoint(1 - Fraction(g, q + 1), Fraction(g * g - g + 1, 2 * qq)),
    }
    out: dict = dict(corners)
    for name1, name2 in (("A1", "A2"), ("B1", "B2"), ("C1", "C2"), ("D1", "D2")):
        img = phi_g(q, g, corners[name1])
        if img != closed[name2]:
            raise InvariantError(f"{name2} disagrees with its closed form")
        out[name2] = img
    return out


def product_curve_point(q: int, g1: int, g2: int, n1: int, n2: int) -> dict:
    """The (kappa, chi) point of a product of two curves of genera g1, g2
    with N1, N2 rational points: kappa = 8 (g1-1)(g2-1) / (N1 N2) and
    chi = kappa / 8 identically.

    dv_floor_ok decides kappa >= 8/(sqrt(q) - 1)^2 exactly: with
    L = kappa (q+1) - 8 the inequality reads L >= 2 kappa sqrt(q), which is
    false for L < 0 and otherwise equivalent to L^2 >= 4 kappa^2 q.
    """
    if g1 < 3 or g2 < 3:
        raise InvalidGenus("the product construction assumes genera >= 3")
    if n1 < 1 or n2 < 1:
        raise ValueError("point counts must be >= 1")
    kappa = Fraction(8 * (g1 - 1) * (g2 - 1), n1 * n2)
    chi = kappa / 8
    lhs = kappa * (q + 1) - 8
    dv_floor_ok = lhs >= 0 and lhs * lhs >= 4 * kappa * kappa * q
    return {"pt": AsymptoticPoint(kappa, chi), "dv_floor_ok": dv_floor_ok}


# ---------------------------------------------------------------------------
# Diagram emission
# ---------------------------------------------------------------------------

DIAGRAM_HEADER = ("kappa", "chi", "delta", "R",
                  "in_domain", "singleton_ok", "plotkin_ok")


def emit_diagram(q: int, g: int, grid_n: int, path: str,
                 svg_path: Optional[str] = None) -> None:
    """CSV sampling of the rectangle [0, 2/(g(q+1))] x [0, 1/(g(q+1))] on a
    grid_n x grid_n lattice, followed by the four reference-polygon corner
    rows (exact).  Rationals are serialized as num/den strings, flags as
    true/false.  Optionally renders an SVG of the image domain.  More than
    MAX_DIAGRAM_SAMPLES grid samples raise BudgetExceeded before any sample
    is built or any file written."""
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    if grid_n * grid_n > MAX_DIAGRAM_SAMPLES:
        raise BudgetExceeded(f"{grid_n}^2 diagram samples exceed {MAX_DIAGRAM_SAMPLES}")
    kmax = Fraction(2, g * (q + 1))
    cmax = Fraction(1, g * (q + 1))
    poly = polygon_image(q, g)
    samples = itertools.chain(
        (asym_point(kmax * i / (grid_n - 1), cmax * j / (grid_n - 1))
         for i in range(grid_n) for j in range(grid_n)),
        (poly[name] for name in ("A1", "B1", "C1", "D1")))
    image_pts = []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DIAGRAM_HEADER)
        for pt in samples:
            member = domain_membership(q, pt)
            cp = phi_g(q, g, pt)
            checks = code_bound_checks(q, cp)
            in_domain = member["kappa_lb_ok"] and member["chi_ub_ok"]
            writer.writerow((str(pt.kappa), str(pt.chi), str(cp.delta), str(cp.r),
                             str(in_domain).lower(),
                             str(checks["singleton_ok"]).lower(),
                             str(checks["plotkin_ok"]).lower()))
            image_pts.append((cp, in_domain))
    if svg_path:
        _write_svg(q, g, poly, image_pts, svg_path)


def _write_svg(q: int, g: int, poly: dict, image_pts, svg_path: str) -> None:
    # (delta, R) unit square with the Plotkin and Singleton lines, the image
    # polygon A2 B2 C2 D2, and the sampled image points.
    width = height = 440
    pad = 40

    def xy(cp: CodePoint):
        return (pad + float(cp.delta) * (width - 2 * pad),
                height - pad - float(cp.r) * (height - 2 * pad))

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
             f'height="{height - 2 * pad}" fill="none" stroke="black"/>']
    sx, sy = xy(CodePoint(Fraction(0), Fraction(1)))
    ex, ey = xy(CodePoint(Fraction(1), Fraction(0)))
    parts.append(f'<line x1="{sx}" y1="{sy}" x2="{ex}" y2="{ey}" '
                 'stroke="gray" stroke-dasharray="6,3"/>')
    px, py = xy(CodePoint(Fraction(q - 1, q), Fraction(0)))
    parts.append(f'<line x1="{sx}" y1="{sy}" x2="{px}" y2="{py}" '
                 'stroke="gray"/>')
    corner_pts = " ".join(f"{xy(poly[n])[0]},{xy(poly[n])[1]}"
                          for n in ("A2", "B2", "C2", "D2"))
    parts.append(f'<polygon points="{corner_pts}" fill="silver" '
                 'fill-opacity="0.4" stroke="black"/>')
    for cp, in_domain in image_pts:
        x, y = xy(cp)
        color = "black" if in_domain else "lightgray"
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="{color}"/>')
    parts.append("</svg>")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def rational_to_json(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"

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

import contextlib
import csv
import itertools
import math
import os
from fractions import Fraction
from typing import Optional, Union

from .errors import BudgetExceeded, InvariantError, Precondition, check_printable, int_text
from .records import Record

RationalLike = Union[Fraction, int, str]

# each sample is written as soon as it is computed, so memory stays flat in
# the grid; the budget bounds the running time
MAX_DIAGRAM_SAMPLES = 250_000


def rational_to_json(x: Fraction, name: str) -> str:
    check_printable(name, x.numerator, x.denominator)
    return f"{x.numerator}/{x.denominator}"


class AsymptoticPoint(Record):
    """A (kappa, chi) pair of exact rationals with kappa >= 0."""
    __slots__ = ("kappa", "chi")

    def _check(self):
        for name, v in (("kappa", self.kappa), ("chi", self.chi)):
            if isinstance(v, float):
                raise Precondition(f"{name} must be exact, got the float {v}")
            if not isinstance(v, Fraction):
                object.__setattr__(self, name, Fraction(v))
        if self.kappa < 0:
            raise Precondition("kappa must be >= 0")

    def to_json_dict(self) -> dict:
        return {"kappa": rational_to_json(self.kappa, "kappa"),
                "chi": rational_to_json(self.chi, "chi")}


class CodePoint(Record):
    __slots__ = ("delta", "r")

    def to_json_dict(self) -> dict:
        return {"delta": rational_to_json(self.delta, "delta"),
                "R": rational_to_json(self.r, "R")}


def asym_point(kappa: RationalLike, chi: RationalLike) -> AsymptoticPoint:
    return AsymptoticPoint(kappa, chi)


def phi_g(q: int, g: int, pt: AsymptoticPoint) -> CodePoint:
    """The affine map into the code domain; relevant range 2 <= g <= q."""
    if not 2 <= g <= q:
        raise Precondition(f"need 2 <= g <= q, got g = {int_text(g)}, q = {int_text(q)}")
    delta = 1 - g * (q + 1) * pt.kappa
    r = Fraction(g * (g - 1), 2) * pt.kappa + pt.chi
    return CodePoint(delta, r)


def domain_membership(q: int, pt: AsymptoticPoint) -> dict:
    """Exact checks of the two proven outer constraints."""
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
        raise Precondition(f"need 2 <= g <= q, got g = {int_text(g)}, q = {int_text(q)}")
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
        raise Precondition("the product construction assumes genera >= 3")
    if n1 < 1 or n2 < 1:
        raise Precondition("point counts must be >= 1")
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
    rows (exact).  Rationals are serialized by str (num/den, integers bare),
    flags as true/false.  Optionally renders an SVG of the image domain, one
    point per sample.  Each sample is written as soon as it is computed.
    Every refusal comes before any file is opened: more than
    MAX_DIAGRAM_SAMPLES grid samples raise BudgetExceeded, and g outside
    2..q, a row integer too long to print or a CSV and SVG path naming the
    same file raise Precondition."""
    if grid_n < 2:
        raise Precondition(f"grid_n must be >= 2, got {int_text(grid_n)}")
    if grid_n * grid_n > MAX_DIAGRAM_SAMPLES:
        raise BudgetExceeded(f"{int_text(grid_n)}^2 diagram samples exceed "
                             f"{MAX_DIAGRAM_SAMPLES}")
    poly = polygon_image(q, g)          # checks 2 <= g <= q before dividing by g
    # the longest integers the rows print: chi = 1/(g(q+1)(grid_n-1)) at
    # j = 1 and D1's chi = 1/(2(q+1)^2); every other part is smaller
    check_printable("the diagram", g * (q + 1) * (grid_n - 1), 2 * (q + 1) ** 2)
    if svg_path and os.path.realpath(svg_path) == os.path.realpath(path):
        raise Precondition(f"the CSV and the SVG would both be written to {path!r}")
    corners = (_corner_row(q, poly[name1], poly[name2])
               for name1, name2 in (("A1", "A2"), ("B1", "B2"), ("C1", "C2"), ("D1", "D2")))
    with open(path, "w", encoding="utf-8", newline="") as fh, \
            (open(svg_path, "w", encoding="utf-8") if svg_path
             else contextlib.nullcontext()) as svg:
        writer = csv.writer(fh)
        writer.writerow(DIAGRAM_HEADER)
        if svg:
            svg.write(_svg_head(q, poly))
        for row, delta, r in itertools.chain(_grid_rows(q, g, grid_n), corners):
            writer.writerow(row)
            if svg:
                x, y = _svg_xy(delta, r)
                color = "black" if row[4] == "true" else "lightgray"
                svg.write(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="{color}"/>\n')
        if svg:
            svg.write("</svg>\n")


_FLAG = ("false", "true")


def _ratio(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, without building the Fraction."""
    d = math.gcd(num, den)
    return str(num // d) if d == den else f"{num // d}/{den // d}"


def _grid_rows(q: int, g: int, grid_n: int):
    """The grid samples as (CSV row, float delta, float R), on integer
    numerators over fixed denominators.  With n = grid_n - 1 and
    D = g(q+1)n the sample (i, j) is kappa = 2i/D and chi = j/D, so
    phi_g gives delta = (n - 2i)/n and R = (g(g-1)i + j)/D, and each check
    is an integer comparison: kappa >= 1/(q+1)^2 iff 2i(q+1) >= gn,
    chi <= kappa/2 iff j <= i, R + delta <= 1 iff D R <= 2i g(q+1), and
    R <= 1 - q delta/(q-1) iff (q-1) D R <= (q-1) D - q g(q+1) n delta.
    The floats divide the integer numerators, which rounds as float() of
    the Fraction does."""
    n = grid_n - 1
    gq = g * (q + 1)
    den = gq * n
    chis = [_ratio(j, den) for j in range(grid_n)]
    for i in range(grid_n):
        kappa = _ratio(2 * i, den)
        delta_num = n - 2 * i
        delta = _ratio(delta_num, n)
        delta_f = delta_num / n
        kappa_lb_ok = 2 * i * (q + 1) >= g * n
        singleton_max = 2 * i * gq
        plotkin_max = (q - 1) * den - q * gq * delta_num
        r_num = g * (g - 1) * i
        for j, chi in enumerate(chis):
            yield ((kappa, chi, delta, _ratio(r_num, den),
                    _FLAG[kappa_lb_ok and j <= i], _FLAG[r_num <= singleton_max],
                    _FLAG[(q - 1) * r_num <= plotkin_max]),
                   delta_f, r_num / den)
            r_num += 1


def _corner_row(q: int, pt: AsymptoticPoint, cp: CodePoint):
    """A reference-polygon corner and its image as (CSV row, float delta,
    float R), through the exact checks."""
    member = domain_membership(q, pt)
    checks = code_bound_checks(q, cp)
    return ((str(pt.kappa), str(pt.chi), str(cp.delta), str(cp.r),
             _FLAG[member["kappa_lb_ok"] and member["chi_ub_ok"]],
             _FLAG[checks["singleton_ok"]], _FLAG[checks["plotkin_ok"]]),
            float(cp.delta), float(cp.r))


# the SVG draws the (delta, R) unit square in a 440 px square with 40 px pad
_SVG_SIZE = 440
_SVG_PAD = 40


def _svg_xy(delta: float, r: float) -> tuple[float, float]:
    span = _SVG_SIZE - 2 * _SVG_PAD
    return _SVG_PAD + delta * span, _SVG_SIZE - _SVG_PAD - r * span


def _svg_head(q: int, poly: dict) -> str:
    # the frame, the Singleton (dashed) and Plotkin lines, and the image
    # polygon A2 B2 C2 D2, one element per line
    size, pad = _SVG_SIZE, _SVG_PAD
    sx, sy = _svg_xy(0.0, 1.0)
    ex, ey = _svg_xy(1.0, 0.0)
    px, py = _svg_xy((q - 1) / q, 0.0)
    corners = " ".join("{},{}".format(*_svg_xy(float(poly[n].delta), float(poly[n].r)))
                       for n in ("A2", "B2", "C2", "D2"))
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">\n'
            f'<rect x="{pad}" y="{pad}" width="{size - 2 * pad}" '
            f'height="{size - 2 * pad}" fill="none" stroke="black"/>\n'
            f'<line x1="{sx}" y1="{sy}" x2="{ex}" y2="{ey}" '
            'stroke="gray" stroke-dasharray="6,3"/>\n'
            f'<line x1="{sx}" y1="{sy}" x2="{px}" y2="{py}" stroke="gray"/>\n'
            f'<polygon points="{corners}" fill="silver" '
            'fill-opacity="0.4" stroke="black"/>\n')

"""Result checks computed apart from the library, with plain integers and
``fractions.Fraction`` only.  Each check returns a list of problems (empty
when the result is right)."""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from itertools import product


# -- codes ----------------------------------------------------------------

def code_parameters(kind: str, e: int, div: tuple, q: int, sizes) -> tuple[int, int, int]:
    """(n, k, d) from the closed forms:
    P^2 degree t: n = q^2 + q + 1, k = (t+1)(t+2)/2, d = (q - t + 1) q;
    quadric (a, b), all points: n = (q+1)^2, k = (a+1)(b+1),
        d = (q + 1 - a)(q + 1 - b);
    quadric (a, b) on an |A| x |B| grid: n = |A||B|, d = (|A| - a)(|B| - b);
    Hirzebruch e, (u, 1): n = (q+1)^2, k = (u+1) + (u-e+1), d = q (q - u + 1).
    """
    if kind == "p2":
        (t,) = div
        return q * q + q + 1, (t + 1) * (t + 2) // 2, (q - t + 1) * q
    if kind == "p1xp1":
        a, b = div
        k = (a + 1) * (b + 1)
        if sizes is None:
            return (q + 1) ** 2, k, (q + 1 - a) * (q + 1 - b)
        na, nb = sizes
        return na * nb, k, (na - a) * (nb - b)
    if kind == "hirzebruch":
        u, v = div
        if v != 1 or sizes is not None:
            raise ValueError("closed form known for v = 1 on all points only")
        return (q + 1) ** 2, (u + 1) + (u - e + 1), q * (q - u + 1)
    raise ValueError(f"no closed form for {kind}")


def min_weight_prime(rows: list[list[int]], p: int) -> int:
    """Minimum nonzero codeword weight over the prime field F_p, by
    enumerating every message (small k only)."""
    n = len(rows[0])
    best = n + 1
    for msg in product(range(p), repeat=len(rows)):
        if not any(msg):
            continue
        w = sum(1 for j in range(n)
                if sum(c * r[j] for c, r in zip(msg, rows)) % p)
        best = min(best, w)
    return best


def check_code_json(doc: dict, p: int, m: int, n: int, k: int,
                    sections: int) -> list[str]:
    out = []
    if (doc["field"]["p"], doc["field"]["m"]) != (p, m):
        out.append(f"field {doc['field']} is not F_{p}^{m}")
    if (doc["n"], doc["k"], doc["section_count"]) != (n, k, sections):
        out.append(f"(n, k, sections) = ({doc['n']}, {doc['k']}, "
                   f"{doc['section_count']}), expected ({n}, {k}, {sections})")
    gen = doc["generator"]
    if len(gen) != n * k or any(not 0 <= x < p ** m for x in gen):
        out.append("generator has the wrong length or an entry outside F_q")
    return out


def rows_of(doc: dict) -> list[list[int]]:
    n, gen = doc["n"], doc["generator"]
    return [gen[i * n:(i + 1) * n] for i in range(doc["k"])]


def quadric_interpolating(q: int, a: int, b: int) -> int:
    """n - Gamma.G on the quadric with Gamma = (q+1)(1,1), G = (a,b); the
    intersection form pairs (x, y).(z, w) = xw + yz."""
    return (q + 1) ** 2 - (q + 1) * (a + b)


# -- towers ---------------------------------------------------------------

def _chi(a: int, p: int) -> int:
    """Quadratic character by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _evaluate(coeffs: list[int], t: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * t + c) % p
    return acc


def _point_count(coeffs: list[int], p: int) -> int:
    total = sum(1 + _chi(_evaluate(coeffs, t, p), p) for t in range(p))
    return total + (2 if _chi(coeffs[-1], p) == 1 else 0)


def invariant_dims(g1: int, g2: int) -> tuple[int, int]:
    """(h1G, h2G) for C split and D quadratic, by the parity of g2."""
    if g2 % 2 == 0:
        return 2 * g1 + g2, 2 * g1 * g2 + 2
    return 2 * g1 + g2 + 1, 2 * g1 * (g2 + 1) + 2


def gs_values(g1: int, g2: int, rho: int) -> tuple[int, int, bool]:
    """(signed lhs square, rhs, pass) of Golod-Shafarevich at r_T = 3 rho + 1."""
    h1, h2 = invariant_dims(g1, g2)
    s = h1 - (3 * rho + 1) - 1
    rhs = 4 * (h2 + 4 * rho)
    return (s * s if s >= 0 else -s * s), rhs, s >= 0 and s * s >= rhs


def check_certificate(cert: dict, q: int, g1: int, g2: int, rho: int) -> list[str]:
    """Check a certificate's JSON form over the prime field F_q."""
    out = []
    f, g = cert["f"], cert["g"]
    if len(f) != 2 * g1 + 3 or f[-1] != 1:
        out.append(f"f is not monic of degree {2 * g1 + 2}")
    if len(g) != 2 * g2 + 3 or g[-1] != 1:
        out.append(f"g is not monic of degree {2 * g2 + 2}")
    f_roots = [t for t in range(q) if _evaluate(f, t, q) == 0]
    g_roots = [t for t in range(q) if _evaluate(g, t, q) == 0]
    if len(f_roots) != 2 * g1 + 2:
        out.append(f"f has {len(f_roots)} roots in F_{q}, expected {2 * g1 + 2}")
    if g_roots:
        out.append(f"g has roots {g_roots} in F_{q}")
    count_c, count_d = _point_count(f, q), _point_count(g, q)
    h1, h2 = invariant_dims(g1, g2)
    lhs, rhs, gs = gs_values(g1, g2, rho)
    conditions = {"points_C": 2 * g1 + 2 + 2 * rho <= count_c,
                  "points_D": 2 * rho <= count_d, "gs": gs}
    expected = {
        "q": q, "g1": g1, "g2": g2, "rho": rho,
        "count_C": count_c, "count_D": count_d, "h1G": h1, "h2G": h2,
        "rT_upper": 3 * rho + 1, "T_size": 4 * rho,
        "gs_lhs_squared": lhs, "gs_rhs": rhs,
        "conditions": conditions, "gs_pass": all(conditions.values()),
    }
    for key, want in expected.items():
        if cert.get(key) != want:
            out.append(f"{key} = {cert.get(key)!r}, expected {want!r}")
    return out


def search_expected(q: int, g1s, g2s, rhos) -> set[tuple[int, int, int]]:
    """Candidates a tower search must return.  A candidate is sampled when
    2 g1 + 2 <= q linear factors and g2 + 1 <= (q^2 - q)/2 quadratic factors
    exist and both genera are >= 2; it passes when GS holds and the point
    conditions hold.  Without the sampled curves the point conditions are
    decided only for rho = 1: a monic f with 2 g1 + 2 roots has at least
    2 g1 + 4 points and a monic g at least 2."""
    out = set()
    for a, b, r in product(g1s, g2s, rhos):
        sampled = 2 <= a and 2 * a + 2 <= q and 2 <= b and b + 1 <= (q * q - q) // 2
        if not (sampled and r >= 1 and gs_values(a, b, r)[2]):
            continue
        if r != 1:
            raise ValueError(f"candidate {(a, b, r)} passes GS with rho > 1; "
                             "its point conditions are undecided here")
        out.add((a, b, r))
    return out


# -- asymptotic maps ------------------------------------------------------

def phi(q: int, g: int, kappa: Fraction, chi: Fraction) -> tuple[Fraction, Fraction]:
    return 1 - g * (q + 1) * kappa, Fraction(g * (g - 1), 2) * kappa + chi


def flags(q: int, g: int, kappa: Fraction, chi: Fraction) -> dict:
    delta, r = phi(q, g, kappa, chi)
    return {"kappa_lb_ok": kappa >= Fraction(1, (q + 1) ** 2),
            "chi_ub_ok": chi <= kappa / 2,
            "singleton_ok": r + delta <= 1,
            "plotkin_ok": r <= 1 - Fraction(q, q - 1) * delta}


def corners(q: int, g: int) -> dict:
    qq, gq = (q + 1) ** 2, g * (q + 1)
    return {"A1": (Fraction(1, qq), Fraction(0)), "B1": (Fraction(1, gq), Fraction(0)),
            "C1": (Fraction(1, gq), Fraction(1, 2 * gq)),
            "D1": (Fraction(1, qq), Fraction(1, 2 * qq))}


def check_asym_map(doc: dict, q: int, g: int, kappa: Fraction, chi: Fraction) -> list[str]:
    delta, r = phi(q, g, kappa, chi)
    fl = flags(q, g, kappa, chi)
    want = {"delta": f"{delta.numerator}/{delta.denominator}",
            "R": f"{r.numerator}/{r.denominator}",
            "in_domain_kappa_lb_ok": fl["kappa_lb_ok"],
            "in_domain_chi_ub_ok": fl["chi_ub_ok"],
            "singleton_ok": fl["singleton_ok"], "plotkin_ok": fl["plotkin_ok"]}
    return [] if doc == want else [f"asym map gave {doc}, expected {want}"]


def check_polygon(doc: dict, q: int, g: int) -> list[str]:
    want = {}
    for name, (kappa, chi) in corners(q, g).items():
        delta, r = phi(q, g, kappa, chi)
        want[name] = {"kappa": f"{kappa.numerator}/{kappa.denominator}",
                      "chi": f"{chi.numerator}/{chi.denominator}"}
        want[name[0] + "2"] = {"delta": f"{delta.numerator}/{delta.denominator}",
                               "R": f"{r.numerator}/{r.denominator}"}
    return [] if doc == want else [f"asym polygon gave {doc}, expected {want}"]


def check_diagram(text: str, q: int, g: int, grid: int) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[:1] != [["kappa", "chi", "delta", "R", "in_domain",
                     "singleton_ok", "plotkin_ok"]]:
        return [f"diagram header is {rows[:1]}"]
    body = rows[1:]
    if len(body) != grid * grid + 4:
        return [f"diagram has {len(body)} rows, expected {grid * grid + 4}"]
    kmax, cmax = Fraction(2, g * (q + 1)), Fraction(1, g * (q + 1))
    points = [(kmax * i / (grid - 1), cmax * j / (grid - 1))
              for i in range(grid) for j in range(grid)]
    points += list(corners(q, g).values())

    def word(b):
        return "true" if b else "false"

    for row, (kappa, chi) in zip(body, points):
        delta, r = phi(q, g, kappa, chi)
        fl = flags(q, g, kappa, chi)
        want = [kappa, chi, delta, r, word(fl["kappa_lb_ok"] and fl["chi_ub_ok"]),
                word(fl["singleton_ok"]), word(fl["plotkin_ok"])]
        got = [Fraction(x) for x in row[:4]] + row[4:]
        if got != want:
            return [f"diagram row {row} differs from {want}"]
    return []

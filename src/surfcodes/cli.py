"""Command-line surface over the library: verb-noun subcommands with JSON on
stdout (or --out), deterministic seeds, and budget guards.

Exit codes: 0 success, 1 internal error, 2 precondition violation, 3 budget
exceeded, 4 I/O error.  The library's three exception types (surfcodes.errors)
carry exit codes 2, 3 and 1, and an OSError is exit 4.  The interpreter's
ValueError on an int too long to print is a precondition too (exit 2); any
other exception is a bug: kind "internal", exit 1, traceback on stderr.  Text
the user gives (integer lists, ranges, rationals, the --point pair) is parsed
here, so its errors are Preconditions too.  On failure, usage errors
included, a structured {"error": {...}} JSON is printed and the process exits
nonzero.

Each command imports the library modules it runs when it runs, so a verb
loads only those (``asym map`` never loads the field arithmetic).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Optional

from .errors import BudgetExceeded, InvariantError, Precondition, print_limit

if TYPE_CHECKING:
    from fractions import Fraction

    from . import surfaces as sf

DEFAULT_SEED = 1

EXIT_OK = 0
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    """Usage errors end in the same JSON as every other failure."""

    def error(self, message):
        raise Precondition(f"{self.prog}: {message}", kind="parse")


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise Precondition(f"bad integer list {text!r}: {exc}", kind="parse")


def _parse_range(text: str) -> range:
    """Either a single integer or lo..hi (inclusive)."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return range(int(lo), int(hi) + 1)
        v = int(text)
        return range(v, v + 1)
    except ValueError as exc:
        raise Precondition(f"bad range {text!r}: {exc}", kind="parse")


def _parse_rational(text: str) -> Fraction:
    """Fraction(text); text whose digits plus exponent exceed the digits an
    int may print (errors.print_limit) is refused unevaluated."""
    mantissa, _, exp = text.lower().partition("e")
    exp = exp.strip().lstrip("+-").replace("_", "").lstrip("0")
    limit = print_limit()
    if limit and exp.isdecimal() and (len(exp) > len(str(limit)) or int(exp)
                                      + sum(map(str.isdecimal, mantissa)) > limit):
        raise Precondition(f"{text!r}: digits plus exponent exceed {limit}", kind="parse")
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise Precondition(str(exc)) from exc


def _surface_from_args(args) -> sf.SurfaceModel:
    from . import surfaces as sf
    kind = args.surface.lower()
    if kind in ("p2", "projectiveplane"):
        return sf.projective_plane()
    if kind in ("p1xp1", "quadric"):
        return sf.quadric_p1xp1()
    if kind in ("hirzebruch", "sigma"):
        if args.e is None:
            raise Precondition("--e is required for a Hirzebruch surface",
                               kind="surface")
        return sf.hirzebruch(args.e)
    raise Precondition(f"unknown surface {args.surface!r} (use p2, p1xp1, hirzebruch)",
                       kind="surface")


def _grid_from_args(args, q: int):
    if args.points != "grid":
        return None
    a = _parse_ints(args.grid_a) if args.grid_a else range(q)
    b = _parse_ints(args.grid_b) if args.grid_b else range(q)
    return (a, b)


def _distance_budget(args) -> int:
    """--budget, or the library default, read only by the verbs that use it."""
    from .codes import DEFAULT_DISTANCE_BUDGET
    return DEFAULT_DISTANCE_BUDGET if args.budget is None else args.budget


def _emit(args, payload, text: Optional[str] = None) -> int:
    body = text if text is not None else json.dumps(payload, indent=2) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    return EXIT_OK


# -- code ---------------------------------------------------------------------

def cmd_code_build(args) -> int:
    from . import codes as cd
    surface = _surface_from_args(args)
    divisor = surface.divisor(*_parse_ints(args.divisor))
    grid = _grid_from_args(args, args.q)
    code = cd.build_code(surface, divisor, args.q, args.points, grid)
    if args.format == "csv":
        return _emit(args, None, code.generator_csv())
    return _emit(args, code.to_json_dict())


def cmd_code_distance(args) -> int:
    from . import codes as cd
    code = cd.load_code(args.infile)
    d = cd.exact_min_distance(code, _distance_budget(args))
    payload = code.to_json_dict()
    payload["d"] = d
    return _emit(args, payload)


# -- bounds -------------------------------------------------------------------

def cmd_bounds(args) -> int:
    from . import bounds as bd
    surface = _surface_from_args(args)
    divisor = surface.divisor(*_parse_ints(args.divisor))
    grid = _grid_from_args(args, args.q)
    report = bd.parameter_report(
        surface, divisor, args.q,
        gamma=args.gamma, tag=args.points, grid=grid,
        exact_budget=_distance_budget(args) if args.exact else None,
        epsilon=_parse_rational(args.epsilon) if args.epsilon else None,
        xi=args.xi)
    if args.lift != 1:
        report = bd.lifted_bound(report, args.lift)
    return _emit(args, report.to_json_dict())


# -- tower --------------------------------------------------------------------

def cmd_tower_check(args) -> int:
    from . import towers as tw
    cert = tw.hyperelliptic_product_certificate(
        args.q, args.g1, args.g2, args.rho, args.seed)
    return _emit(args, cert.to_json_dict())


def cmd_tower_search(args) -> int:
    from . import towers as tw
    certs = tw.search_parameters(args.q, _parse_range(args.g1),
                                 _parse_range(args.g2), _parse_range(args.rho),
                                 args.seed)
    return _emit(args, [c.to_json_dict() for c in certs])


# -- asym ---------------------------------------------------------------------

def cmd_asym_map(args) -> int:
    from . import asymptotic as asym
    try:
        kappa_s, chi_s = args.point.split(",")
    except ValueError as exc:                     # not exactly one comma
        raise Precondition(str(exc)) from exc
    pt = asym.asym_point(_parse_rational(kappa_s), _parse_rational(chi_s))
    cp = asym.phi_g(args.q, args.g, pt)
    payload = cp.to_json_dict()
    payload.update({f"in_domain_{k}": v
                    for k, v in asym.domain_membership(args.q, pt).items()})
    payload.update(asym.code_bound_checks(args.q, cp))
    return _emit(args, payload)


def cmd_asym_polygon(args) -> int:
    from . import asymptotic as asym
    poly = asym.polygon_image(args.q, args.g)
    return _emit(args, {name: pt.to_json_dict() for name, pt in poly.items()})


def cmd_asym_diagram(args) -> int:
    from . import asymptotic as asym
    asym.emit_diagram(args.q, args.g, args.grid, args.out, args.svg)
    sys.stdout.write(json.dumps({"written": args.out, "svg": args.svg}) + "\n")
    return EXIT_OK


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="surfcodes",
        description="evaluation codes on algebraic surfaces: build codes, "
                    "compare distance bounds, certify class-field towers, "
                    "map asymptotic invariants")
    sub = p.add_subparsers(dest="command", required=True)

    def add_surface_args(sp):
        sp.add_argument("--surface", required=True,
                        help="p2 | p1xp1 | hirzebruch")
        sp.add_argument("--e", type=int, default=None,
                        help="Hirzebruch parameter e >= 0")
        sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--divisor", required=True,
                        help="comma-separated coordinates in the NS basis")
        sp.add_argument("--points", default="all", choices=("all", "grid"))
        sp.add_argument("--grid-a", default=None,
                        help="comma-separated F_q indices (grid rows)")
        sp.add_argument("--grid-b", default=None,
                        help="comma-separated F_q indices (grid cols)")

    code = sub.add_parser("code", help="build codes / exact distances")
    code_sub = code.add_subparsers(dest="action", required=True)
    cb = code_sub.add_parser("build")
    add_surface_args(cb)
    cb.add_argument("--format", default="json", choices=("json", "csv"))
    cb.add_argument("--out", default=None)
    cb.set_defaults(func=cmd_code_build)
    cdist = code_sub.add_parser("distance")
    cdist.add_argument("--in", dest="infile", required=True)
    cdist.add_argument("--budget", type=int, default=None)
    cdist.add_argument("--out", default=None)
    cdist.set_defaults(func=cmd_code_distance)

    bounds = sub.add_parser("bounds", help="bound comparison report")
    add_surface_args(bounds)
    bounds.add_argument("--gamma", default="universal",
                        choices=("universal", "universal-affine"))
    bounds.add_argument("--exact", action="store_true",
                        help="attach brute-force (k, d) when within budget")
    bounds.add_argument("--budget", type=int, default=None)
    bounds.add_argument("--lift", type=int, default=1,
                        help="lift the report along a totally split cover of "
                             "this degree")
    bounds.add_argument("--epsilon", default=None,
                        help="Seshadri lower bound (rational) for Hansen S1")
    bounds.add_argument("--xi", type=int, default=None,
                        help="global-generation twist for Hansen S2")
    bounds.add_argument("--out", default=None)
    bounds.set_defaults(func=cmd_bounds)

    tower = sub.add_parser("tower", help="class-field tower certificates")
    tower_sub = tower.add_subparsers(dest="action", required=True)
    tc = tower_sub.add_parser("check")
    for name in ("q", "g1", "g2", "rho"):
        tc.add_argument(f"--{name}", type=int, required=True)
    tc.add_argument("--seed", type=int, default=DEFAULT_SEED)
    tc.add_argument("--out", default=None)
    tc.set_defaults(func=cmd_tower_check)
    ts = tower_sub.add_parser("search")
    ts.add_argument("--q", type=int, required=True)
    for name in ("g1", "g2", "rho"):
        ts.add_argument(f"--{name}", required=True, help="int or lo..hi")
    ts.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ts.add_argument("--out", default=None)
    ts.set_defaults(func=cmd_tower_search)

    asymp = sub.add_parser("asym", help="asymptotic domain maps")
    asym_sub = asymp.add_subparsers(dest="action", required=True)
    am = asym_sub.add_parser("map")
    am.add_argument("--q", type=int, required=True)
    am.add_argument("--g", type=int, required=True)
    am.add_argument("--point", required=True, help="kappa,chi as rationals")
    am.add_argument("--out", default=None)
    am.set_defaults(func=cmd_asym_map)
    ap = asym_sub.add_parser("polygon")
    ap.add_argument("--q", type=int, required=True)
    ap.add_argument("--g", type=int, required=True)
    ap.add_argument("--out", default=None)
    ap.set_defaults(func=cmd_asym_polygon)
    ad = asym_sub.add_parser("diagram")
    ad.add_argument("--q", type=int, required=True)
    ad.add_argument("--g", type=int, required=True)
    ad.add_argument("--grid", type=int, default=20)
    ad.add_argument("--out", required=True)
    ad.add_argument("--svg", default=None)
    ad.set_defaults(func=cmd_asym_diagram)
    return p


def _error_json(kind: str, message: str) -> str:
    return json.dumps({"error": {"kind": kind, "message": message}}) + "\n"


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:                     # --help
        return int(exc.code or 0)
    except (Precondition, BudgetExceeded, InvariantError) as exc:
        sys.stdout.write(_error_json(exc.kind, str(exc)))
        return exc.exit_code
    except OSError as exc:
        sys.stdout.write(_error_json("io", str(exc)))
        return EXIT_IO
    except Exception as exc:                      # a library bug
        if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
            exc = Precondition("the result would print an integer of more than "
                               f"{print_limit()} digits")     # bad input, not a bug
            sys.stdout.write(_error_json(exc.kind, str(exc)))
            return exc.exit_code
        import traceback                          # not loaded at start-up
        traceback.print_exc()
        sys.stdout.write(_error_json("internal", f"{type(exc).__name__}: {exc}"))
        return InvariantError.exit_code


if __name__ == "__main__":
    sys.exit(main())

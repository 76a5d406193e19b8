import contextlib
import hashlib
import io
import json
import os
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcodes import cli
from surfcodes import codes as cd
from surfcodes import surfaces as sf
from surfcodes import towers as tw

_F3 = {"p": 3, "m": 1, "modulus": [0]}
MALFORMED_CODES = {
    "negative_entry": {"field": _F3, "n": 4, "k": 1, "generator": [1, -1, 1, 1]},
    "entry_out_of_field": {"field": _F3, "n": 4, "k": 1, "generator": [1, 9, 1, 1]},
    "missing_n": {"field": _F3, "k": 1, "generator": [1, 1, 1, 1]},
    "dependent_rows": {"field": _F3, "n": 4, "k": 2,
                       "generator": [1, 2, 0, 1, 1, 2, 0, 1]},
}

# a code over F_8192, which has no operation tables
Q8192_ARGS = ("--surface", "p1xp1", "--q", "8192", "--divisor", "1,0",
              "--points", "grid", "--grid-a", "1,2,3", "--grid-b", "4,5")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestCodeCommands:
    def test_build_quadric(self, capsys):
        code, payload = run_json(capsys, "code", "build", "--surface", "p1xp1",
                                 "--q", "3", "--divisor", "1,1", "--points", "all")
        assert code == 0
        assert payload["n"] == 16 and payload["k"] == 4

    def test_build_hirzebruch(self, capsys):
        code, payload = run_json(capsys, "code", "build", "--surface",
                                 "hirzebruch", "--e", "1", "--q", "3",
                                 "--divisor", "1,1")
        assert code == 0
        assert payload["n"] == 16 and payload["k"] == 3

    def test_distance_round_trip(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        code, _ = run(capsys, "code", "build", "--surface", "p1xp1", "--q", "3",
                      "--divisor", "1,1", "--out", str(path))
        assert code == 0
        code, payload = run_json(capsys, "code", "distance", "--in", str(path),
                                 "--budget", "1000000")
        assert code == 0
        assert payload["d"] == 9
        assert payload["n"] == 16 and payload["k"] == 4

    def test_csv_format(self, capsys):
        code, out = run(capsys, "code", "build", "--surface", "p2", "--q", "2",
                        "--divisor", "1", "--format", "csv")
        assert code == 0
        rows = [r for r in out.strip().split("\n")]
        assert len(rows) == 3 and all(len(r.split(",")) == 7 for r in rows)

    def test_invalid_divisor_exit_2(self, capsys):
        code, payload = run_json(capsys, "code", "build", "--surface", "p1xp1",
                                 "--q", "3", "--divisor", "1,x")
        assert code == 2
        assert "error" in payload

    def test_budget_exit_3(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        run(capsys, "code", "build", "--surface", "p1xp1", "--q", "3",
            "--divisor", "2,2", "--out", str(path))
        code, payload = run_json(capsys, "code", "distance", "--in", str(path),
                                 "--budget", "10")
        assert code == 3
        assert payload["error"]["kind"] == "budget"

    def test_distance_without_tables_exit_3(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        code, _ = run(capsys, "code", "build", *Q8192_ARGS, "--out", str(path))
        assert code == 0
        code, payload = run_json(capsys, "code", "distance", "--in", str(path))
        assert code == 3
        assert payload["error"]["kind"] == "budget"
        assert "q = 8192 > 4096" in payload["error"]["message"]

    def test_distance_over_row_table_budget_exit_3(self, capsys, tmp_path):
        # one row's q multiples alone would need q * n > MAX_ROW_TABLE_CELLS
        n = cd.MAX_ROW_TABLE_CELLS // 997 + 1
        path = tmp_path / "code.json"
        path.write_text(json.dumps({
            "field": {"p": 997, "m": 1, "modulus": [0]}, "n": n, "k": 2,
            "generator": [1] * n + [i % 997 for i in range(n)]}))
        code, payload = run_json(capsys, "code", "distance", "--in", str(path))
        assert code == 3
        assert payload["error"]["kind"] == "budget"
        assert "q * n" in payload["error"]["message"]

    def test_missing_file_exit_4(self, capsys, tmp_path):
        # a file that cannot be read or written is exit 4 on every verb
        missing = str(tmp_path / "no" / "such.out")
        cases = [
            ("code", "distance", "--in", str(tmp_path / "nope.json")),
            ("code", "build", "--surface", "p1xp1", "--q", "3", "--divisor", "1,1",
             "--out", missing),
            ("asym", "diagram", "--q", "2", "--g", "2", "--out", missing),
            ("asym", "diagram", "--q", "2", "--g", "2",
             "--out", str(tmp_path / "d.csv"), "--svg", missing),
        ]
        for argv in cases:
            code, payload = run_json(capsys, *argv)
            assert code == 4
            assert payload["error"]["kind"] == "io"
            assert "No such file or directory" in payload["error"]["message"]

    def test_byte_identical_reruns(self, capsys):
        argv = ("code", "build", "--surface", "hirzebruch", "--e", "2",
                "--q", "3", "--divisor", "2,1")
        _, out1 = run(capsys, *argv)
        _, out2 = run(capsys, *argv)
        assert out1 == out2


@pytest.mark.parametrize("case", [*MALFORMED_CODES, "lift_0"])
def test_malformed_input_exit_2(capsys, tmp_path, case):
    if case == "lift_0":
        argv = ["bounds", "--surface", "p1xp1", "--q", "3", "--divisor", "1,1",
                "--lift", "0"]
    else:
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(MALFORMED_CODES[case]))
        argv = ["code", "distance", "--in", str(path)]
    code, payload = run_json(capsys, *argv)
    assert code == 2
    assert payload["error"]["kind"] == "precondition"


@pytest.mark.parametrize("argv", [
    ["code", "build", "--surface", "p1xp1", "--q", "65536", "--divisor", "1,1"],
    ["bounds", "--surface", "p1xp1", "--q", "65536", "--divisor", "1,1",
     "--points", "grid"],
    ["asym", "diagram", "--q", "2", "--g", "2", "--grid", "3000", "--out", "d.csv"],
], ids=["code_build", "bounds_grid", "asym_diagram"])
def test_size_budget_exit_3(capsys, tmp_path, monkeypatch, argv):
    # each input would need gigabytes; the guard must refuse it up front
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, payload = run_json(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 3
    assert payload["error"]["kind"] == "budget"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["asym", "map", "--q", "2", "--g", "2", "--point", "1e4000000,0"],
    ["bounds", "--surface", "p1xp1", "--q", "3", "--divisor", "1,1",
     "--epsilon", "1e4000000"],
], ids=["point", "epsilon"])
def test_huge_exponent_refused_unbuilt(capsys, argv):
    # Fraction("1e4000000") alone computes 10^4000000 for seconds
    start = time.perf_counter()
    code, payload = run_json(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, payload) == (2, {"error": {
        "kind": "parse", "message": "'1e4000000': digits plus exponent exceed 4300"}})


@pytest.mark.parametrize("point, code", [
    ("1e4000,0", 0), ("1e-4299,0", 0), ("1e0000000000009,0", 0), ("1e4_299,0", 0),
    ("1e4300,0", 2), ("1e-4300,0", 2), ("1e99999999999999,0", 2), ("1e4_300,0", 2),
    ("1.5e4299,0", 2),
])
def test_exponent_digit_limit(capsys, point, code):
    # 10^4300 and 10^-4300 need 4301 digits, one more than the interpreter
    # prints; leading zeros of an exponent count for nothing.  The text is
    # judged by its digits plus its exponent, so 1.5e4299 (4300 digits) is
    # refused too
    assert run_json(capsys, "asym", "map", "--q", "2", "--g", "2",
                    "--point", point)[0] == code


def test_section_budget_exit_3(capsys):
    # 5 * 10^9 sections at 7 points: refused from the closed-form count,
    # before any monomial is listed
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, payload = run_json(capsys, "code", "build", "--surface", "p2",
                                 "--q", "2", "--divisor", "100000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2.0
    assert peak < 1 << 20
    assert code == 3
    assert payload["error"]["kind"] == "budget"
    assert "sections" in payload["error"]["message"]


def test_default_grid_budget_exit_3(capsys):
    # both sides default to all of F_65536: 2^32 points, counted before
    # either side is listed
    tracemalloc.start()
    try:
        code, payload = run_json(capsys, "bounds", "--surface", "p1xp1",
                                 "--q", "65536", "--divisor", "1,1",
                                 "--points", "grid")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert code == 3
    assert payload == {"error": {"kind": "budget", "message":
                                 "4294967296 evaluation points exceed 1000000"}}


def test_grid_report_counts_without_listing(capsys):
    # a 997 x 997 grid: the report reads only the two side lengths, so the
    # 994,009 point pairs are never built
    tracemalloc.start()
    try:
        code, payload = run_json(capsys, "bounds", "--surface", "p1xp1",
                                 "--q", "997", "--divisor", "1,1",
                                 "--points", "grid")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert code == 0
    assert payload["n"] == 994009
    assert payload["entries"][-1]["reason"] == "997x997 grid on the quadric"


def test_library_bug_ends_in_json(capsys, monkeypatch):
    # an exception no handler expects is a bug: kind internal, exit 1
    def broken(*args, **kwargs):
        raise TypeError("unexpected argument")

    monkeypatch.setattr(cd, "build_code", broken)
    code, payload = run_json(capsys, "code", "build", "--surface", "p1xp1",
                             "--q", "3", "--divisor", "1,1")
    assert code == 1
    assert payload == {"error": {"kind": "internal",
                                 "message": "TypeError: unexpected argument"}}


@pytest.mark.parametrize("exc", [ValueError("boom"), ZeroDivisionError("boom")],
                         ids=["ValueError", "ZeroDivisionError"])
def test_library_value_error_is_internal(capsys, monkeypatch, exc):
    # a builtin ValueError or ZeroDivisionError raised inside the library is
    # a bug, not bad input
    def broken(mc, md):
        raise exc

    monkeypatch.setattr(tw, "kunneth_invariants", broken)
    code, payload = run_json(capsys, "tower", "check", "--q", "11",
                             "--g1", "2", "--g2", "2", "--rho", "1")
    assert code == 1
    assert payload == {"error": {"kind": "internal",
                                 "message": f"{type(exc).__name__}: boom"}}


@pytest.mark.parametrize("argv", [
    [],
    ["tower", "check", "--q", "67"],
    ["tower", "check", "--q", "x", "--g1", "3", "--g2", "3", "--rho", "1"],
    ["code", "build", "--surface", "p2", "--q", "3", "--divisor", "1",
     "--points", "bad"],
    ["asym", "map", "--q", "2", "--g", "2", "--point", "1/9,0", "--bogus"],
], ids=["empty", "missing_required", "bad_int", "bad_choice", "unknown_flag"])
def test_usage_errors_end_in_json(capsys, argv):
    code, payload = run_json(capsys, *argv)
    assert code == 2
    assert payload["error"]["kind"] == "parse"
    assert payload["error"]["message"].startswith("surfcodes")


def test_help_exits_0(capsys):
    assert cli.main(["tower", "search", "--help"]) == 0
    assert "--rho" in capsys.readouterr().out


_CODE = {"field": _F3, "n": 4, "k": 1, "generator": [1, 1, 1, 1]}
# a 4001-digit integer and a 2,201-digit q: (q + 1)^2 has 4401 digits, one
# more than the interpreter prints (4300)
_B, _LONG_Q = str(10 ** 4000), str(10 ** 2200 + 7)
_LONG_RESULT = "the result would print an integer of more than 4300 digits"
ERROR_FILES = {
    "not_json.json": b"{not json",
    "not_utf8.json": b"\xff\xfe{}",
    "divisor_a.json": json.dumps({**_CODE, "divisor": ["a"]}).encode(),
    "surface_torus.json": json.dumps({**_CODE, "surface": {"kind": "torus"}}).encode(),
    "two_million_points.json": json.dumps({**_CODE, "n": 2 * 10 ** 6, "k": 5}).encode(),
    "zero_code.json": json.dumps({**_CODE, "k": 0, "generator": []}).encode(),
}
_QUADRIC = ("--surface", "p1xp1", "--q", "3", "--divisor", "1,1")

# one input per refusal, with the exit code, kind and message each printed
# before the library's exception classes were folded into surfcodes.errors;
# only asym_diagram_g0 changed: it read "Fraction(2, 0)" when the diagram
# divided by g before checking it
ERROR_TABLE = [
    ("parse_int", ("tower", "check", "--q", "x", "--g1", "3", "--g2", "3", "--rho", "1"),
     2, "parse", "surfcodes tower check: argument --q: invalid int value: 'x'"),
    ("parse_list", ("code", "build", "--surface", "p1xp1", "--q", "3", "--divisor", "1,x"),
     2, "parse", "bad integer list '1,x': invalid literal for int() with base 10: 'x'"),
    ("parse_range", ("tower", "search", "--q", "7", "--g1", "a..b", "--g2", "2", "--rho", "1"),
     2, "parse", "bad range 'a..b': invalid literal for int() with base 10: 'a'"),
    ("surface_unknown", ("code", "build", "--surface", "torus", "--q", "3", "--divisor", "1,1"),
     2, "surface", "unknown surface 'torus' (use p2, p1xp1, hirzebruch)"),
    ("surface_no_e", ("bounds", "--surface", "hirzebruch", "--q", "3", "--divisor", "1,1"),
     2, "surface", "--e is required for a Hirzebruch surface"),
    ("gf_not_prime_power", ("code", "build", "--surface", "p1xp1", "--q", "6", "--divisor", "1,1"),
     2, "precondition", "6 is not a prime power"),
    ("gf_field_too_large", ("tower", "check", "--q", "70000", "--g1", "2", "--g2", "2",
                            "--rho", "1"),
     2, "precondition", "q = 70000 exceeds 65536"),
    ("surfaces_negative_e", ("code", "build", "--surface", "hirzebruch", "--e=-1", "--q", "3",
                             "--divisor", "1,1"),
     2, "precondition", "Hirzebruch parameter e must be >= 0, got -1"),
    ("surfaces_rank", ("bounds", "--surface", "p1xp1", "--q", "3", "--divisor", "1"),
     2, "precondition", "divisor needs 2 coordinates, got 1"),
    ("codes_no_sections", ("code", "build", "--surface", "p1xp1", "--q", "3", "--divisor=-1,2"),
     2, "precondition", "no sections for divisor (-1, 2) on P1xP1"),
    ("codes_grid_on_p2", ("code", "build", "--surface", "p2", "--q", "3", "--divisor", "1",
                          "--points", "grid"),
     2, "precondition", "grid points are not defined on P2"),
    ("codes_grid_entry", ("code", "build", *_QUADRIC, "--points", "grid", "--grid-a", "5"),
     2, "precondition", "grid entry 5 is not an element of F_3"),
    ("bounds_lift", ("bounds", *_QUADRIC, "--lift", "0"),
     2, "precondition", "degree must be >= 1, got 0"),
    ("towers_factor_count", ("tower", "check", "--q", "7", "--g1=-5", "--g2", "2", "--rho", "1"),
     2, "precondition", "linear factor count must be >= 0, got -8"),
    ("towers_genus", ("tower", "check", "--q", "7", "--g1", "1", "--g2", "2", "--rho", "1"),
     2, "precondition", "degree 4 < 6 means genus < 2"),
    ("towers_rho", ("tower", "check", "--q", "67", "--g1", "3", "--g2", "3", "--rho", "0"),
     2, "precondition", "rho must be >= 1, got 0"),
    ("towers_few_linear", ("tower", "check", "--q", "3", "--g1", "2", "--g2", "2", "--rho", "1"),
     2, "precondition", "only 3 linear factors exist, need 6"),
    ("towers_even_q", ("tower", "search", "--q", "4", "--g1", "2..3", "--g2", "2..3",
                       "--rho", "1"),
     2, "precondition", "tower search needs odd q"),
    ("asym_g_range", ("asym", "map", "--q", "2", "--g", "5", "--point", "1/9,0"),
     2, "precondition", "need 2 <= g <= q, got g = 5, q = 2"),
    ("asym_kappa", ("asym", "map", "--q", "2", "--g", "2", "--point=-1,0"),
     2, "precondition", "kappa must be >= 0"),
    ("asym_grid", ("asym", "diagram", "--q", "2", "--g", "2", "--grid", "1", "--out", "d.csv"),
     2, "precondition", "grid_n must be >= 2, got 1"),
    ("asym_same_file", ("asym", "diagram", "--q", "2", "--g", "2", "--out", "d.csv",
                        "--svg", "d.csv"),
     2, "precondition", "the CSV and the SVG would both be written to 'd.csv'"),
    ("asym_diagram_g0", ("asym", "diagram", "--q=-2", "--g=0", "--grid=2", "--out", "d.csv"),
     2, "precondition", "need 2 <= g <= q, got g = 0, q = -2"),
    ("point_zero_den", ("asym", "map", "--q", "2", "--g", "2", "--point", "1/0,0"),
     2, "precondition", "Fraction(1, 0)"),
    ("point_literal", ("asym", "map", "--q", "2", "--g", "2", "--point", "x,1"),
     2, "precondition", "Invalid literal for Fraction: 'x'"),
    ("point_three", ("asym", "map", "--q", "2", "--g", "2", "--point", "1,2,3"),
     2, "precondition", "too many values to unpack (expected 2)"),
    ("point_empty", ("asym", "map", "--q", "2", "--g", "2", "--point="),
     2, "precondition", "not enough values to unpack (expected 2, got 1)"),
    ("epsilon_zero_den", ("bounds", *_QUADRIC, "--epsilon", "1/0"),
     2, "precondition", "Fraction(1, 0)"),
    ("epsilon_literal", ("bounds", *_QUADRIC, "--epsilon", "x"),
     2, "precondition", "Invalid literal for Fraction: 'x'"),
    ("json_not_json", ("code", "distance", "--in", "not_json.json"),
     2, "precondition",
     "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("json_not_utf8", ("code", "distance", "--in", "not_utf8.json"),
     2, "precondition", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ("json_divisor", ("code", "distance", "--in", "divisor_a.json"),
     2, "precondition", "invalid literal for int() with base 10: 'a'"),
    ("json_surface_kind", ("code", "distance", "--in", "surface_torus.json"),
     2, "precondition", "unknown surface kind 'torus'"),
    ("budget_diagram", ("asym", "diagram", "--q", "2", "--g", "2", "--grid", "600",
                        "--out", "d.csv"),
     3, "budget", "600^2 diagram samples exceed 250000"),
    ("io_missing", ("code", "distance", "--in", "missing.json"),
     4, "io", "[Errno 2] No such file or directory: 'missing.json'"),
    # added later: each of these ended as kind "internal", exit 1 (len() of a
    # range past 2^63; a rational too long to print)
    ("codes_grid_overflow", ("code", "build", "--surface", "p1xp1",
                             "--q", "10000000000000000000", "--divisor", "1,1",
                             "--points", "grid"),
     3, "budget", f"{10 ** 38} evaluation points exceed 1000000"),
    ("point_long_exponent", ("asym", "map", "--q", "2", "--g", "2", "--point", "1e5000,0"),
     2, "parse", "'1e5000': digits plus exponent exceed 4300"),
    ("epsilon_long_denominator", ("bounds", *_QUADRIC, "--epsilon", "1e-5000"),
     2, "parse", "'1e-5000': digits plus exponent exceed 4300"),
    ("towers_g1_overflow", ("tower", "search", "--q", "67", "--g1", f"1..{10 ** 20}",
                            "--g2", "2", "--rho", "1"),
     3, "budget", f"{10 ** 20} candidates exceed 1000000"),
    ("towers_rho_overflow", ("tower", "search", "--q", "67", "--g1", "2", "--g2", "2",
                             "--rho", f"1..{10 ** 20}"),
     3, "budget", f"{10 ** 20} candidates exceed 1000000"),
    # added later: each of these ended as kind "internal", exit 1 (a result
    # past the interpreter's 4300-digit limit for printing an int)
    ("asym_map_long_result", ("asym", "map", "--q", "2", "--g", "2",
                              "--point", "1e4200,1e-4200"),
     2, "precondition", "R would print an integer of more than 4300 digits"),
    ("asym_diagram_long_q", ("asym", "diagram", "--q", str(10 ** 2200 + 1), "--g", "2",
                             "--grid", "2", "--out", "z.csv"),
     2, "precondition", "the diagram would print an integer of more than 4300 digits"),
    ("asym_polygon_long_q", ("asym", "polygon", "--q", str(10 ** 2200 + 1), "--g", "2"),
     2, "precondition", "kappa would print an integer of more than 4300 digits"),
    ("codes_long_q", ("code", "build", "--surface", "p2", "--q", str(10 ** 2200 + 1),
                      "--divisor", "1"),
     3, "budget", "a 4401-digit number of evaluation points exceed 1000000"),
    ("codes_long_q_grid", ("code", "build", "--surface", "p1xp1", "--q", str(10 ** 2200 - 1),
                           "--divisor", "1,1", "--points", "grid"),
     3, "budget", "a 4400-digit number of evaluation points exceed 1000000"),
    # added later: the document's own n and k are checked before its generator
    # (n = 2 10^6 with a 4-entry generator was a length precondition, exit 2)
    ("json_point_budget", ("code", "distance", "--in", "two_million_points.json"),
     3, "budget", "2000000 evaluation points exceed 1000000"),
    ("codes_zero_code", ("code", "distance", "--in", "zero_code.json"),
     2, "precondition", "zero code has no minimum distance"),
    # added later: each of these ended as kind "internal", exit 1 (a computed
    # integer past the 4300 digits the interpreter prints, in a bounds reason,
    # a budget message or the JSON of a result)
    ("bounds_long_q", ("bounds", "--surface", "p1xp1", "--q", _LONG_Q, "--divisor", "1,1"),
     2, "precondition", _LONG_RESULT),
    ("bounds_long_divisor", ("bounds", "--surface", "p1xp1", "--q", "3",
                             "--divisor", f"{_B},{_B}"),
     2, "precondition", _LONG_RESULT),
    ("bounds_long_lift", ("bounds", "--surface", "p2", "--q", "3", "--divisor", _B,
                          "--lift", _B),
     2, "precondition", _LONG_RESULT),
    ("codes_long_sections", ("code", "build", "--surface", "p1xp1", "--q", "3",
                             "--divisor", f"{_B},{_B}"),
     3, "budget", "a 8001-digit number of sections at 16 points exceed 10000000 "
                  "generator entries"),
    ("towers_long_ranges", ("tower", "search", "--q", "67", "--g1", f"1..{_B}",
                            "--g2", f"1..{_B}", "--rho", "1"),
     3, "budget", "a 8001-digit number of candidates exceed 1000000"),
    ("towers_long_rho", ("tower", "check", "--q", "67", "--g1", "30", "--g2", "30",
                         "--rho", _B),
     2, "precondition", _LONG_RESULT),
    # added later: a point count past 10^7 Horner steps is refused before its
    # branch polynomial is sampled (the first ran 11.6 s into a MemoryError,
    # kind "internal", exit 1; the second gave an answer after about 1 s)
    ("towers_point_count_budget", ("tower", "check", "--q", "65521", "--g1", "2",
                                   "--g2", "100000000", "--rho", "1"),
     3, "budget", "a point count at degree 200000002 over F_65521 takes 13104200131042 "
                  "Horner steps, budget is 10000000"),
    ("towers_search_point_count_budget", ("tower", "search", "--q", "65521", "--g1", "76",
                                          "--g2", "2", "--rho", "1"),
     3, "budget", "a point count at degree 154 over F_65521 takes 10090234 Horner steps, "
                  "budget is 10000000"),
]


@pytest.mark.parametrize("argv, code, kind, message", [row[1:] for row in ERROR_TABLE],
                         ids=[row[0] for row in ERROR_TABLE])
def test_error_table(capsys, tmp_path, monkeypatch, argv, code, kind, message):
    monkeypatch.chdir(tmp_path)
    for name, body in ERROR_FILES.items():
        (tmp_path / name).write_bytes(body)
    assert run(capsys, *argv) == (
        code, json.dumps({"error": {"kind": kind, "message": message}}) + "\n")


@pytest.mark.parametrize("argv, code", [
    # kappa = 1/(5 10^4299): its 4300-digit denominator prints, and so do
    # delta and R once reduced
    (("asym", "map", "--q", "2", "--g", "2", "--point", f"1/{5 * 10 ** 4299},0",
      "--out", "m.json"), 0),
    (("asym", "map", "--q", "2", "--g", "2", "--point", "1e4200,1e-4200",
      "--out", "m.json"), 2),
    # D1's chi = 1/(2(q+1)^2) has 4300 digits at q + 1 = 3 10^2149, 4301 at 10^2150
    (("asym", "diagram", "--q", str(3 * 10 ** 2149 - 1), "--g", "2", "--grid", "2",
      "--out", "d.csv", "--svg", "d.svg"), 0),
    (("asym", "diagram", "--q", str(10 ** 2150 - 1), "--g", "2", "--grid", "2",
      "--out", "d.csv", "--svg", "d.svg"), 2),
], ids=["map_at_limit", "map_past_limit", "diagram_at_limit", "diagram_past_limit"])
def test_digit_limit_decided_before_files(capsys, tmp_path, monkeypatch, argv, code):
    # the refusal is exact (what prints still prints) and comes before any
    # file is opened
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv)[0] == code
    assert any(tmp_path.iterdir()) == (code == 0)


LONG_FILES = {
    "long_q.json": {**_CODE, "field": {"p": int(_LONG_Q), "m": 1, "modulus": [0]}},
    "long_n.json": {**_CODE, "n": int(_B)},
}
_SURFACE_Q = ("--q", _LONG_Q, "--divisor")
LONG_ARGS = {
    # a 2,201-digit --q to every verb that takes one
    "build_p2_q": ("code", "build", "--surface", "p2", *_SURFACE_Q, "1"),
    "build_grid_q": ("code", "build", "--surface", "p1xp1", *_SURFACE_Q, "1,1",
                     "--points", "grid"),
    "distance_q": ("code", "distance", "--in", "long_q.json"),
    "bounds_p2_q": ("bounds", "--surface", "p2", *_SURFACE_Q, "1"),
    "bounds_p1xp1_q": ("bounds", "--surface", "p1xp1", *_SURFACE_Q, "1,1"),
    "bounds_hirzebruch_q": ("bounds", "--surface", "hirzebruch", "--e", "1",
                            *_SURFACE_Q, "2,1", "--exact", "--epsilon", "1/2", "--xi", "2"),
    "bounds_grid_q": ("bounds", "--surface", "p1xp1", *_SURFACE_Q, "1,1", "--points", "grid"),
    "bounds_lift_q": ("bounds", "--surface", "p2", *_SURFACE_Q, "1", "--lift", "2"),
    "check_q": ("tower", "check", "--q", _LONG_Q, "--g1", "2", "--g2", "2", "--rho", "1"),
    "search_q": ("tower", "search", "--q", _LONG_Q, "--g1", "2", "--g2", "2", "--rho", "1"),
    "map_q": ("asym", "map", "--q", _LONG_Q, "--g", "2", "--point", "1/9,0"),
    "polygon_q": ("asym", "polygon", "--q", _LONG_Q, "--g", "2"),
    "diagram_q": ("asym", "diagram", "--q", _LONG_Q, "--g", "2", "--grid", "2"),
    # 4001-digit option values
    "distance_n": ("code", "distance", "--in", "long_n.json"),
    "build_divisor": ("code", "build", "--surface", "p2", "--q", "3", "--divisor", _B),
    "build_e": ("code", "build", "--surface", "hirzebruch", "--e", _B, "--q", "3",
                "--divisor", "1,1"),
    "bounds_divisor": ("bounds", "--surface", "p2", "--q", "3", "--divisor", _B),
    "bounds_e": ("bounds", "--surface", "hirzebruch", "--e", _B, "--q", "3",
                 "--divisor", "1,1"),
    "bounds_lift": ("bounds", "--surface", "p2", "--q", "3", "--divisor", "1", "--lift", _B),
    "bounds_xi": ("bounds", "--surface", "p2", "--q", "3", "--divisor", "1", "--xi", _B),
    "bounds_divisor_xi": ("bounds", "--surface", "p2", "--q", "3", "--divisor", _B,
                          "--xi", _B),
    "check_g1": ("tower", "check", "--q", "67", "--g1", _B, "--g2", "2", "--rho", "1"),
    "check_g2": ("tower", "check", "--q", "67", "--g1", "2", "--g2", _B, "--rho", "1"),
    "search_rho": ("tower", "search", "--q", "67", "--g1", "30", "--g2", "30",
                   "--rho", _B),
    "search_rho_range": ("tower", "search", "--q", "67", "--g1", "2", "--g2", "2",
                         "--rho", f"1..{_B}"),
    "search_g1_range": ("tower", "search", "--q", "67", "--g1", f"{_B}..{_B}",
                        "--g2", "2", "--rho", "1"),
    "search_g2_range": ("tower", "search", "--q", "67", "--g1", "2", "--g2", f"1..{_B}",
                        "--rho", "1"),
    "map_g": ("asym", "map", "--q", "3", "--g", _B, "--point", "1/9,0"),
    "diagram_grid": ("asym", "diagram", "--q", "3", "--g", "2", "--grid", _B),
    # the six inputs pinned in ERROR_TABLE
    **{row[0]: row[1] for row in ERROR_TABLE if row[0] in (
        "bounds_long_q", "bounds_long_divisor", "bounds_long_lift",
        "codes_long_sections", "towers_long_ranges", "towers_long_rho")},
}


@pytest.mark.parametrize("argv", LONG_ARGS.values(), ids=LONG_ARGS.keys())
def test_long_integers_end_in_json(capsys, tmp_path, monkeypatch, argv):
    # integers near and past the interpreter's 4300-digit print limit end in
    # an answer (exit 0) or one structured refusal line (exit 2 or 3), never
    # a traceback, and a refused result writes no --out file
    monkeypatch.chdir(tmp_path)
    for name, doc in LONG_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code = cli.main([*argv, "--out", "out.txt"])
    out, err = capsys.readouterr()
    assert code in (0, 2, 3) and err == ""
    assert (tmp_path / "out.txt").exists() == (code == 0)
    if code:
        assert out.count("\n") == 1 and list(json.loads(out)) == ["error"]


class TestBoundsCommand:
    def test_report_with_exact(self, capsys):
        code, payload = run_json(capsys, "bounds", "--surface", "p1xp1",
                                 "--q", "3", "--divisor", "1,1", "--exact")
        assert code == 0
        entries = {e["name"]: e for e in payload["entries"]}
        assert entries["interpolating"]["value"] == 8
        assert entries["aubry"]["value"] == 8
        assert payload["exact"] == {"k": 4, "d": 9}

    def test_lift(self, capsys):
        code, payload = run_json(capsys, "bounds", "--surface", "p1xp1",
                                 "--q", "3", "--divisor", "1,1", "--lift", "2")
        assert code == 0
        assert payload["n"] == 32
        entries = {e["name"]: e for e in payload["entries"]}
        assert entries["interpolating"]["value"] == 16

    def test_invalid_divisor(self, capsys):
        code, _ = run_json(capsys, "bounds", "--surface", "p1xp1", "--q", "3",
                           "--divisor", "1")
        assert code == 2

    def test_lift_with_seshadri_data(self, capsys):
        # the caller's Seshadri data does not transport on its own
        code, payload = run_json(capsys, "bounds", *_QUADRIC, "--epsilon", "1/2",
                                 "--xi", "2", "--lift", "2")
        assert code == 0
        entries = {e["name"]: e for e in payload["entries"]}
        for name in ("hansen_S1", "hansen_S2"):
            assert entries[name] == {
                "name": name, "value": None, "applicable": False,
                "reason": "liftable with caller inputs: Seshadri constants/global "
                          "generation transport along unramified covers"}

    def test_exact_over_point_budget_is_null(self, capsys):
        # the code would exceed the point budget, so the report carries no
        # exact parameters instead of failing as a whole
        code, payload = run_json(capsys, "bounds", "--surface", "p1xp1",
                                 "--q", "1024", "--divisor", "1,1", "--exact")
        assert code == 0
        assert payload["n"] == 1025 ** 2 and payload["exact"] is None

    def test_exact_without_tables_is_null(self, capsys):
        code, payload = run_json(capsys, "bounds", *Q8192_ARGS, "--exact")
        assert code == 0
        assert payload["n"] == 6 and payload["exact"] is None

    def test_exact_over_row_table_budget_is_null(self, capsys):
        # n = 996004 points but only 998 messages: the table of one row's
        # q multiples would take 1.85 GiB, so the report carries no exact
        code, payload = run_json(capsys, "bounds", "--surface", "p1xp1",
                                 "--q", "997", "--divisor", "1,0", "--exact")
        assert code == 0
        assert payload["n"] == 998 ** 2 and payload["exact"] is None

    def test_exact_over_table_budget_skips_build(self, capsys, monkeypatch):
        # the table refusal comes before the 996004 points are evaluated
        def no_build(*args, **kwargs):
            raise AssertionError("build_code called")

        monkeypatch.setattr(cd, "build_code", no_build)
        code, payload = run_json(capsys, "bounds", "--surface", "p1xp1",
                                 "--q", "997", "--divisor", "1,0", "--exact")
        assert code == 0
        assert payload["exact"] is None

    def test_grid_affine_gamma(self, capsys):
        code, payload = run_json(capsys, "bounds", "--surface", "hirzebruch",
                                 "--e", "1", "--q", "3", "--divisor", "1,1",
                                 "--points", "grid", "--gamma",
                                 "universal-affine", "--exact")
        assert code == 0
        assert payload["n"] == 9

    def test_affine_gamma_report(self, capsys):
        code, payload = run_json(capsys, "bounds", "--surface", "p1xp1",
                                 "--q", "3", "--divisor", "1,1", "--points", "grid",
                                 "--gamma", "universal-affine", "--exact")
        assert code == 0
        assert payload == {
            "n": 9, "k_lower": 4, "entries": [
                {"name": "interpolating", "value": 3, "applicable": True,
                 "reason": "Gamma = qL with L = (1, 1); caller asserts the point "
                           "set avoids a member of |L|; Gamma.G = 6; "
                           "Gamma^2 = 18 >= n is True"},
                {"name": "aubry", "value": 1, "applicable": True,
                 "reason": "G = (1, 1) is very ample"},
                {"name": "grid", "value": 3, "applicable": True,
                 "reason": "3x3 grid on the quadric"}],
            "exact": {"k": 4, "d": 4}, "defect": 1}


class TestTowerCommands:
    def test_check_pass(self, capsys):
        code, payload = run_json(capsys, "tower", "check", "--q", "67",
                                 "--g1", "30", "--g2", "30", "--rho", "1",
                                 "--seed", "1")
        assert code == 0
        assert payload["gs_pass"] is True
        assert payload["gs_lhs_squared"] == 7225
        assert payload["gs_rhs"] == 7224

    def test_check_precondition_exit_2(self, capsys):
        code, payload = run_json(capsys, "tower", "check", "--q", "5",
                                 "--g1", "30", "--g2", "30", "--rho", "1")
        assert code == 2

    def test_search(self, capsys):
        code, payload = run_json(capsys, "tower", "search", "--q", "67",
                                 "--g1", "29..31", "--g2", "29..31",
                                 "--rho", "1")
        assert code == 0
        found = {(c["g1"], c["g2"], c["rho"]) for c in payload}
        assert (30, 30, 1) in found

    def test_check_beyond_64_dimensions(self, capsys):
        # C has a 68-dimensional module, beyond the Kronecker oracle's 64
        code, payload = run_json(capsys, "tower", "check", "--q", "71",
                                 "--g1", "34", "--g2", "4", "--rho", "1")
        assert code == 0
        assert payload["h1G"] == 72 and payload["h2G"] == 274

    def test_invariant_error_exit_1(self, capsys, monkeypatch):
        real = tw.kunneth_invariants

        def off_by_one(mc, md):
            kd = real(mc, md)
            return {**kd, "h1G": kd["h1G"] + 1}

        monkeypatch.setattr(tw, "kunneth_invariants", off_by_one)
        code, payload = run_json(capsys, "tower", "check", "--q", "11",
                                 "--g1", "2", "--g2", "2", "--rho", "1")
        assert code == 1
        assert payload["error"]["kind"] == "internal"
        assert "h1G" in payload["error"]["message"]

    def test_check_large_q(self, capsys):
        # the quadratic sampler indexes its picks instead of listing q^2 pairs
        start = time.perf_counter()
        code, payload = run_json(capsys, "tower", "check", "--q", "65521",
                                 "--g1", "2", "--g2", "2", "--rho", "1")
        assert time.perf_counter() - start < 10.0
        assert code == 0
        assert payload["q"] == 65521 and payload["h1G"] == 6

    @pytest.mark.parametrize("g1, message", [
        (-5, "linear factor count must be >= 0, got -8"),
        (0, "degree 2 < 6 means genus < 2"),
        (1, "degree 4 < 6 means genus < 2"),
    ])
    def test_check_small_genus_exit_2(self, capsys, g1, message):
        code, payload = run_json(capsys, "tower", "check", "--q", "7",
                                 f"--g1={g1}", "--g2", "2", "--rho", "1")
        assert code == 2
        assert payload == {"error": {"kind": "precondition", "message": message}}

    def test_search_even_q_exit_2(self, capsys):
        code, _ = run_json(capsys, "tower", "search", "--q", "4",
                           "--g1", "2..3", "--g2", "2..3", "--rho", "1")
        assert code == 2


_TOWER_Q = st.sampled_from((-3, 0, 1, 2, 3, 4, 5, 6, 9, 11, 25, 67))
_GENUS = st.integers(-2, 40)
_RHO = st.integers(-1, 3)


def _span(values):
    return st.tuples(values, st.integers(0, 2)).map(lambda t: f"{t[0]}..{t[0] + t[1]}")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(action=st.sampled_from(("check", "search")), q=_TOWER_Q,
       g1=_GENUS, g2=_GENUS, rho=_RHO,
       spans=st.tuples(_span(_GENUS), _span(_GENUS), _span(_RHO)),
       joined=st.booleans())
def test_tower_arguments_end_in_json(action, q, g1, g2, rho, spans, joined):
    # every tower input ends in an answer or a structured error, never a
    # traceback: exit 0, 2 (precondition or usage) or 3 (budget), JSON on
    # stdout.  "--name value" with a negative value such as -1..0 is a
    # usage error; "--name=value" passes it to the program.
    values = {"q": q, "g1": g1, "g2": g2, "rho": rho} if action == "check" else \
        {"q": q, "g1": spans[0], "g2": spans[1], "rho": spans[2]}
    argv = ["tower", action]
    for k, v in values.items():
        argv += [f"--{k}={v}"] if joined else [f"--{k}", str(v)]
    _assert_ends_in_json(argv, (0, 2, 3))


def _assert_ends_in_json(argv, codes=(0, 2, 3, 4)):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code in codes
    json.loads(out.getvalue())


_Q = st.sampled_from((2, 3, 4, 5, 9, -1, 1, 6, 8192))
_INT_LIST = st.lists(st.integers(-1, 4), min_size=1, max_size=3).map(
    lambda v: ",".join(str(x) for x in v))


@st.composite
def _surface_argv(draw):
    # mostly well-formed: the divisor has as many coordinates as the
    # surface's Neron-Severi rank unless the draw says otherwise
    surface = draw(st.sampled_from(("p2", "p1xp1", "hirzebruch", "p1xp1",
                                    "hirzebruch", "torus")))
    argv = ["--surface", surface]
    if surface == "hirzebruch":
        e = draw(st.sampled_from((0, 2, 1, -1, None)))
        if e is not None:
            argv.append(f"--e={e}")
    rank = 1 if surface == "p2" else 2
    coords = draw(st.lists(st.integers(-1, 3), min_size=rank, max_size=rank)
                  | st.lists(st.integers(-3, 5), max_size=3))
    argv += [f"--q={draw(_Q)}", "--divisor=" + ",".join(str(c) for c in coords)]
    if draw(st.booleans()):
        argv += ["--points", "grid"]
        for side in ("--grid-a", "--grid-b"):
            value = draw(st.one_of(st.none(), _INT_LIST, st.just("x")))
            if value is not None:
                argv.append(f"{side}={value}")
    return argv


_BOUNDS_OPTIONS = st.lists(st.sampled_from((
    "--exact", "--budget=20000", "--budget=-1", "--gamma=universal-affine",
    "--epsilon=1/2", "--epsilon=-1", "--epsilon=1/0", "--epsilon=x",
    "--xi=2", "--xi=0", "--lift=3", "--lift=0", "--lift=-2")), max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(verb=st.sampled_from(("code", "bounds")), surface=_surface_argv(),
       options=_BOUNDS_OPTIONS)
def test_surface_arguments_end_in_json(verb, surface, options):
    # code build and bounds end in an answer or a structured error
    _assert_ends_in_json(["bounds", *surface, *options] if verb == "bounds"
                         else ["code", "build", *surface])


_BASE_CODE = cd.build_code(sf.quadric_p1xp1(), sf.quadric_p1xp1().divisor(1, 1),
                           3).to_json_dict()
_KEY_PATHS = (("field",), ("field", "p"), ("field", "m"), ("field", "modulus"),
              ("n",), ("k",), ("generator",), ("surface",), ("surface", "kind"),
              ("surface", "params"), ("divisor",), ("point_tag",),
              ("section_count",))


@st.composite
def _mutated_code(draw):
    doc = json.loads(json.dumps(_BASE_CODE))
    n, k = doc["n"], doc["k"]
    kind = draw(st.sampled_from(("drop", "type", "entry", "dependent", "huge")))
    if kind in ("drop", "type"):
        *heads, key = draw(st.sampled_from(_KEY_PATHS))
        owner = doc
        for head in heads:
            owner = owner[head]
        if kind == "drop":
            del owner[key]
        else:
            owner[key] = draw(st.sampled_from(
                ("x", 1.5, None, True, [], {}, -1, 0, 10 ** 30, [1, "a"],
                 {"grid": {"A": [0], "B": "x"}})))
    elif kind == "entry":
        i = draw(st.integers(0, n * k - 1))
        doc["generator"][i] = draw(st.sampled_from((-1, 3, 10 ** 20, 1.0, "1", None)))
    elif kind == "dependent":
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2,
                             unique=True))
        c = draw(st.integers(0, 2))
        doc["generator"][j * n:(j + 1) * n] = [
            c * x % 3 for x in doc["generator"][i * n:(i + 1) * n]]
    else:
        key = draw(st.sampled_from(("n", "k")))
        doc[key] = draw(st.sampled_from((10 ** 5, 10 ** 9, 10 ** 18)))
        if doc[key] == 10 ** 5 and draw(st.booleans()):
            # a generator of the claimed size: one row, or one column
            doc["n"], doc["k"] = (doc["n"], 1) if key == "n" else (1, doc["k"])
            doc["generator"] = [1] * 10 ** 5
    return doc


@settings(max_examples=80, deadline=None, derandomize=True)
@given(doc=_mutated_code(), budget=st.sampled_from((None, 0, 100, 10 ** 6)))
def test_code_json_mutations_end_in_json(doc, budget):
    # code distance on a damaged code document: an answer or a structured
    # error, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = ["code", "distance", "--in", path]
        _assert_ends_in_json(argv + ([f"--budget={budget}"] if budget is not None
                                     else []))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(action=st.sampled_from(("map", "polygon", "diagram")),
       q=st.integers(-2, 12), g=st.integers(-1, 13),
       point=st.sampled_from(("1/9,0", "0,0", "1/0,0", "x,1", "1,2,3", "-1,0",
                              "1/100,1/300", "")),
       grid=st.sampled_from((-1, 0, 1, 2, 5, 600)),
       target=st.sampled_from(("file", "dir", "missing")), svg=st.booleans())
def test_asym_arguments_end_in_json(action, q, g, point, grid, target, svg):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["asym", action, f"--q={q}", f"--g={g}"]
        if action == "map":
            argv.append(f"--point={point}")
        elif action == "diagram":
            out = {"file": os.path.join(tmp, "d.csv"), "dir": tmp,
                   "missing": os.path.join(tmp, "no", "d.csv")}[target]
            argv += [f"--grid={grid}", f"--out={out}"]
            if svg:
                argv.append(f"--svg={os.path.join(tmp, 'd.svg')}")
        _assert_ends_in_json(argv)


class TestAsymCommands:
    def test_map(self, capsys):
        code, payload = run_json(capsys, "asym", "map", "--q", "2", "--g", "2",
                                 "--point", "1/9,0")
        assert code == 0
        assert payload["delta"] == "1/3" and payload["R"] == "1/9"

    def test_polygon(self, capsys):
        code, payload = run_json(capsys, "asym", "polygon", "--q", "2", "--g", "2")
        assert code == 0
        assert set(payload) == {"A1", "B1", "C1", "D1", "A2", "B2", "C2", "D2"}
        assert payload["C2"] == {"delta": "0/1", "R": "1/4"}

    def test_diagram(self, capsys, tmp_path):
        out = tmp_path / "d.csv"
        code, _ = run(capsys, "asym", "diagram", "--q", "2", "--g", "2",
                      "--grid", "5", "--out", str(out))
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "kappa,chi,delta,R,in_domain,singleton_ok,plotkin_ok"

    def test_diagram_same_file_exit_2(self, capsys, tmp_path, monkeypatch):
        # the SVG would overwrite the CSV; refused before either is opened
        monkeypatch.chdir(tmp_path)
        for svg in ("d.csv", "./d.csv", str(tmp_path / "d.csv")):
            code, payload = run_json(capsys, "asym", "diagram", "--q", "2",
                                     "--g", "2", "--out", "d.csv", "--svg", svg)
            assert code == 2
            assert payload["error"]["kind"] == "precondition"
            assert not any(tmp_path.iterdir())

    # sha256 of stdout, computed before the points serialized themselves
    MAP_POINTS = ("1/9,0", "0,5/7", "1/6,0", "1/9,1/18", "3/2,-1/4")
    PINNED_MAP = {
        (2, 2): ("eeb934ef1c69e68f6c8d3224f223bc62012edeff251a6ea51a04c4eee7e22401",
                 "76ff3d2fbb6f18bace5959e8133d9959847e07414364ed493e3c6a3ca315d2f1",
                 "7f1006aeacd2c1d29936140553bb8dc4e02a89615feb7888cf354f2f614cdc9b",
                 "5ae8d11add085932cd2ca23025f963f33323c4a676abcf67d6b9e9c56f6f75c7",
                 "b912fff0702220a75308dba4fcc5a6649a351133e3b96ac1a4e52d7c049fbd3f"),
        (5, 3): ("c0a6768a44df6ba27498997806de6fe442c984d1e35fa455e3169a5f8dc90e15",
                 "76ff3d2fbb6f18bace5959e8133d9959847e07414364ed493e3c6a3ca315d2f1",
                 "7513224cbb04fdf21695c9cd4fa005ce0b7cd3c2cab2cfce6231e1b163ff76cf",
                 "96e088b8692b95af8c05f37ca3ea561174d1efd11c297651b4389b2170a09f03",
                 "883a1e9637098e69910409c3f39559125c00650fbac567b8bcef2a37ef683544"),
        (9, 9): ("0a09a720a3a3ac278ab2c3889ea11634b505b8e8dea2735e8c3f7b64eb0cbec8",
                 "76ff3d2fbb6f18bace5959e8133d9959847e07414364ed493e3c6a3ca315d2f1",
                 "7801ff911357ce7c77a5c67ec3f18e62807d95c14a6f18ab3199f14d1933d9e9",
                 "c2e9a018ff4e99e1e46abb98c7f15352bfca937f743c1d6476270fb4dc60062f",
                 "4333015c4685414a94897a3cf4f8f86e5fe5519006fd118a818764e7c5ae44ec"),
    }
    PINNED_POLYGON = {
        (2, 2): "5db5806cd33f9fbb040d0ed14164b1bad29da50ce0f1bf2fff3a0b7cc579d4d2",
        (5, 3): "b1429b584fb5cb40f849937f81480b76259496a992c81086e7bfaeea5189edb4",
        (9, 9): "757cf5585337917b498db76ade02af514f0fbce015c884546904471d0cd6b9d1",
    }

    @pytest.mark.parametrize("q,g", sorted(PINNED_POLYGON))
    def test_map_and_polygon_pinned(self, capsys, q, g):
        def digest(*argv):
            code, out = run(capsys, "asym", *argv, f"--q={q}", f"--g={g}")
            assert code == 0
            return hashlib.sha256(out.encode()).hexdigest()
        assert tuple(digest("map", f"--point={p}")
                     for p in self.MAP_POINTS) == self.PINNED_MAP[q, g]
        assert digest("polygon") == self.PINNED_POLYGON[q, g]

    def test_map_precondition(self, capsys):
        code, _ = run_json(capsys, "asym", "map", "--q", "2", "--g", "5",
                           "--point", "1/9,0")
        assert code == 2

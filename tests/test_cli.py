import contextlib
import io
import json
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcodes import cli
from surfcodes import codes as cd
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
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code in (0, 2, 3)
    json.loads(out.getvalue())


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

    def test_map_precondition(self, capsys):
        code, _ = run_json(capsys, "asym", "map", "--q", "2", "--g", "5",
                           "--point", "1/9,0")
        assert code == 2

"""The three workloads as fixed job lists built from the seed.

A job is one code (build + exact distance), one certificate or search block,
or one CLI command.  ``run`` does the work that is timed; ``check`` returns
``(failed, problems)``: whether the operation failed, and the ways a
completed result disagrees with the independent checks in ``oracle``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from surfcodes import bounds, codes, gf, surfaces, towers

import catalog
import oracle

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
CHILD_TIMEOUT_S = 150


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, list[str]]]
    work: int


def _surface(kind: str, e: int):
    if kind == "p2":
        return surfaces.projective_plane()
    if kind == "p1xp1":
        return surfaces.quadric_p1xp1()
    return surfaces.hirzebruch(e)


# -- distance ---------------------------------------------------------------

class Distance:
    """build_code then exact_min_distance over the fixed catalog; the seed
    picks the grid subsets and the job order."""

    def __init__(self, rng, tmpdir):
        self.codes = []
        for kind, e, div, q, sizes in catalog.DISTANCE_CODES:
            grid = None
            if sizes is not None:
                grid = (tuple(sorted(rng.sample(range(q), sizes[0]))),
                        tuple(sorted(rng.sample(range(q), sizes[1]))))
            n, k, d = oracle.code_parameters(kind, e, div, q, sizes)
            self.codes.append((kind, e, div, q, grid, n, k, d))
        rng.shuffle(self.codes)
        self.jobs = [self._job(*c) for c in self.codes]

    def _job(self, kind, e, div, q, grid, n, k, d):
        surface = _surface(kind, e)
        tag = "all" if grid is None else "grid"

        def run():
            code = codes.build_code(surface, surface.divisor(*div), q, tag, grid)
            return code, codes.exact_min_distance(code)

        def check(result):
            code, got = result
            want = (n, k, d)
            if (code.n, code.k, got) != want:
                return False, [f"{kind}{div} q={q} {tag}: (n, k, d) = "
                               f"({code.n}, {code.k}, {got}), expected {want}"]
            return False, []

        name = f"{kind}{'' if kind != 'hirzebruch' else e}{div}@{q}/{tag}"
        return Job(name, run, check, (q ** k - 1) // (q - 1))

    def warmup(self):
        for q in catalog.SETUP_FIELDS["distance"][0]:
            gf.field_from_order(q).numpy_tables()
        s = surfaces.quadric_p1xp1()
        codes.exact_min_distance(codes.build_code(s, s.divisor(1, 1), 3))

    def after(self) -> tuple[list[str], dict]:
        """No applicable bound in the report may exceed the exact distance.
        Also returns the catalog make-up figures."""
        problems = []
        tight = 0
        msgs = {"prime": 0, "prime_power": 0}
        for kind, e, div, q, grid, n, k, d in self.codes:
            surface = _surface(kind, e)
            tag = "all" if grid is None else "grid"
            report = bounds.parameter_report(surface, surface.divisor(*div), q,
                                             tag=tag, grid=grid)
            values = [x.value for x in report.entries
                      if x.applicable and x.value is not None]
            if any(v > d for v in values):
                problems.append(f"{kind}{div} q={q}: a bound in {values} exceeds d = {d}")
            tight += bool(values) and max(values) == d
            prime = gf.field_from_order(q).m == 1
            msgs["prime" if prime else "prime_power"] += (q ** k - 1) // (q - 1)
        total = sum(msgs.values())
        info = {"codes": len(self.codes),
                "messages_per_round": total,
                "prime_message_share": msgs["prime"] / total,
                "bound_meets_d_share": tight / len(self.codes)}
        return problems, info


# -- towers -----------------------------------------------------------------

class Towers:
    """The two README certificates at q = 67 and one search block; the seed
    is the branch-polynomial sampling seed."""

    def __init__(self, rng, tmpdir):
        self.seed = rng.randrange(1, 10 ** 6)
        q = catalog.TOWER_Q
        self.jobs = [self._cert_job(q, *t) for t in catalog.TOWER_CERTS]
        self.jobs.append(self._search_job(q, *catalog.TOWER_SEARCH))
        rng.shuffle(self.jobs)

    def _cert_job(self, q, g1, g2, rho):
        def run():
            return towers.hyperelliptic_product_certificate(q, g1, g2, rho, self.seed)

        def check(cert):
            return False, oracle.check_certificate(cert.to_json_dict(), q, g1, g2, rho)

        return Job(f"certificate{(g1, g2, rho)}", run, check, 1)

    def _search_job(self, q, g1s, g2s, rhos):
        want = oracle.search_expected(q, g1s, g2s, rhos)

        def run():
            return towers.search_parameters(q, g1s, g2s, rhos, self.seed)

        def check(certs):
            got = [(c.g1, c.g2, c.rho) for c in certs]
            problems = []
            if sorted(got) != sorted(want) or len(got) != len(set(got)):
                problems.append(f"search returned {got}, expected {sorted(want)}")
            for c in certs:
                problems += oracle.check_certificate(c.to_json_dict(), q, c.g1, c.g2, c.rho)
            return False, problems

        return Job("search", run, check, len(g1s) * len(g2s) * len(rhos))

    def warmup(self):
        gf.field_from_order(catalog.TOWER_Q)
        towers.hyperelliptic_product_certificate(11, 2, 2, 1, self.seed)
        towers.search_parameters(11, [2, 5], [2], [1], self.seed)

    def after(self):
        g1s, g2s, rhos = catalog.TOWER_SEARCH
        computed = [(a, b) for a in g1s for b in g2s
                    if 2 * a + 2 <= catalog.TOWER_Q] * len(rhos)
        genera = {("C", a) for a, _ in computed} | {("D", b) for _, b in computed}
        return [], {"search_candidates": len(g1s) * len(g2s) * len(rhos),
                    "search_certificates": len(computed),
                    "genus_reuse": 2 * len(computed) / len(genera)}


# -- cli --------------------------------------------------------------------

# code JSON inputs for the fault-tracking commands; each must end in
# {"error": ...} with exit 2
_F3 = {"p": 3, "m": 1, "modulus": [0]}
FAULT_INPUTS = {
    "negative_entry.json": {"field": _F3, "n": 4, "k": 1, "generator": [1, -1, 1, 1]},
    "entry_out_of_field.json": {"field": _F3, "n": 4, "k": 1, "generator": [1, 9, 1, 1]},
    "missing_n.json": {"field": _F3, "k": 1, "generator": [1, 1, 1, 1]},
    "dependent_rows.json": {"field": _F3, "n": 4, "k": 2,
                            "generator": [1, 2, 0, 1, 1, 2, 0, 1]},
}


class Cli:
    """The README command list plus an F_64 line code and an F_729 grid code,
    each command in a fresh interpreter, and the five fault-tracking
    commands.  The seed picks the F_729 grid and the tower seed."""

    def __init__(self, rng, tmpdir):
        self.tmpdir = tmpdir
        self.tracer = None              # set by the runner for traced rounds
        for name, doc in FAULT_INPUTS.items():
            with open(os.path.join(tmpdir, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        gq = catalog.CLI_GRID_Q
        grid_a = sorted(rng.sample(range(gq), catalog.CLI_GRID_SIZES[0]))
        grid_b = sorted(rng.sample(range(gq), catalog.CLI_GRID_SIZES[1]))
        seed = rng.randrange(1, 10 ** 6)
        lq = catalog.CLI_LINE_Q
        na, nb = len(grid_a), len(grid_b)
        quadric = ["--surface", "p1xp1", "--q", "3", "--divisor", "1,1"]
        commands = [
            (["code", "build", *quadric, "--points", "all"], [],
             self._code_out(3, 1, 16, 4, 4, d=9)),
            (["code", "build", "--surface", "hirzebruch", "--e", "1", "--q", "3",
              "--divisor", "1,1", "--out", "code.json"], ["code.json"],
             self._code_file("code.json", 3, 1, 16, 3, 3, d=9)),
            (["code", "distance", "--in", "code.json", "--budget", "1000000"], [],
             self._distance_out(3, 1, 16, 3, 9)),
            (["bounds", *quadric, "--exact"], [], self._bounds_out(3, 1, 1, lift=1)),
            (["bounds", *quadric, "--lift", "2"], [], self._bounds_out(3, 1, 1, lift=2)),
            (["tower", "check", "--q", "67", "--g1", "30", "--g2", "30", "--rho", "1",
              "--seed", str(seed)], [], self._cert_out(67, 30, 30, 1)),
            (["asym", "map", "--q", "2", "--g", "2", "--point", "1/9,0"], [],
             self._json_check(lambda doc: oracle.check_asym_map(
                 doc, 2, 2, Fraction(1, 9), Fraction(0)))),
            (["asym", "polygon", "--q", "2", "--g", "2"], [],
             self._json_check(lambda doc: oracle.check_polygon(doc, 2, 2))),
            (["asym", "diagram", "--q", "2", "--g", "2", "--grid", "100",
              "--out", "d.csv", "--svg", "d.svg"], ["d.csv", "d.svg"],
             self._diagram_out(2, 2, 100)),
            (["code", "build", "--surface", "p2", "--q", str(lq), "--divisor", "1",
              "--out", "line.json"], ["line.json"],
             self._code_file("line.json", 2, 6, lq * lq + lq + 1, 3, 3)),
            (["code", "distance", "--in", "line.json"], [],
             self._distance_out(2, 6, lq * lq + lq + 1, 3, lq * lq)),
            (["code", "build", "--surface", "p1xp1", "--q", str(gq), "--divisor", "1,0",
              "--points", "grid", "--grid-a", ",".join(map(str, grid_a)),
              "--grid-b", ",".join(map(str, grid_b)), "--out", "grid.json"], ["grid.json"],
             self._code_file("grid.json", 3, 6, na * nb, 2, 2)),
            (["code", "distance", "--in", "grid.json"], [],
             self._distance_out(3, 6, na * nb, 2, (na - 1) * nb)),
        ]
        self.jobs = [self._job(argv, outputs, check) for argv, outputs, check in commands]
        faults = [["code", "distance", "--in", name] for name in FAULT_INPUTS]
        faults.append(["bounds", *quadric, "--lift", "0"])
        self.jobs += [self._job(argv, [], self._fault) for argv in faults]

    # -- running ------------------------------------------------------------

    def _job(self, argv, outputs, check):
        seen = {}

        def run():
            return self._run_child(argv, outputs)

        def checked(result):
            rc, stdout, files = result
            digest = hashlib.sha256(stdout).hexdigest()
            failed, problems = check(rc, stdout, files)
            if seen.setdefault("stdout", digest) != digest:
                problems.append("stdout differs from the first round")
            return failed, problems

        return Job(" ".join(argv[:2]), run, checked, 1)

    def _run_child(self, argv, outputs):
        trace_path = "-"
        if self.tracer is not None:
            trace_path = os.path.join(self.tmpdir, "child-trace.json")
        cmd = [sys.executable, CHILD, "cli", trace_path, *argv]
        for name in outputs:
            path = os.path.join(self.tmpdir, name)
            if os.path.exists(path):
                os.remove(path)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.tmpdir, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        wall = time.perf_counter() - t0
        files = {}
        for name in outputs:
            path = os.path.join(self.tmpdir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[name] = fh.read()
        if self.tracer is not None:
            self._collect_trace(trace_path, wall,
                                len(stdout) + sum(map(len, files.values())))
        return proc.returncode, stdout, files

    def _collect_trace(self, path, wall, output_bytes):
        """Merge a child's span summary, with the command's process overhead
        (wall time outside cli.main) and the bytes it wrote."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(path)
        main_s = doc["summary"].get("cli.main", {}).get("busy", 0.0)
        self.tracer.add_child(doc["summary"], doc["absent"])
        self.tracer.add_child({"cli.output": {"work": output_bytes},
                               "cli.process_overhead": {"busy": wall - main_s}})

    def warmup(self):
        self._run_child(["asym", "map", "--q", "2", "--g", "2", "--point", "1/9,0"], [])

    def after(self):
        return [], {"commands": len(self.jobs), "fault_commands": len(FAULT_INPUTS) + 1}

    # -- checks ------------------------------------------------------------

    @staticmethod
    def _fault(rc, stdout, files):
        try:
            doc = json.loads(stdout)
        except ValueError:
            doc = None
        fixed = rc == 2 and isinstance(doc, dict) and "error" in doc
        return not fixed, []

    @staticmethod
    def _json_check(fn):
        def check(rc, stdout, files):
            if rc != 0:
                return True, []
            return False, fn(json.loads(stdout))
        return check

    def _code_out(self, p, m, n, k, sections, d=None):
        def fn(doc):
            problems = oracle.check_code_json(doc, p, m, n, k, sections)
            if d is not None and not problems:
                got = oracle.min_weight_prime(oracle.rows_of(doc), p)
                if got != d:
                    problems.append(f"generator has minimum weight {got}, expected {d}")
            return problems
        return self._json_check(fn)

    def _code_file(self, name, p, m, n, k, sections, d=None):
        inner = self._code_out(p, m, n, k, sections, d)

        def check(rc, stdout, files):
            if rc != 0 or name not in files:
                return True, []
            return inner(rc, files[name], files)
        return check

    def _distance_out(self, p, m, n, k, d):
        def fn(doc):
            problems = oracle.check_code_json(doc, p, m, n, k, k)
            if doc.get("d") != d:
                problems.append(f"code distance gave d = {doc.get('d')}, expected {d}")
            return problems
        return self._json_check(fn)

    def _bounds_out(self, q, a, b, lift):
        n = (q + 1) ** 2
        inter = oracle.quadric_interpolating(q, a, b)
        d = (q + 1 - a) * (q + 1 - b)

        def fn(doc):
            problems = []
            entry = next((x for x in doc["entries"] if x["name"] == "interpolating"), None)
            if doc["n"] != lift * n or entry is None or entry["value"] != lift * inter:
                problems.append(f"bounds --lift {lift}: n = {doc['n']}, interpolating "
                                f"{entry}, expected n = {lift * n}, value {lift * inter}")
            if lift == 1:
                if doc["exact"] != {"k": (a + 1) * (b + 1), "d": d}:
                    problems.append(f"bounds --exact gave {doc['exact']}, expected d = {d}")
                over = [x for x in doc["entries"]
                        if x["applicable"] and x["value"] is not None and x["value"] > d]
                if over:
                    problems.append(f"bounds exceed d = {d}: {over}")
            return problems
        return self._json_check(fn)

    def _cert_out(self, q, g1, g2, rho):
        return self._json_check(lambda doc: oracle.check_certificate(doc, q, g1, g2, rho))

    @staticmethod
    def _diagram_out(q, g, grid):
        def check(rc, stdout, files):
            if rc != 0 or set(files) != {"d.csv", "d.svg"}:
                return True, []
            problems = oracle.check_diagram(files["d.csv"].decode(), q, g, grid)
            if json.loads(stdout) != {"written": "d.csv", "svg": "d.svg"}:
                problems.append(f"diagram printed {stdout!r}")
            if not files["d.svg"].startswith(b"<svg"):
                problems.append("d.svg is not an SVG document")
            return False, problems
        return check


WORKLOADS = {"distance": Distance, "towers": Towers, "cli": Cli}

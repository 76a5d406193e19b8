import ast
import builtins
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import surfcodes

LIBRARY = sorted(Path(surfcodes.__file__).parent.rglob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_assert_in_library():
    # python -O strips assert statements, so library invariants must raise
    offenders = []
    for path in LIBRARY:
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(_tree(path))
                      if isinstance(node, ast.Assert)]
    assert offenders == []


def test_exception_classes_only_in_errors():
    # one exception type per exit code: a class whose base is an exception
    # is defined in errors.py only (cli._Parser derives from argparse's
    # ArgumentParser, which is no exception)
    def resolve(node, namespace):
        if isinstance(node, ast.Attribute):
            return getattr(resolve(node.value, namespace), node.attr)
        return namespace[node.id]

    found = []
    for path in LIBRARY:
        name = "surfcodes" if path.stem == "__init__" else f"surfcodes.{path.stem}"
        namespace = {**vars(builtins), **vars(importlib.import_module(name))}
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, type) and issubclass(base, BaseException)
                    for base in (resolve(b, namespace) for b in node.bases)):
                found.append(f"{path.name}:{node.name}")
    assert found == ["errors.py:Precondition", "errors.py:BudgetExceeded",
                     "errors.py:InvariantError"]


def test_print_limit_read_only_in_errors():
    # one owner for the interpreter's limit on printing an int: only
    # errors.py names sys.get_int_max_str_digits, as an attribute, a name or
    # the string getattr looks it up by
    name = "get_int_max_str_digits"
    found = [path.name for path in LIBRARY for node in ast.walk(_tree(path))
             if (isinstance(node, ast.Attribute) and node.attr == name)
             or (isinstance(node, ast.Name) and node.id == name)
             or (isinstance(node, ast.alias) and node.name == name)
             or (isinstance(node, ast.Constant) and node.value == name)]
    assert found == ["errors.py"]


def test_no_builtin_raise_in_library():
    # the CLI reports a builtin ValueError, ZeroDivisionError or
    # RuntimeError as a bug, so no deliberate refusal raises one
    builtin = {"ValueError", "ZeroDivisionError", "RuntimeError"}
    offenders = []
    for path in LIBRARY:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in builtin:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


# prints, after the statement given as argv[1] has run, the surfcodes
# submodules loaded, whether numpy is, which of dataclasses and inspect are,
# and the exit code of cli.main(argv[2:]) when arguments follow (its own
# output is swallowed)
_LOADED = """
import contextlib, io, json, sys
exec(sys.argv[1])
code = None
if sys.argv[2:]:
    from surfcodes import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[2:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "introspection": [m for m in ("dataclasses", "inspect") if m in sys.modules],
                  "loaded": sorted(m[len("surfcodes."):] for m in sys.modules
                                   if m.startswith("surfcodes."))}))
"""


def _loaded(statement, *argv, cwd=None):
    src = str(Path(surfcodes.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _LOADED, statement, *argv], env=env,
                         cwd=cwd, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(out.stdout)


def test_package_import_loads_only_errors():
    # the package names its submodules and their exports lazily (PEP 562):
    # importing it, listing its names and asking for a missing one load
    # nothing more
    statement = ("import surfcodes\n"
                 "assert set(surfcodes.__all__) <= set(dir(surfcodes))\n"
                 "assert not hasattr(surfcodes, 'f2')")
    assert _loaded(statement) == {"code": None, "numpy": False, "introspection": [],
                                  "loaded": ["errors"]}


def test_lazy_names_resolve_to_their_modules():
    assert surfcodes.build_code is surfcodes.codes.build_code
    assert surfcodes.Polynomial is surfcodes.gf.Polynomial


def test_cli_import_leaves_numpy_unloaded():
    # only the distance kernel and the operation tables need numpy; every
    # other verb starts without paying for its import, and the CLI module
    # loads no library module before a verb runs
    assert _loaded("import surfcodes.cli") == {"code": None, "numpy": False,
                                               "introspection": [],
                                               "loaded": ["cli", "errors"]}


def test_field_import_loads_no_records():
    # gf holds no records, so importing it (as the benchmark's set-up probe
    # does) compiles neither records nor a module gf does not use
    assert _loaded("from surfcodes import gf") == {
        "code": None, "numpy": False, "introspection": [], "loaded": ["errors", "gf"]}


_TOWER = ("--q", "67", "--g1", "30", "--g2", "30", "--rho", "1")


@pytest.mark.parametrize("argv, loaded", [
    (("asym", "map", "--q", "2", "--g", "2", "--point", "1/9,0"), ["asymptotic"]),
    (("asym", "polygon", "--q", "2", "--g", "2"), ["asymptotic"]),
    (("asym", "diagram", "--q", "2", "--g", "2", "--grid", "3", "--out", "d.csv"),
     ["asymptotic"]),
    (("tower", "check", *_TOWER), ["fpx", "gf", "towers"]),
    (("tower", "search", *_TOWER), ["fpx", "gf", "towers"]),
    (("code", "build", "--surface", "p1xp1", "--q", "3", "--divisor", "1,1"),
     ["codes", "gf", "surfaces"]),
    (("bounds", "--surface", "p1xp1", "--q", "3", "--divisor", "1,1"),
     ["bounds", "codes", "gf", "surfaces"]),
    (("code", "distance", "--in", "code.json"), ["codes", "gf", "surfaces"]),
    (("bounds", "--surface", "p1xp1", "--q", "3", "--divisor", "1,1", "--exact"),
     ["bounds", "codes", "gf", "surfaces"]),
], ids=["asym_map", "asym_polygon", "asym_diagram", "tower_check", "tower_search",
        "code_build", "bounds", "code_distance", "bounds_exact"])
def test_verb_loads_only_its_modules(tmp_path, argv, loaded):
    # each verb imports the library modules it runs when it runs: the asym
    # verbs no field arithmetic, codes or towers; the tower verbs no codes or
    # bounds; code build no towers, asymptotic or numpy, and over a prime
    # field no prime-field polynomial kernel (fpx).  No verb loads
    # dataclasses, and one that leaves numpy unloaded loads no inspect
    # either (numpy imports inspect itself)
    quadric = surfcodes.surfaces.quadric_p1xp1()
    code = surfcodes.codes.build_code(quadric, quadric.divisor(1, 1), 3)
    (tmp_path / "code.json").write_text(json.dumps(code.to_json_dict()))
    numpy = "distance" in argv or "--exact" in argv
    assert _loaded("pass", *argv, cwd=tmp_path) == {
        "code": 0, "numpy": numpy, "introspection": ["inspect"] if numpy else [],
        "loaded": sorted(["cli", "errors", "records", *loaded])}


def test_trace_targets_resolve():
    # the benchmark tracer records a renamed or deleted target as absent and
    # its layer's figures go silently to zero; every target must resolve but
    # gf.poly_factor, whose full factorization moved to the test oracles, and
    # f2.rank, whose GF(2) ranks left the library with the matrix path (the
    # tracer itself is to be replaced: ROADMAP item 1)
    import importlib
    import importlib.util
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = []
    for modname, attr_path, name, _ in spans.TARGETS:
        try:
            owner = importlib.import_module(modname)
        except ImportError:
            owner = None
        *heads, attr = attr_path.split(".")
        for head in heads:
            owner = getattr(owner, head, None)
        if not callable(vars(owner).get(attr) if owner is not None else None):
            unresolved.append(name)
    assert len(spans.TARGETS) >= 17
    assert unresolved == ["gf.poly_factor", "f2.rank"]


def test_module_map_matches_files():
    # every module file is named in the package docstring's map and in
    # __all__, every module named in the map exists, and every __all__ name
    # resolves under a star import (which also loads a listed submodule the
    # package does not import itself, such as cli, and fails on a stale one)
    files = {path.stem for path in LIBRARY if path.stem != "__init__"}
    assert set(re.findall(r"^\* ``(\w+)``", surfcodes.__doc__, re.MULTILINE)) == files
    assert files <= set(surfcodes.__all__)
    namespace = {}
    exec("from surfcodes import *", namespace)
    assert [name for name in surfcodes.__all__ if name not in namespace] == []


def test_unreferenced_definitions_are_paper_formulas():
    # a top-level function or class that no library module names is run by
    # callers outside the library only; those are the paper's formulas and
    # checks, and a helper that only tests use belongs in tests/
    trees = [_tree(path) for path in LIBRARY]
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = sorted(f"{path.stem}.{node.name}"
                    for path, tree in zip(LIBRARY, trees) if path.stem != "__init__"
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in used)
    assert unused == [
        "asymptotic.product_curve_point",
        "bounds.hansen_curve_bound", "bounds.hansen_curve_bound_uniform",
        "bounds.product_grid_bound", "bounds.seshadri_upper",
        "codes.rational_locus_check",
        "gf.poly_pow_mod",
        "surfaces.noether_identity",
        "towers.gs_check_chi_form", "towers.hyperelliptic_point_count",
        "towers.marked_invariants", "towers.naive_point_count", "towers.r_t_bracket",
        "towers.sample_branch_poly",
    ]

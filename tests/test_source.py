import ast
import os
import subprocess
import sys
from pathlib import Path

import surfcodes


def test_no_assert_in_library():
    # python -O strips assert statements, so library invariants must raise
    offenders = []
    for path in sorted(Path(surfcodes.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []


def test_cli_import_leaves_numpy_unloaded():
    # only the distance kernel and the operation tables need numpy; every
    # other verb starts without paying for its import
    src = str(Path(surfcodes.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, surfcodes.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_trace_targets_resolve():
    # the benchmark tracer records a renamed or deleted target as absent and
    # its layer's figures go silently to zero; every target must resolve
    import importlib
    import importlib.util
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = []
    for modname, attr_path, name, _ in spans.TARGETS:
        owner = importlib.import_module(modname)
        *heads, attr = attr_path.split(".")
        for head in heads:
            owner = getattr(owner, head, None)
        if not callable(vars(owner).get(attr) if owner is not None else None):
            unresolved.append(name)
    assert len(spans.TARGETS) >= 17
    assert unresolved == []

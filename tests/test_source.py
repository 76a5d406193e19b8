import ast
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

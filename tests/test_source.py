import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cyclogcd"


def test_no_assert_in_src():
    # `python -O` strips assert statements, so no certificate may rest on one
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qhtcert"


def test_runtime_imports_only_stdlib_and_numpy():
    # The runtime stays numpy-only: every module of the package may import the
    # standard library, numpy and its own package, nothing else.
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert foreign == []

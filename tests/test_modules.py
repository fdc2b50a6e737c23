import ast
import pathlib

import ealc

SRC = pathlib.Path(ealc.__file__).parent


def test_no_function_local_imports():
    # Every module imports at its top, so the import graph is the one the
    # module headers show and it has no cycle hidden in a function body.
    local = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, (ast.Import, ast.ImportFrom)):
                        local.append("%s:%d" % (path.name, inner.lineno))
    assert local == []

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


def test_term_walks_do_not_recurse():
    # Term walks go through syntax.preorder / fold_term, whose explicit
    # stacks take any depth.  The allowed self-calls are substitution, which
    # runs on every contraction, and the walks over types, which stay
    # shallow.
    allowed = {"subst_term", "subst_type_in_term", "subst_type", "contains_mu",
               "_ty_aeq", "_pty", "truncate_type"}
    recursive = []
    for name in ("syntax.py", "truncate.py", "extract.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = {inner.func.id for inner in ast.walk(node)
                         if isinstance(inner, ast.Call)
                         and isinstance(inner.func, ast.Name)}
                if node.name in calls and node.name not in allowed:
                    recursive.append("%s:%s" % (name, node.name))
    assert recursive == []

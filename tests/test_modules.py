import ast
import collections
import importlib
import os
import pathlib
import re
import subprocess
import sys

import ealc

SRC = pathlib.Path(ealc.__file__).parent
TESTS = pathlib.Path(__file__).resolve().parent


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


def test_sources_parse_as_python_3_10():
    # pyproject.toml promises Python >= 3.10: no except*, type statements
    # or PEP 695 generics
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def _newer_than_3_10(pattern):
    """The possessive quantifiers and atomic groups (re since 3.11) in a
    pattern's text, once each escape and character class is one atom."""
    atoms = re.sub(r"\\.|\[\^?\]?(?:\\.|[^\]\\])*\]", "x", pattern, flags=re.S)
    return re.findall(r"[*+?}]\+|\(\?>", atoms)


def test_patterns_compile_on_python_3_10():
    assert _newer_than_3_10(r"a*+b++c?+d{2}+(?>e)") == ["*+", "++", "?+", "}+", "(?>"]
    assert _newer_than_3_10(r"[*+]\++[]+]+[^]+]+[^\]+]+a+|b{2}") == []
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(
            "ealc" if path.stem == "__init__" else "ealc." + path.stem)
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                found += ["%s:%s %s" % (path.stem, name, bad)
                          for bad in _newer_than_3_10(value.pattern)]
    assert found == []


def _call_graph(tree):
    """{function: the functions it calls} for every function defined in a
    module: a call of a plain name, and a call self.m(...) in a method, go
    to the function of that name, or to method m of the same class."""
    graph = {}

    def add(node, cls):
        calls = graph.setdefault(node.name if cls is None else "%s.%s" % (cls, node.name),
                                 set())
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Call):
                continue
            f = inner.func
            if isinstance(f, ast.Name):
                calls.add(f.id)
            elif (cls is not None and isinstance(f, ast.Attribute)
                  and isinstance(f.value, ast.Name) and f.value.id == "self"):
                calls.add("%s.%s" % (cls, f.attr))

    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add(method, node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add(node, None)
    return graph


def _recursive(graph):
    """The functions of graph that can reach themselves."""
    found = set()
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            f = todo.pop()
            if f == start:
                found.add(start)
                break
            if f in graph and f not in seen:
                seen.add(f)
                todo.extend(graph[f])
    return found


def test_term_walks_do_not_recurse():
    # Walks over terms and types go through syntax.preorder / fold_term,
    # alpha_eq and the printer, the parser and the type checker run on
    # their own explicit stacks, and a regex is read in one scan, so each
    # takes any depth.  Every module of ealc is read.  A function counts
    # as recursive when it can call itself, directly, through other
    # functions of its module or through methods of its class (self.m).
    # The allowed ones are substitution, which runs on every contraction
    # (subst_type calls itself only to rename a binder); the Evaluator,
    # which recurses as deep as the recognizer it runs, since a word enters
    # it as a native value that decide folds over in a loop; and the
    # finite-frame evaluator, whose terms are truncated deciders.
    allowed = {"syntax.py:subst_term", "syntax.py:subst_type_in_term",
               "syntax.py:subst_type", "reduction.py:Evaluator._eval",
               "reduction.py:Evaluator._apply", "reduction.py:Evaluator._force",
               "semantics.py:_eval"}
    recursive = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        recursive += ["%s:%s" % (path.name, f) for f in sorted(_recursive(_call_graph(tree)))]
    assert sorted(set(recursive) - allowed) == []


def test_recursion_check_sees_methods():
    tree = ast.parse("""
class P:
    def term(self):
        return self.atom()

    def atom(self):
        return self.term() if self.more() else 1

    def more(self):
        return False

def walk(t):
    return [walk(c) for c in t]

def ping(n):
    return pong(n)

def pong(n):
    return ping(n - 1) if n else 0
""")
    assert _recursive(_call_graph(tree)) == {"P.term", "P.atom", "walk", "ping", "pong"}


def test_contraction_path_dispatches_on_type():
    # The functions every contraction or type check runs, and the printer,
    # test type(t) with `is`, which costs less than a class-pattern `match`;
    # test_dispatch.py compares them with the match versions they replaced.
    path = {"syntax.py": {"children", "replace_child", "subst_term",
                          "subst_type_in_term", "subst_type", "alpha_eq", "_print"},
            "reduction.py": {"_contract", "_contract_child"},
            "typecheck.py": {"_infer"}}
    seen, matching = set(), []
    for name, functions in path.items():
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in functions:
                seen.add(node.name)
                if any(isinstance(inner, ast.Match) for inner in ast.walk(node)):
                    matching.append("%s:%s" % (name, node.name))
    assert seen == set().union(*path.values())
    assert matching == []


def _names_used(node):
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            yield inner.id
        elif isinstance(inner, ast.Attribute):
            yield inner.attr


def test_every_definition_has_a_caller():
    # A top-level function or class of ealc must be used somewhere besides
    # its own body and the package's export list.  An exported name may be
    # used by the tests alone; any other needs a caller inside ealc, so
    # code only the tests use lives in the tests.
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in files + sorted(TESTS.glob("*.py"))}
    used, used_in_ealc = collections.Counter(), collections.Counter()
    for path, tree in trees.items():
        names = list(_names_used(tree))
        used.update(names)
        if path in files:
            used_in_ealc.update(names)
    exported = set(ealc.__all__)
    unused = []
    for path in files:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            own = sum(1 for name in _names_used(node) if name == node.name)
            callers = used if node.name in exported else used_in_ealc
            if callers[node.name] == own:
                unused.append("%s:%s" % (path.name, node.name))
    assert unused == []


def test_readme_library_snippet_runs():
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    blocks = list(re.finditer(r"```python\n(.*?)```", readme, re.S))
    assert blocks
    for block in blocks:
        # pad with the lines above, so a traceback names README's own line
        above = readme.count("\n", 0, block.start(1))
        exec(compile("\n" * above + block.group(1), "README.md", "exec"), {})


def test_no_dataclasses_or_typing_imports():
    # Records are slotted classes or namedtuples and annotations stay
    # strings, so neither module is needed; importing them would add to
    # the start-up of every `eal` process.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += ["%s:%s" % (path.name, name) for name in names
                      if name.split(".")[0] in ("dataclasses", "typing")]
    assert found == []


def _class_constant(cls, name):
    """The literal value assigned to `name` in the class body, else None."""
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name
                for target in stmt.targets):
            return ast.literal_eval(stmt.value)
    return None


def test_nodes_are_slotted_and_match_their_constructor():
    # Every term and type node declares __slots__, and a concrete node's
    # __match_args__ lists its __init__ parameters in order, so positional
    # patterns read the fields a positional call sets.
    tree = ast.parse((SRC / "syntax.py").read_text(encoding="utf-8"))
    bases = {"Type", "Term"}
    nodes = [node for node in tree.body if isinstance(node, ast.ClassDef)
             and (node.name in bases or any(isinstance(b, ast.Name) and b.id in bases
                                            for b in node.bases))]
    assert len(nodes) == 16
    bad = []
    for cls in nodes:
        if _class_constant(cls, "__slots__") is None:
            bad.append("%s: no __slots__" % cls.name)
        if cls.name in bases:
            continue
        inits = [f for f in cls.body
                 if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
        params = tuple(a.arg for a in inits[0].args.args[1:]) if inits else None
        if params is None or _class_constant(cls, "__match_args__") != params:
            bad.append("%s: __match_args__ is not %r" % (cls.name, params))
    assert bad == []


_RUN_AND_LIST = """
import runpy, sys
sys.argv = ["eal"] + sys.argv[1:]
try:
    runpy.run_module("ealc.cli", run_name="__main__")
except SystemExit as e:
    assert not e.code, e.code
print(" ".join(sorted(m[5:] for m in sys.modules if m.startswith("ealc."))))
"""


def _modules_loaded_by(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", _RUN_AND_LIST] + argv, cwd=cwd, env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(out.splitlines()[-1].split())


def test_each_subcommand_loads_only_its_modules(tmp_path):
    compiled = _modules_loaded_by(["compile", "--regex", "(0|1)*11(0|1)*", "-o", "t.eal"],
                                  tmp_path)
    assert compiled == {"syntax", "typecheck", "encode", "regcompile"}
    for argv in (["extract", "t.eal", "--method", "lstar", "--max-len", "4", "-o", "t.json"],
                 ["verify", "t.eal", "--dfa", "t.json", "--max-len", "4"]):
        assert _modules_loaded_by(argv, tmp_path) == compiled | {"parser", "reduction",
                                                                  "extract"}, argv
    semantic = _modules_loaded_by(["extract", "t.eal", "--method", "semantic",
                                   "--forall-policy", "base", "--base", "1"], tmp_path)
    assert {"semantics", "truncate"} <= semantic


def test_every_error_class_has_one_base():
    # The CLI's exit code for an error is that of its base (1, 2 or 3), so
    # each error class of ealc derives from exactly one of the three.
    # _Failure never leaves the type checker, and VerificationFailed is
    # raised to a library caller only.
    bases = (ealc.InputError, ealc.Unsupported, ealc.ResourceLimit)
    exempt = {"ealc.typecheck._Failure", "ealc.extract.VerificationFailed"}
    checked, bad = [], []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(
            "ealc" if path.stem == "__init__" else "ealc." + path.stem)
        for value in vars(module).values():
            if (isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__ == module.__name__):
                name = "%s.%s" % (module.__name__, value.__name__)
                checked.append(name)
                if name not in exempt and sum(issubclass(value, b) for b in bases) != 1:
                    bad.append(name)
    assert len(checked) >= 17 and bad == []


def test_every_export_resolves():
    for name in ealc.__all__:
        assert getattr(ealc, name) is not None, name
    assert set(ealc.__all__) <= set(dir(ealc))
    names = {}
    exec("from ealc import *", names)
    assert set(ealc.__all__) <= set(names)
    assert callable(ealc.typecheck) and ealc.reduction.__name__ == "ealc.reduction"

"""Guards on the test tooling itself."""

import ast
import hashlib
import json
import sys
from pathlib import Path

import lpmln
import lpmln.cli
import lpmln.engine

ENGINE_SIDE = {"lpmln.engine", "lpmln.inference", "lpmln.asp_backend", "lpmln.mln_backend"}


def _imported_modules(path: Path) -> list[str]:
    """Every module ``path`` imports from, with each name it takes from the
    package root resolved to the module that defines it."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.append(node.module)
            if node.module == "lpmln":
                for alias in node.names:
                    value = getattr(lpmln, alias.name)
                    out.append(getattr(value, "__module__", None) or value.__name__)
    return out


def test_oracle_shares_no_code_with_the_engine():
    # the set-based oracle is the referee; it must not run what it judges
    helpers = Path(__file__).with_name("helpers.py")
    modules = _imported_modules(helpers)
    assert "lpmln" in modules
    assert not ENGINE_SIDE & set(modules), modules


def test_reference_grounder_does_not_call_ground():
    # naive_ground referees the compiled grounder: it must not be it
    from lpmln import grounder

    helpers = Path(__file__).with_name("helpers.py")
    tree = ast.parse(helpers.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("lpmln", "lpmln.grounder"):
            module = lpmln if node.module == "lpmln" else grounder
            assert all(getattr(module, a.name) is not grounder.ground for a in node.names)
        if isinstance(node, ast.Attribute):
            assert node.attr != "ground", ast.unparse(node)
    assert "def naive_ground(" in helpers.read_text(encoding="utf-8")


def test_package_imports_only_the_standard_library():
    # the engine is dependency-free: every import is stdlib or lpmln itself
    for path in sorted(Path(lpmln.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "lpmln" or top in sys.stdlib_module_names, (path.name, name)


def _calls_of(tree: ast.AST, name: str) -> list[ast.Call]:
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name) and n.func.id == name]


def _counts(call: ast.Call) -> bool:
    """Whether ``call`` is ``sum`` of a generator of 1s or of ``<<`` shifts:
    an integer count or bitmask, which adds the same in any order."""
    if len(call.args) != 1 or call.keywords or not isinstance(call.args[0], ast.GeneratorExp):
        return False
    elt = call.args[0].elt
    return (isinstance(elt, ast.Constant) and elt.value == 1
            or isinstance(elt, ast.BinOp) and isinstance(elt.op, ast.LShift))


def test_floats_are_added_and_rounded_by_one_owner_each():
    # sum() compensates on Python 3.12+ and not before, so no value test on
    # one interpreter can see a new float sum(): inference._total adds every
    # float, and inference._scaled is the one caller of round()
    rounds = []
    for path in sorted(Path(lpmln.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for call in _calls_of(tree, "sum"):
            assert _counts(call), (path.name, call.lineno, ast.unparse(call))
        owner = set()
        if path.name == "inference.py":
            scaled = next(n for n in tree.body
                          if isinstance(n, ast.FunctionDef) and n.name == "_scaled")
            owner = {id(n) for n in ast.walk(scaled)}
        for call in _calls_of(tree, "round"):
            assert id(call) in owner, (path.name, call.lineno, ast.unparse(call))
            rounds.append(call)
    assert len(rounds) == 1


def _mentions(tree: ast.AST, name: str) -> list[ast.AST]:
    """Every use of ``name``: as a name, an attribute or an imported name."""
    return [n for n in ast.walk(tree)
            if isinstance(n, ast.Name) and n.id == name
            or isinstance(n, ast.Attribute) and n.attr == name
            or isinstance(n, ast.alias) and n.name == name]


def test_every_private_top_level_definition_has_a_use():
    # a private function or class that nothing else in the package names
    # is dead code: a helper whose last caller went, say
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(lpmln.__file__).parent.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    or not node.name.startswith("_") or node.name.startswith("__"):
                continue
            own = {id(n) for n in ast.walk(node)}
            if all(id(n) in own for t in trees.values() for n in _mentions(t, node.name)):
                unused.append((module, node.name))
    assert unused == []


def test_slices_are_read_back_and_weighed_by_one_owner_each():
    # engine._Records reads back and counts every slice record, of stable
    # models, weighted-formula worlds or one interpretation alike, and
    # inference._weighed, the one caller of _classes, weighs them; the
    # packed-count layout (_fields, _planes), the record layout (_record)
    # and the lane patterns (_slices, _kept_lanes) never leave the engine,
    # and engine._worlds, not mln_backend, decides which worlds to keep
    assert not hasattr(lpmln.engine, "_top_count")  # folded into _worlds
    for path in sorted(Path(lpmln.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "mln_backend.py":
            assert not _mentions(tree, "_Records"), path.name
        if path.name != "engine.py":
            for name in ("_transpose", "_count", "_planes", "_fields", "_record", "_slices",
                         "_kept_lanes"):
                assert not _mentions(tree, name), (path.name, name)
        if path.name != "inference.py":
            assert not _mentions(tree, "_classes"), path.name
            continue
        weighed = next(n for n in tree.body
                       if isinstance(n, ast.FunctionDef) and n.name == "_weighed")
        calls = _calls_of(tree, "_classes")
        assert len(calls) == 1 and calls[0] in list(ast.walk(weighed))


def test_the_substitution_walk_has_one_owner():
    # grounder._walk takes the universe product, filters the inequalities,
    # cuts at the cap and raises the walk's errors, for ground and for the
    # reward text alike: no other module re-walks, and ground calls _walk
    raised = {"GroundingCapError", "EmptyUniverseError"}
    for path in sorted(Path(lpmln.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "grounder.py":
            islices = _calls_of(tree, "islice")
            walk = next(n for n in tree.body
                        if isinstance(n, ast.FunctionDef) and n.name == "_walk")
            assert len(islices) == 1 and islices[0] in list(ast.walk(walk))
            ground = next(n for n in tree.body
                          if isinstance(n, ast.FunctionDef) and n.name == "ground")
            assert _calls_of(ground, "_walk") and not _calls_of(ground, "product")
            continue
        assert not _mentions(tree, "islice"), path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert ast.unparse(exc).split(".")[-1] not in raised, (path.name, node.lineno)
        if path.name == "asp_backend.py":
            assert not _mentions(tree, "product"), path.name
            reward_text = next(n for n in tree.body
                               if isinstance(n, ast.FunctionDef) and n.name == "_reward_text")
            assert _calls_of(reward_text, "_walk")


def test_live_grounding_has_one_derivation():
    # grounder._derive runs every _Join, of a rule with variables or
    # without; facts only seed it, and no rule waits on a counter instead
    assert not hasattr(lpmln.grounder, "_Waiting")  # folded into _Join
    for path in sorted(Path(lpmln.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name != "grounder.py":
            assert not _mentions(tree, "_Join"), path.name
            continue
        derive = next(n for n in tree.body
                      if isinstance(n, ast.FunctionDef) and n.name == "_derive")
        joins = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Attribute) and n.func.attr == "join"
                 and not isinstance(n.func.value, ast.Constant)]  # not str.join
        assert joins and all(n in list(ast.walk(derive)) for n in joins)


def test_cli_output_matches_the_recorded_benchmark_digests(tmp_path, monkeypatch):
    # every CLI op the benchmark can ask for prints the bytes whose SHA-256
    # perfbench/digests.json holds; perfbench/ is only read, bytecode included
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    before = sorted(bench.rglob("*"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(bench))
    import workloads

    rnd = workloads.every_cli_op()
    digests = json.loads(workloads.DIGESTS.read_text(encoding="utf-8"))
    assert sorted(op.key for op in rnd.ops) == sorted(digests)
    wrong = []
    for op, argv in zip(rnd.ops, workloads.prepare(rnd, tmp_path)):
        code, output = workloads.run_op(op, argv, lpmln)
        if (code, hashlib.sha256(output.encode("utf-8")).hexdigest()) != (0, digests[op.key]):
            wrong.append(op.key)
    assert wrong == []
    assert sorted(bench.rglob("*")) == before

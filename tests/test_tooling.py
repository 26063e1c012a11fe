"""Guards on the test tooling itself."""

import ast
import sys
from pathlib import Path

import lpmln

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

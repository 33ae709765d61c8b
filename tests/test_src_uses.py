"""The package ships only what it uses.

Every top-level function and class of src/planecremona, and every method of
such a class other than a dunder, must have a use in src/: its name as an
ast.Name or the attribute of an ast.Attribute anywhere in the package, or
imported by a module other than __init__.py (a re-export is not a use). A
name with no use is dead code, unless the allow-list says why it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "planecremona"

# module.name of each definition that stays with no use in src/, and why
ALLOWED = {
    "cli._Parser.error",            # argparse calls it on a bad command line
    "exactpoly.resultant",          # the elimination that ROADMAP items 9 and 13 build on
    "projmaps.compose",             # perfbench/tracer.py traces it (TRACED); it goes with ROADMAP item 8
}


def _definitions_and_uses():
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{path.stem}.{node.name}.{sub.name}", sub.name) for sub in node.body
                            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (sub.name.startswith("__") and sub.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                used.update(alias.name for alias in node.names)
    return defined, used


def test_every_definition_in_src_has_a_use_in_src():
    defined, used = _definitions_and_uses()
    unused = {qualified for qualified, name in defined if name not in used}
    assert unused - ALLOWED == set()


def test_the_allow_list_names_only_unused_definitions():
    defined, used = _definitions_and_uses()
    assert ALLOWED <= {qualified for qualified, name in defined if name not in used}

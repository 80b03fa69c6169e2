"""Modules of the package use one another only through public names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "braidhom"


def test_no_private_names_imported_across_modules():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith(
                    "braidhom"):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno} imports "
                                 f"{alias.name} from {node.module}")
    assert SRC.is_dir() and not found, found


# Public names that nothing in the package calls, each with its job: the
# validation entry points the acceptance battery runs, and the one public
# map the pipelines reach only through the cube.
CALLED_FROM_OUTSIDE = {
    "hochschild_bimodule": "self-tensor homology, checked against its "
                           "closed form",
    "hochschild_closed_form": "the known answer for the identity bimodule",
    "koszul_resolution_check": "the contraction complex resolves the ring",
    "z_factorization": "the folded potential identity, checked alone",
    "finite_dimensionality_check": "finiteness certificate of cone homology",
    "wall_crossing_map": "the wall-crossing map of one singular letter, "
                         "which the cube builds edge by edge",
}


def names_used(node) -> set:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def uncalled_public_names(trees: dict) -> list:
    """Public module-level functions and classes that no other top-level
    statement of the package names (its own module included)."""
    uses, defined = [], []
    for module, tree in trees.items():
        for node in tree.body:
            owner = getattr(node, "name", None)
            uses.append((module, owner, names_used(node)))
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.append((module, node.name))
    return [f"{module}.{name}" for module, name in defined
            if not any(name in names for m, owner, names in uses
                       if (m, owner) != (module, name))]


def test_every_public_name_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    found = [name for name in uncalled_public_names(trees)
             if name.split(".")[1] not in CALLED_FROM_OUTSIDE]
    assert len(trees) > 10 and not found, found


def test_the_caller_lint_sees_a_name_only_tests_call():
    trees = {"a": ast.parse("def used():\n    pass\n\n"
                            "def lonely():\n    return lonely\n"),
             "b": ast.parse("from .a import used\nused()\n")}
    assert uncalled_public_names(trees) == ["a.lonely"]

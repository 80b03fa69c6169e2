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

"""Names in the package: modules use one another only through public
names, every public name has a user, and the benchmark's spans name code
that exists."""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "braidhom"


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
# map the pipelines reach only through the cube.  The list is checked
# both ways: an entry must name such a function or class.
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


def allowlist_faults(trees: dict, allowlist) -> list:
    """Public names nothing in the package calls that the allowlist
    misses, and allowlist entries that are no such name: not a
    module-level function or class, or called in the package."""
    uncalled = {name.split(".")[1] for name in uncalled_public_names(trees)}
    defined = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return ([f"{name} has no caller" for name in sorted(uncalled)
             if name not in allowlist]
            + [f"{name} is not defined" for name in sorted(allowlist)
               if name not in defined]
            + [f"{name} has a caller" for name in sorted(allowlist)
               if name in defined and name not in uncalled])


def test_every_public_name_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    found = allowlist_faults(trees, CALLED_FROM_OUTSIDE)
    assert len(trees) > 10 and not found, found


def test_the_caller_lint_sees_a_name_only_tests_call():
    trees = {"a": ast.parse("def used():\n    pass\n\n"
                            "def lonely():\n    return lonely\n"),
             "b": ast.parse("from .a import used\nused()\n")}
    assert uncalled_public_names(trees) == ["a.lonely"]
    assert allowlist_faults(trees, {"lonely"}) == []
    assert allowlist_faults(trees, {"lonely", "ghost", "used"}) == [
        "ghost is not defined", "used has a caller"]


def unnamed_public_methods(trees: dict, callers) -> list:
    """Public methods of the classes in trees that no attribute,
    obj.method, in the caller trees names.

    The lint matches names, not objects: a method that shares its name
    with one the callers call (check, add, index) passes although
    nothing calls it."""
    attrs = {sub.attr for tree in callers for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute)}
    return [f"{module}.{cls.name}.{node.name}"
            for module, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_") and node.name not in attrs]


def test_every_public_method_is_named_somewhere():
    # callers are the package and the benchmark, not the tests: a method
    # that only tests call is test code and belongs in the tests
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    bench = [ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "braidbench").rglob("*.py"))
             if not path.name.startswith("test_")]
    found = unnamed_public_methods(trees, [*trees.values(), *bench])
    assert len(trees) > 10 and bench and not found, found


def test_the_method_lint_sees_a_method_only_tests_call():
    trees = {"a": ast.parse("class K:\n    def used(self):\n        pass\n\n"
                            "    def lonely(self):\n        pass\n"),
             "b": ast.parse("from .a import K\nK().used()\n")}
    test_module = ast.parse("from a import K\nK().lonely()\n")
    assert unnamed_public_methods(trees, trees.values()) == ["a.K.lonely"]
    assert unnamed_public_methods(trees, [*trees.values(), test_module]) == []


def traced_names() -> set:
    """Every span metric name braidbench's tracer records on the
    package: it wraps the functions and methods of the layer modules,
    __init__ as init, but no property, other dunder or generator."""
    spec = importlib.util.spec_from_file_location(
        "braidbench_spans", ROOT / "braidbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for path in sorted(SRC.glob("*.py")):
        importlib.import_module(f"braidhom.{path.stem}")
    tracer = spans.Tracer()
    with tracer:
        return tracer.metric_names()


def untraced(metrics, known: set) -> list:
    """The self_s and calls metrics among metrics that no span records."""
    return [m for m in metrics if m.rpartition(".")[2] in ("self_s", "calls")
            and m not in known]


def test_benchmark_spans_name_code_that_exists():
    # braidbench/run.py --trace 1 stops on a declared metric that no span
    # records; span names are module[.class].function, init for __init__
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in bench["per_layer"]]
    assert untraced(names, traced_names()) == [] and any(
        m.endswith(".calls") for m in names)


def test_the_span_lint_sees_code_the_tracer_leaves_alone():
    known = traced_names()
    wrapped = ["linalg.Echelon.init.calls", "linalg.RowSpace.add.self_s",
               "homology.slice_subquotient.calls", "mfact.self_s"]
    left_alone = ["linalg.Echelon.rank.calls",  # a property
                  "linalg.Echelon.__init__.calls",  # spans say init
                  "homology.TriGradedSpace.__eq__.calls",  # a dunder
                  "braid.Word.resolutions.calls",  # a generator, no layer
                  "linalg.RowSpace.contains.self_s"]  # no such method
    assert untraced(wrapped + left_alone, known) == left_alone

"""What a ``realearn`` process imports: the package resolves its exports
on first access, and each subcommand loads only the modules it runs."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"

# run the CLI, then report the realearn modules loaded, on stderr
PROBE = """import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write("\\nmodules " + " ".join(sorted(
    m for m in sys.modules if m.startswith("realearn."))) + "\\n"))
runpy.run_module("realearn", run_name="__main__", alter_sys=True)
"""

TREE = {"_record", "cli", "errors", "replay", "trace"}
COMMON = TREE - {"replay"} | {"inputs", "reals"}

# every name `from realearn import ...` gave before the exports were
# lazy, by a module that holds it (read_trace moved from inputs to
# trace, the certificate and its audit from convex to geometry, and
# PathMismatch from oracle to replay, which raises it), but for
# orientation_real, which only geometry and convex import now
EXPORTS = {
    "convex": ["ConvexAngleResult", "TooFewPoints", "convex_angle"],
    "geometry": ["BoundingCertificate", "CertificateFailure",
                 "DegenerateInput", "Left", "NoWitnessFound", "Point",
                 "RationalPoint", "Right", "SideDecision", "decide_side",
                 "three_points", "verify_bounding"],
    "knowledge": ["Assumed", "Falsified", "KnowledgeState", "LeqEvidence",
                  "Refl", "ReflFalsified", "Step", "UnsoundWitness", "blame",
                  "check_leq", "empty_state", "extend", "is_sound"],
    "least": ["Auditor", "Challenge", "ForcedChallengeDenied",
              "LeastCandidate", "LearnOutcome", "NullAuditor",
              "RestartBudgetExceeded", "ScriptedAuditor", "learn_least",
              "least_candidate"],
    "oracle": ["OracleAuditor", "TieDetected",
               "exact_convex_check", "exact_min_index", "exact_orientation",
               "separation_from_gap"],
    "reals": ["InvalidNesting", "RealNum", "RealRegistry",
              "find_strict_witness", "least_witness", "op_at"],
    "replay": ["PathMismatch", "ReplayVerdict", "replay_paths"],
    "trace": ["TraceEvent", "TraceLog", "read_trace"],
}


def loaded_by(*args):
    proc = subprocess.run([sys.executable, "-c", PROBE, *map(str, args)],
                          capture_output=True, text=True, cwd=REPO)
    head, _, modules = proc.stderr.rpartition("\nmodules ")
    assert modules, proc.stderr
    return proc.returncode, {m[len("realearn."):] for m in modules.split()}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    paths = {"trace": root / "quad.trace", "result": root / "quad.json"}
    code, _ = loaded_by("convex", FIXTURES / "quad_points.jsonl", "--trace",
                        paths["trace"], "--result", paths["result"])
    assert code == 0
    return paths


def test_each_command_loads_only_the_modules_it_runs(files):
    reals = FIXTURES / "worked_example_reals.jsonl"
    quad = FIXTURES / "quad_points.jsonl"
    expected = [
        (("tree", files["trace"]), TREE),
        (("least", reals), COMMON | {"knowledge", "least"}),
        (("least", reals, "--auditor", "oracle"),
         COMMON | {"knowledge", "least", "oracle"}),
        (("convex", quad),
         COMMON | {"convex", "geometry", "knowledge", "least"}),
        # check rebuilds the recorded state with knowledge, and loads no
        # learner: no least or convex module
        (("check", files["result"], quad),
         COMMON | {"geometry", "knowledge", "oracle"}),
    ]
    for args, modules in expected:
        loaded = loaded_by(*args)
        assert loaded == (0, modules), args


def test_importing_the_package_loads_no_submodule():
    probe = ("import sys, realearn; print(sorted(m for m in sys.modules "
             "if m.startswith('realearn.')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_export_resolves_to_its_module_object(module):
    import importlib

    import realearn

    home = importlib.import_module(f"realearn.{module}")
    for name in EXPORTS[module]:
        namespace = {}
        exec(f"from realearn import {name}", namespace)
        assert namespace[name] is getattr(home, name), name
        assert name in realearn.__all__


def test_the_export_table_names_nothing_else():
    import realearn

    names = sorted(name for names in EXPORTS.values() for name in names)
    assert realearn.__all__ == names
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        realearn.nothing
    from realearn import cli
    assert cli.FAILURES


def test_exit_code_exceptions_live_in_one_leaf_module():
    # the modules that raise them re-export them: see EXPORTS above
    source = (REPO / "src" / "realearn" / "errors.py").read_text()
    assert not [node for node in ast.walk(ast.parse(source))
                if isinstance(node, (ast.Import, ast.ImportFrom))]
    import realearn.errors
    from realearn import cli

    assert {cls for cls, _, _ in cli.FAILURES} - {OSError} == {
        value for value in vars(realearn.errors).values()
        if isinstance(value, type)}


# import every module of realearn afresh, six times; then report how
# many realearn classes the first import made and how many are alive
REIMPORT = """import gc, importlib, pkgutil, sys
def load():
    for name in [m for m in sys.modules if m.split(".")[0] == "realearn"]:
        del sys.modules[name]
    package = importlib.import_module("realearn")
    for module in pkgutil.iter_modules(package.__path__):
        if module.name != "__main__":
            importlib.import_module(f"realearn.{module.name}")
def classes():
    gc.collect()
    return sum(isinstance(o, type) and o.__module__.split(".")[0] == "realearn"
               for o in gc.get_objects())
load()
once = classes()
for _ in range(5):
    load()
print(once, classes())
"""


def test_a_fresh_import_lets_the_earlier_ones_go():
    # a typing subscription of a realearn class at module level (such
    # as Union[Left, Right]) is cached by typing and keeps the module's
    # classes, and so the module, alive after it is re-imported
    proc = subprocess.run([sys.executable, "-c", REIMPORT],
                          capture_output=True, text=True, check=True)
    once, alive = map(int, proc.stdout.split())
    assert once > 30
    assert alive == once


# top-level imports that their module keeps without using them, each
# with its reason
UNUSED_IMPORTS = {
    ("geometry", "op_at"): "perfbench/tracing.py wraps it here",
    ("convex", "extend"): "perfbench/tracing.py wraps it here",
    ("convex", "least_candidate"): "perfbench/tracing.py wraps it here",
    ("convex", "orientation_real"): "perfbench/tracing.py wraps it here",
    ("convex", "verify_bounding"): "re-exported from geometry",
}


def _top_level_imports(body):
    """The ``(name, node)`` of each name bound by an import outside any
    function or class, ``if`` and ``try`` blocks included."""
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, (ast.If, ast.Try)):
            for block in ("body", "orelse", "finalbody", "handlers"):
                for inner in getattr(node, block, ()):
                    yield from _top_level_imports(
                        inner.body if isinstance(inner, ast.excepthandler)
                        else [inner])


def _names_used(tree):
    """Every name the module reads, counting the names inside string
    annotations such as ``-> "TraceEvent"``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations.append(node.returns)
            annotations.extend(arg.annotation for arg in [
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                args.vararg, args.kwarg] if arg is not None)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield from _names_used(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id


@pytest.mark.parametrize("path", sorted(
    (REPO / "src" / "realearn").glob("*.py")), ids=lambda path: path.stem)
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = set(_names_used(tree))
    unused = {name for name in _top_level_imports(tree.body)
              if name not in used}
    assert unused == {name for module, name in UNUSED_IMPORTS
                      if module == path.stem}

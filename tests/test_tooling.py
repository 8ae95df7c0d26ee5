"""Guards on how the package is written and run: no ``assert`` statements in
the sources, the same answers with ``python -O``, which strips them, no
private name imported from another module, and the layer modules and result
shapes the benchmark reads still exist."""

import ast
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Runs each argv through the CLI in one process and prints, as JSON, the
# optimisation flag and (exit code, stdout, stderr) per argv.
RUNNER = """
import contextlib, io, json, sys
from torickit.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"optimize": sys.flags.optimize, "results": results}))
"""


def test_no_assert_statements_in_src():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) >= 15
    found = [
        "%s:%d" % (path.relative_to(SRC), node.lineno)
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_private_names_imported_across_modules_in_src():
    # a leading underscore marks a name private to its module; another
    # module that needs it should go through a public function
    files = sorted(SRC.rglob("*.py"))
    found = [
        "%s:%d %s" % (path.relative_to(SRC), node.lineno, alias.name)
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "torickit")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_src_reads_no_environment_variable():
    # every setting comes from the command line or the call, so a run is
    # reproduced by its arguments alone
    found = [
        "%s:%d" % (path.relative_to(SRC), node.lineno)
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv", "getenvb"))
        or (isinstance(node, ast.Name) and node.id in ("environ", "getenv"))
        or (isinstance(node, ast.alias) and node.name in ("environ", "environb", "getenv", "getenvb"))
    ]
    assert found == []


def test_every_helper_in_src_is_referenced():
    # no unused helpers: every function and class defined in src/, dunders
    # aside, is named somewhere in src/ or tests/ (a name, an attribute, an
    # import or an __all__ entry)
    definitions, referenced = [], set()
    for path in sorted(SRC.rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                referenced.update(ast.literal_eval(node.value))
            elif path.is_relative_to(SRC) and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    definitions.append((node.name, "%s:%d" % (path.relative_to(SRC), node.lineno)))
    assert len(definitions) >= 150
    assert [where + " " + name for name, where in definitions if name not in referenced] == []


def _run(flags, argvs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", RUNNER, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return json.loads(proc.stdout)


def test_cli_answers_unchanged_under_python_O(tmp_path):
    wall = tmp_path / "conifold_wall.json"
    wall.write_text(json.dumps({"r": 1, "m": 4, "weights": [[1], [1], [-1], [-1]], "omega": ["0"]}))
    argvs = [
        [command, *source, *extra]
        for source in (["--example", "conifold"], ["--data", str(wall)])
        for command, extra in (
            ("validate", []),
            ("anticones", []),
            ("euler", ["--class", "O(1)"]),
            ("hrr-check", ["--order", "2"]),
        )
    ]
    # p12 has a Z/2 point, so the isotropy projection acts there
    argvs += [["euler", "--example", "p12", "--class", "O(1)"], ["hrr-check", "--example", "p12", "--order", "2"]]
    # P(1,2,3) has a Z/3 point, so the index formula sums conjugate sectors
    # and checks that the sum is rational
    p123 = tmp_path / "p123.json"
    p123.write_text(json.dumps({"r": 1, "m": 3, "weights": [[1], [2], [3]], "omega": ["1"]}))
    argvs += [["hrr-check", "--data", str(p123), "--class", "O(1)", "--order", "2"]]
    # every branch of the wall-crossing dispatch, across the conifold flop
    # and the kp2 flop to C^3/Z_3
    argvs += [
        [command, "--example", name, *extra]
        for name in ("conifold", "kp2")
        for command, extra in (
            ("fixed-points", []),
            ("wallcross", []),
            ("windows", []),
            ("windows", ["--lift", "O(1)"]),
            ("windows", ["--check-fm", "O(0)", "O(1)"]),
            ("fm-check", ["--L", "O(0)", "--M", "O(1)"]),
        )
    ]
    plain, optimized = _run([], argvs), _run(["-O"], argvs)
    assert (plain["optimize"], optimized["optimize"]) == (0, 1)
    assert optimized["results"] == plain["results"]
    # at omega = 1 all four succeed; at omega = 0 validate reports the failures
    # and euler and hrr-check refuse the data as an input error; both FM
    # checks pass on both flops
    assert [code for code, _, _ in plain["results"]] == [0, 0, 0, 0, 1, 0, 2, 2, 0, 0, 0] + [0] * 12


def test_benchmark_layer_modules_import():
    # benchmark/tracing.py looks each layer module up in sys.modules, so a
    # deleted or renamed module would fail the benchmark run
    tree = ast.parse((ROOT / "benchmark" / "tracing.py").read_text())
    modules = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYER_MODULES" for t in node.targets)
    )
    assert len(modules) >= 10
    for name in modules:
        assert importlib.import_module(name).__name__ == name


def test_benchmark_probes_pass_their_checks(monkeypatch):
    # benchmark/workloads.py turns results into plain data by reading their
    # attributes (graded pieces' num and den, coefficients' n and coeffs,
    # factors' c and mu); a change to those shapes fails here, not only in
    # a benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    rng = random.Random(0)
    for name, build in workloads.WORKLOADS.items():
        battery = build()
        assert battery.probes, name
        for probe in battery.probes:
            op = battery.op(probe)
            assert op.check(op.run(), rng), (name, probe)

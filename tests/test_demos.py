"""The demos, README's example and the benchmark's workloads stay in step with the package.

Demos 01 and 02 and README's python blocks take about a second each and are
run; the other demos train for tens of seconds to minutes, so only the names
they import from fbc2c and the arguments they pass to those names are
checked.  The same check covers ``perfbench/workloads.py``, whose workloads
that only build a config also build it here; ``darcy_transfer`` runs once,
against its ``REFERENCE``.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def test_all_six_demos_are_found():
    assert [path.name[:2] for path in DEMOS] == ["01", "02", "03", "04", "05", "06"]


def _fbc2c_imports(tree):
    """(module, alias) of every ``from fbc2c... import`` name in a demo's syntax tree."""
    return [(node.module, alias) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "fbc2c"
            for alias in node.names]


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_imports_exist(demo):
    imported = _fbc2c_imports(ast.parse(demo.read_text(), filename=str(demo)))
    assert imported
    missing = [f"{module}.{alias.name}" for module, alias in imported
               if not hasattr(importlib.import_module(module), alias.name)]
    assert missing == []


def _callee(func, imported):
    """(name, object) of a call to an imported fbc2c name or to an attribute of one, else None."""
    if isinstance(func, ast.Name) and func.id in imported:
        return func.id, imported[func.id]
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and inspect.ismodule(imported.get(func.value.id))):
        return f"{func.value.id}.{func.attr}", getattr(imported[func.value.id], func.attr)
    return None


@pytest.mark.parametrize("demo", DEMOS + [WORKLOADS],
                         ids=[path.stem for path in DEMOS] + ["perfbench_workloads"])
def test_demo_calls_pass_only_parameters_that_exist(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imported = {alias.asname or alias.name: getattr(importlib.import_module(module), alias.name)
                for module, alias in _fbc2c_imports(tree)}
    calls = [(node, callee) for node in ast.walk(tree) if isinstance(node, ast.Call)
             for callee in [_callee(node.func, imported)] if callee]
    assert calls
    refused = []
    for call, (name, target) in calls:
        # binding checks the count of positional arguments and the keyword
        # names, not the values, so each argument stands in as None
        try:
            inspect.signature(target).bind_partial(
                *[None] * len(call.args), **{kw.arg: None for kw in call.keywords})
        except TypeError as exc:
            refused.append(f"line {call.lineno}: {name}: {exc}")
    assert refused == []


@pytest.mark.parametrize("name", ["darcy_train", "poisson2d_sweep"])
def test_workloads_that_only_build_a_config_prepare(monkeypatch, name):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are made
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
    workload.prepare()
    assert workload.config.input_encode.method == "tsvd"


def _run_without_warnings(args, **environ):
    """Run python on ``args`` from the repo root, with the source tree first and warnings as
    errors; ``environ`` adds to the environment."""
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-W", "error", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


@pytest.mark.parametrize("demo", DEMOS[:2], ids=[path.stem for path in DEMOS[:2]])
def test_quick_demo_runs_without_warnings(demo):
    assert _run_without_warnings([str(demo)]).stdout


def test_readme_python_blocks_run_without_warnings():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        _run_without_warnings(["-c", block])


# One darcy_transfer call at the default seed, as a benchmark worker makes it.
_TRANSFER_CALL = """
import json, sys
sys.path.insert(0, "perfbench")
import workloads
workload = workloads.WORKLOADS["darcy_transfer"](workloads.DEFAULT_SEED)
workload.prepare()
outcome = workload.check(workload.call(None), None)
print(json.dumps({"error": outcome.test_rel_err, "problems": outcome.problems,
                  "reference": workloads.REFERENCE["darcy_transfer"],
                  "rtol": workloads.REFERENCE_RTOL}))
"""


def test_transfer_workload_stays_within_its_reference_at_the_default_seed():
    # the benchmark checks REFERENCE only in a run at the default seed on one
    # BLAS thread; this makes the same check on every test run (about 4 s)
    pin = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    result = json.loads(_run_without_warnings(["-c", _TRANSFER_CALL], **pin).stdout)
    assert result["problems"] == []
    assert abs(result["error"] - result["reference"]) <= result["rtol"] * result["reference"]

"""Smoke test of the benchmark at tiny problem sizes.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py

Checks the plumbing, not the numbers: every workload runs untraced and
traced, emits exactly the metrics BENCHMARK.json names, and fails no solve.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))


def run(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--profile", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_workload_names_match_spec():
    import run as run_mod
    import workloads
    names = [w["name"] for w in SPEC["workloads"]]
    assert list(run_mod.WORKLOADS) == names
    assert list(workloads.WORKLOADS) == names
    assert list(workloads.EXPECTED_OPS) == names


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec})
    record = json.loads((BENCH / "results" /
                         f"{workload}-seed3-trace{trace}.json").read_text())
    assert record["fail_ratio"] == 0
    assert record["stamp"]["seed"] == 3 and record["stamp"]["trace"] == bool(trace)


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = run("km-torsion", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_restores_every_binding():
    import dkpair
    from tracer import FUNCTION_OPS, Tracer

    def bindings():
        return {(name, attr): val for name, mod in sys.modules.items()
                if name == "dkpair" or name.startswith("dkpair.")
                for attr, val in vars(mod).items() if callable(val)}

    before = bindings()
    norm_inf = dkpair.AlgElement.norm_inf
    tracer = Tracer()
    tracer.install()
    try:
        for modname, names in FUNCTION_OPS.values():
            for name in names:
                assert getattr(sys.modules[modname], name) is not before[(modname, name)]
        assert dkpair.AlgElement.norm_inf is not norm_inf
        assert dkpair.flatten is sys.modules["dkpair.kclass"].flatten
    finally:
        tracer.uninstall()
    assert bindings() == before
    assert dkpair.AlgElement.norm_inf is norm_inf

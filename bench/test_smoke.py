"""Smoke test of the benchmark harness at a tiny length.

Run from the repository root: python3 -m pytest bench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402

from ttsa.config import parse_config  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_config_parses(name):
    workload = WORKLOADS[name]
    config = parse_config(workload.config_text(123))
    assert config.run_n_final == workload.n_final
    if workload.command == "montecarlo":
        assert config.mc_base_seed == 123
        assert config.mc_replications == workload.replications
        assert config.mc_checks == workload.checks
    else:
        assert config.run_seed == 123


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    proc = run_bench("--workload", name, "--seconds", "0", "--trace", str(trace),
                     "--n-final", "200")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == (5 if trace else 4)  # one warm-up run
    spec = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}
    # the work counts hold at any length, even where a verdict does not
    assert "work counts" not in proc.stdout
    text = "\n".join(lines[:-1])
    for m in SPEC["end_to_end"]:
        assert f"\n{m['name']} " in text and f" {m['unit']} " in text
    assert "\nfailed_share " in text
    assert "\n# unscaled medians: ns_per_rep_step " in text
    if trace:
        assert 0 < result["metrics"]["trace.coverage"]["value"] <= 100


def test_same_seed_same_output_and_seed_changes_it(tmp_path):
    def digests(seed):
        out = tmp_path / f"result-{seed}.json"
        proc = run_bench("--workload", "trajectory", "--seconds", "0", "--n-final", "200",
                         "--seed", str(seed), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        runs = json.loads(out.read_text())["trajectory/trace0"]["runs"]
        return {r["digest"] for r in runs}

    first = digests(5)
    assert len(first) == 1
    assert first == digests(5)
    assert first != digests(6)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "linear-clt", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Self-tests of the benchmark, on the reduced ``smoke`` workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def invoke(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stdout


def smoke(seed, trace):
    code, out = invoke("--workload", "smoke", "--seed", str(seed),
                       "--seconds", "0.5", "--trace", str(trace))
    return code, json.loads(out.strip().splitlines()[-1])


def test_exact_counters_repeat_across_runs():
    first = smoke(3, 1)
    second = smoke(3, 1)
    for code, result in (first, second):
        assert code == 0 and result["correct"] and result["failed"] == 0
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
        for _, r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["energy.tables_built"] > 0
    assert counts[0]["verify.rmatrix_checks"] > 0


def test_untraced_run_prints_every_end_to_end_metric():
    code, result = smoke(4, 0)
    assert code == 0 and result["correct"]
    assert result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def main_result(capsys, seed=5):
    code = run.main(["--workload", "smoke", "--seed", str(seed),
                     "--seconds", "0.2", "--trace", "0"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_broken_charge_grading_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(sys.modules["kncrystals.qpoly"], "charge", lambda b: 0)
    code, result = main_result(capsys)
    assert code == 1
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_broken_energy_fails_every_query(monkeypatch, capsys):
    monkeypatch.setattr(sys.modules["kncrystals.energy"], "energy_DL", lambda b: 1)
    code, result = main_result(capsys)
    assert code == 1
    # every query of every round fails
    assert result["failed"] > result["attempted"] // 2


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = invoke("--workload", "scan_C", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert out == ""


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", ["scan_C", "walks_C", "hw_A", "smoke"])
def test_every_part_has_a_pinned_digest(name):
    w = workloads.WORKLOADS[name]
    assert set(workloads.PINNED[name]) == {p.label for p in w.parts}
    assert set(w.layers) <= set(layers.PROBES)

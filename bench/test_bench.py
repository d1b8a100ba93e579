"""Self-tests of the benchmark, at a tiny size (one or two instances per workload).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

assert run.load_program() is not None
import workloads  # noqa: E402
from workloads import REFERENCE_INSTANCES, WORKLOADS  # noqa: E402

TABLE = {name: betti for name, *_, betti in REFERENCE_INSTANCES}
TINY = {
    "analyze": ["d2-M4-w3"],
    "oracle": ["d2-M4-w3"],
    "certify": ["d2-M4-w3"],
    "homology": ["d3-M2-w11"],
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload, trace, table=TABLE):
    out = io.StringIO()
    code = run.run_benchmark(workload, run.DEFAULT_SEED, 0, trace, table, TINY[workload], out)
    record, result = (json.loads(line) for line in out.getvalue().splitlines()[-2:])
    return code, record["record"], result


@pytest.fixture(scope="module")
def tiny_runs():
    return {(w, t): tiny_run(w, t) for w in TINY for t in (0, 1)}


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(tiny_runs, workload, trace):
    code, record, result = tiny_runs[(workload, trace)]
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert record["seed"] == run.DEFAULT_SEED
    assert record["fail_ratio"] == {"value": 0.0, "unit": "ratio", "base": f"0 of {result['attempted']}"}
    for key in ("python", "numpy", "nproc", "git_commit", "TOPOBETTI_MAX_CELLS"):
        assert key in record["environment"]
    assert record["environment"]["threads"] in (1, None)
    for name in TINY[workload]:
        solve = record["instances"][name][f"solve_s.{name}"]
        assert solve["unit"] == "s" and solve["n"] >= 1 and solve["value"] > 0
        if not trace:
            assert record["instances"][name]["raw_solve_s"] > 0


def test_workloads_cover_the_reference_instances():
    assert WORKLOADS["analyze"].instances == tuple(TABLE)
    assert WORKLOADS["oracle"].instances == tuple(TABLE)


def test_d2_m4_w3_arrangement_counts(tiny_runs):
    _, record, result = tiny_runs[("analyze", 1)]
    counts = record["instances"]["d2-M4-w3"]["counts"]
    assert counts["arrangement.cells"] == 657
    assert [counts[f"arrangement.cells.dim{k}"] for k in range(3)] == [185, 328, 144]
    assert counts["arrangement.hyperplanes"] == 114
    assert result["metrics"]["arrangement.cells"]["value"] == 657


def test_wrong_expected_vector_fails_every_operation():
    table = dict(TABLE, **{"d2-M4-w3": (12, 5)})
    r = run.Run("analyze", run.DEFAULT_SEED, table, trace=False, instances=["d2-M4-w3"])
    r.setup()
    r.measure(0)
    assert r.attempted == r.failed == 2
    assert all("betti (12, 4) != (12, 5)" in f for f in r.failures)


def test_wrong_expected_vector_makes_the_command_fail(monkeypatch, capsys):
    wrong = tuple(
        (name, *rest, (12, 5)) if name == "d2-M4-w3" else (name, *rest, betti)
        for name, *rest, betti in REFERENCE_INSTANCES
    )
    monkeypatch.setattr(workloads, "REFERENCE_INSTANCES", wrong)
    code = run.main(["--workload", "analyze", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0 and p.stdout == ""


def test_normalised_seconds_scale_with_the_work():
    import fidelity

    ratios = fidelity.measure("homology", "d3-M2-w11", (1, 2), 3)[2]
    assert ratios["n"] >= 5
    for clock in ("normalised", "raw"):
        assert abs(ratios[clock] / 2 - 1) < 0.2, ratios

"""Record bench/baseline.json for the current tree.

    python3 bench/make_baseline.py

For every workload it runs bench/run.py three times, one run at a time: untraced
on the default seed, traced on the default seed and traced on the hold-out
seed, each for BENCHMARK.json's run_seconds.  It keeps each run's record and
result, and checks that the arrangement and oracle counts do not depend on
the seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import DEFAULT_SEED, HOLDOUT_SEED  # noqa: E402

SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
WORKLOADS = ("analyze", "oracle", "certify", "homology")
SEED_FREE = ("analyze", "oracle")  # workloads whose counts must not depend on the seed


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    lines = p.stdout.splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} printed no result:\n{p.stderr}")
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    return {"exit_code": p.returncode, "record": record, "result": result}


def counts(run):
    return {name: inst["counts"] for name, inst in run["record"]["instances"].items()}


def unaccounted(plain, traced, name):
    """What the stage spans leave out of one operation on the instance, two ways.

    unaccounted_s is measured inside each traced operation; untraced_minus_stages_s
    is the untraced run's raw solve_s less the traced stages, so it also holds
    the drift between the two runs and the tracing overhead, with its sign.
    """
    inst = traced["record"]["instances"][name]
    stages_s = inst["traced_s"]["value"] - inst["unaccounted_s"]
    untraced_s = plain["record"]["instances"][name]["raw_solve_s"]
    return {
        "unaccounted_s": inst["unaccounted_s"],
        "unaccounted_share": inst["unaccounted_share"],
        "untraced_minus_stages_s": untraced_s - stages_s,
        "untraced_minus_stages_share": (untraced_s - stages_s) / untraced_s,
    }


def main():
    out = {
        "command": "python3 bench/make_baseline.py",
        "seconds": SECONDS,
        "seeds": {"default": DEFAULT_SEED, "holdout": HOLDOUT_SEED},
        "workloads": {},
    }
    ok = True
    for w in WORKLOADS:
        plain = bench(w, DEFAULT_SEED, SECONDS, 0)
        traced = bench(w, DEFAULT_SEED, SECONDS, 1)
        holdout = bench(w, HOLDOUT_SEED, SECONDS, 1)
        runs = (plain, traced, holdout)
        entry = {
            "end_to_end": plain["result"]["metrics"],
            "per_layer": traced["result"]["metrics"],
            "trace.overhead_s": traced["result"]["metrics"]["trace.overhead_s"]["value"],
            "unaccounted": {name: unaccounted(plain, traced, name) for name in traced["record"]["instances"]},
            "seed_check": {
                "pass_on_both_seeds": all(r["exit_code"] == 0 and r["result"]["correct"] for r in runs),
                "counts_equal_on_both_seeds": counts(traced) == counts(holdout),
            },
            "runs": {"untraced": plain, "traced": traced, "traced_holdout": holdout},
        }
        if not entry["seed_check"]["pass_on_both_seeds"] or (
            w in SEED_FREE and not entry["seed_check"]["counts_equal_on_both_seeds"]
        ):
            print(f"{w}: seed check failed: {entry['seed_check']}", file=sys.stderr)
            ok = False
        out["workloads"][w] = entry
        print(w, json.dumps(entry["seed_check"]), flush=True)
    out["environment"] = out["workloads"]["analyze"]["runs"]["untraced"]["record"]["environment"]
    (BENCH / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

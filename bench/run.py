"""topobetti benchmark: one workload per run, every answer checked.

    python3 bench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The run sets up the workload's instances, runs one
untimed warm-up operation, then runs operations for ``--seconds`` seconds,
always on the instance with the least time measured so far, and at least one
on each instance.  With ``--trace 0`` a speed probe
samples the machine from before the imports to the end (speed.py) and the
run prints the end-to-end metrics; with ``--trace 1`` every operation runs twice, once plain and once
traced (spans.py), and it prints the per-layer metrics and the tracing
overhead.  The line before the last holds the run's record: seed,
environment, failures and the per-instance breakdown.  The last line is the
result.  The exit code is 0 only if every check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from spans import UNIT, Tracer
from speed import SpeedProbe

START = time.perf_counter()
# one interpreter, one thread: keep numpy's BLAS from starting a thread pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
HOLDOUT_SEED = 20231017
SETUP_REPEATS = 3  # each set-up step runs up to this many times ...
SETUP_BUDGET_S = 2.0  # ... while its runs so far took less than this

TIME_METRICS = {
    "constructions.build_s": "constructions.build",
    "relunet.eval_s": "relunet.eval",
    "arrangement.signed_complex_s": "arrangement.signed_complex",
    "arrangement.sublevel_s": "arrangement.sublevel",
    "arrangement.region_count_s": "arrangement.region_count",
    "homology.betti_s": "homology.betti",
    "verify.grid_sample_s": "verify.grid_sample",
    "verify.grid_beta0_s": "verify.grid_beta0",
    "stability.check_s": "stability.check",
    "stability.perturbation_s": "stability.perturbation",
}
COUNT_METRICS = (
    "relunet.evals",
    "arrangement.cells",
    "arrangement.cells.dim0",
    "arrangement.cells.dim1",
    "arrangement.cells.dim2",
    "arrangement.cells.dim3",
    "arrangement.hyperplanes",
    "arrangement.regions",
    "arrangement.sublevel_cells",
    "homology.components",
    "homology.order_chains",
    "verify.grid_points",
    "stability.violations",
    "stability.analyses",
)
# rate metric -> (count, span whose time it is divided by)
RATE_METRICS = {
    "arrangement.cells_per_s": ("arrangement.cells", "arrangement.signed_complex"),
    "verify.points_per_s": ("verify.grid_points", "verify.grid_sample"),
}


def load_program():
    """Import topobetti from ROOT/src; None if this checkout does not hold it."""
    src = ROOT / "src"
    if not (src / "topobetti" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import topobetti

    if Path(topobetti.__file__).resolve().parent != src / "topobetti":
        return None
    return topobetti


def git_commit(root: Path):
    """The checked-out commit, read from .git without starting a process."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def thread_count():
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(ROOT),
        "TOPOBETTI_MAX_CELLS": os.environ.get("TOPOBETTI_MAX_CELLS"),
        "threads": thread_count(),
    }


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """One workload run: set-up, warm-up, the measured loop and its metrics."""

    def __init__(self, workload, seed, expected, trace, instances=None, probe=None):
        from workloads import WORKLOADS, order_chains, trace_targets

        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.expected = expected
        self.names = tuple(instances or self.wl.instances)
        self.tracer = None
        if trace:
            self.tracer = Tracer()
            self.tracer.targets = trace_targets(self.tracer)
        self.order_chains = order_chains
        self.attempted = 0
        self.failed = 0  # failed operations; failures holds their messages
        self.failures = []
        self.inputs = {}
        # per instance: (start, end) of each set-up step and measured operation
        self.setups = {n: [] for n in self.names}
        self.plain = {n: [] for n in self.names}
        self.traced = {n: [] for n in self.names}
        self.probe = None if trace else probe or SpeedProbe()

    def seconds(self, t0, t1):
        """Seconds from t0 to t1: at the probe's nominal speed when it runs, else raw."""
        return self.probe.nominal_seconds(t0, t1) if self.probe else t1 - t0

    def raw_seconds(self, t0, t1):
        """Seconds from t0 to t1, less the probes that interrupted them."""
        return self.probe.net_seconds(t0, t1) if self.probe else t1 - t0

    def _traced_unit(self, key):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.unit(key)

    def setup(self):
        for name in self.names:
            steps = self.setups[name]
            while len(steps) < SETUP_REPEATS and sum(t1 - t0 for t0, t1 in steps) < SETUP_BUDGET_S:
                # free the last step's inputs first: how often a step runs
                # depends on the machine's speed, and peak memory must not
                self.inputs.pop(name, None)
                gc.collect()
                with self._traced_unit((name, ("setup", len(steps)))):
                    t0 = time.perf_counter()
                    self.inputs[name] = self.wl.prepare(name, self.expected, self.seed)
                    steps.append((t0, time.perf_counter()))

    def setup_s(self, name, clock=None):
        """Median seconds of the instance's set-up step."""
        return median([(clock or self.seconds)(t0, t1) for t0, t1 in self.setups[name]])

    def op(self, name, traced=False, key=None):
        """Run, check and count one operation; returns its (start, end)."""
        inp = self.inputs[name]
        self.attempted += 1
        result, error = None, None
        with self._traced_unit(key) if traced else nullcontext():
            t0 = time.perf_counter()
            try:
                result = self.wl.op(inp)
            except Exception as e:  # any exception is a failed operation
                error = e
            span = (t0, time.perf_counter())
            kept = self.tracer.kept if traced else ()
        if error is not None:
            self.failed += 1
            self.failures.append(f"{name}: {type(error).__name__}: {error}")
            return span
        wrong = self.wl.check(inp, result)
        self.failed += bool(wrong)
        self.failures.extend(wrong)
        if kept:
            chains = self.order_chains(kept)
            self.tracer.add_counts(key, "homology.order_complex", {"homology.order_chains": chains})
        return span

    def measure(self, seconds):
        self.op(self.names[0])  # warm-up: checked and counted, not timed
        order = list(self.names)
        random.Random(self.seed).shuffle(order)
        spent = {n: 0.0 for n in order}
        deadline = time.perf_counter() + seconds
        k = 0
        while True:
            unseen = [n for n in order if not self.plain[n]]
            if not unseen and time.perf_counter() >= deadline:
                break
            name = unseen[0] if unseen else min(order, key=spent.__getitem__)
            if self.tracer is None:
                self.plain[name].append(self.op(name))
            else:
                key = (name, ("op", k))
                first_traced = k % 2 == 1  # alternate which of the pair runs first
                if first_traced:
                    self.traced[name].append(self.op(name, True, key))
                self.plain[name].append(self.op(name))
                if not first_traced:
                    self.traced[name].append(self.op(name, True, key))
                spent[name] += self.traced[name][-1][1] - self.traced[name][-1][0]
            spent[name] += self.plain[name][-1][1] - self.plain[name][-1][0]
            k += 1


    # ---- metrics -------------------------------------------------------

    def solve_s(self, name, samples=None, clock=None):
        """Median seconds of one operation on the instance."""
        return median([(clock or self.seconds)(t0, t1) for t0, t1 in (samples or self.plain)[name]])

    def end_to_end(self, setup_s):
        return {
            "wall_s": (sum(self.solve_s(n) for n in self.names), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "pass_ratio": ((self.attempted - self.failed) / self.attempted, "ratio"),
            "solve_s.small": (self.solve_s(self.names[0]), "s"),
            "solve_s.large": (self.solve_s(self.names[-1]), "s"),
        }

    def _units(self):
        """(instance, unit) -> {'unit_s': s, 'time': {span: s}, 'counts': {...}, 'leaf_s': s}."""
        units = {}
        parents = {id(s.parent) for s in self.tracer.spans if s.parent is not None}
        for s in self.tracer.spans:
            u = units.setdefault(s.unit, {"unit_s": 0.0, "time": {}, "counts": {}, "leaf_s": 0.0})
            if s.name == UNIT:
                u["unit_s"] = s.seconds
                continue
            if s.end:  # spans made by add_counts take no time
                u["time"][s.name] = u["time"].get(s.name, 0.0) + s.seconds
                if id(s) not in parents:
                    u["leaf_s"] += s.seconds
            for c, v in s.counts.items():
                u["counts"][c] = u["counts"].get(c, 0) + v
        return units

    def per_instance_layers(self):
        """Per instance: median over its units of each span time and count.

        `unaccounted_s` is the part of a traced operation that its innermost
        spans do not cover, median over the operations.
        """
        units = self._units()
        out = {}
        for name in self.names:
            mine = {key[1]: u for key, u in units.items() if key[0] == name}
            spans = sorted({s for u in mine.values() for s in u["time"]})
            counts = sorted({c for u in mine.values() for c in u["counts"]})
            ops = [u for tag, u in mine.items() if tag[0] == "op"]
            out[name] = {
                "stages_s": {s: median([u["time"][s] for u in mine.values() if s in u["time"]]) for s in spans},
                "counts": {c: statistics.median_low([u["counts"][c] for u in mine.values() if c in u["counts"]]) for c in counts},
                "unaccounted_s": median([u["unit_s"] - u["leaf_s"] for u in ops]),
                "unaccounted_share": median([(u["unit_s"] - u["leaf_s"]) / u["unit_s"] for u in ops]),
            }
        return out

    def per_layer(self, layers):
        metrics = {}
        for metric, span in TIME_METRICS.items():
            metrics[metric] = (sum(layers[n]["stages_s"].get(span, 0.0) for n in self.names), "s")
        for metric in COUNT_METRICS:
            metrics[metric] = (sum(layers[n]["counts"].get(metric, 0) for n in self.names), "count")
        for metric, (count, span) in RATE_METRICS.items():
            total = sum(s.counts.get(count, 0) for s in self.tracer.spans)
            busy = sum(s.seconds for s in self.tracer.spans if s.name == span)
            metrics[metric] = (total / busy if busy else 0.0, "1/s")
        overhead = sum(self.solve_s(n, self.traced) - self.solve_s(n) for n in self.names)
        metrics["trace.overhead_s"] = (overhead, "s")
        return metrics

    def instance_record(self, layers):
        out = {}
        for name in self.names:
            rec = {
                "setup_s": self.setup_s(name),
                f"solve_s.{name}": {"value": self.solve_s(name), "unit": "s", "n": len(self.plain[name])},
            }
            if self.probe is not None:
                rec["raw_setup_s"] = self.setup_s(name, self.raw_seconds)
                rec["raw_solve_s"] = self.solve_s(name, clock=self.raw_seconds)
            if layers is not None:
                rec["traced_s"] = {"value": self.solve_s(name, self.traced), "unit": "s", "n": len(self.traced[name])}
                rec.update(layers[name])
            out[name] = rec
        return out


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_benchmark(workload, seed, seconds, trace, expected, instances=None, out=None, probe=None):
    """Run one workload and print its record and result; returns the exit code.

    `probe` is a SpeedProbe that is already running (main starts it before
    the imports, so that they are normalised too); without one, an untraced
    run starts its own here.
    """
    from workloads import gate

    out = out or sys.stdout
    run = Run(workload, seed, expected, trace, instances, probe)
    with run.probe if probe is None and run.probe else nullcontext():
        mismatches = gate(expected)
        gated = time.perf_counter()
        if mismatches:
            # a wrong table makes every later check meaningless: stop here
            run.attempted, run.failed, run.failures = len(expected), len(mismatches), mismatches
        else:
            run.setup()
            run.measure(seconds)
    # set-up: imports and gate, then each instance's median step
    setup_s = run.seconds(START, gated) + sum(run.setup_s(n) for n in run.names)
    layers = run.per_instance_layers() if trace and not mismatches else None
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(bool(trace))}
    record.update(
        attempted=run.attempted,
        failed=run.failed,
        fail_ratio={"value": run.failed / run.attempted, "unit": "ratio", "base": f"{run.failed} of {run.attempted}"},
        failures=run.failures[:20],
        setup_s=setup_s,
        raw_setup_s=run.raw_seconds(START, gated) + sum(run.setup_s(n, run.raw_seconds) for n in run.names),
        raw_wall_s=sum(run.solve_s(n, clock=run.raw_seconds) for n in run.names),
        probe_s=None if run.probe is None else {"median": median(run.probe.seconds), "n": len(run.probe.seconds)},
        instances=run.instance_record(layers) if not mismatches else {},
        environment=environment(),
    )
    if mismatches:
        metrics = {}
    elif trace:
        metrics = run.per_layer(layers)
    else:
        metrics = run.end_to_end(setup_s)
    print(json.dumps({"record": record}), file=out)
    print(result_line(run.failed == 0, run.attempted, run.failed, metrics), file=out)
    out.flush()
    return 0 if run.failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("analyze", "oracle", "certify", "homology"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must be nonnegative")
    probe = None if args.trace else SpeedProbe()
    with probe or nullcontext():
        if load_program() is None:
            print(f"bench: no topobetti package under {ROOT / 'src'}", file=sys.stderr)
            return 2
        from workloads import REFERENCE_INSTANCES

        expected = {name: betti for name, *_, betti in REFERENCE_INSTANCES}
        return run_benchmark(args.workload, args.seed, args.seconds, args.trace, expected, probe=probe)


if __name__ == "__main__":
    sys.exit(main())

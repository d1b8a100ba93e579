"""Check that normalised seconds follow the amount of work the program does.

    python3 bench/fidelity.py

The end-to-end times are normalised by the speed probe (speed.py).  That
narrows their spread, but a normaliser could also absorb part of a real
change.  This check runs one instance with its operation repeated k times,
for several k, as the instances of one untraced run, so that they alternate
under the same probe.  For each k it prints the median normalised and the
median raw seconds per operation as a ratio to the smallest k.  Both ratios
should equal the ratio of the k: 10 to 11 is a 10% change, 10 to 20 a 2x one.
"""

from __future__ import annotations

import json
import sys

import run

# (workload, instance, repeats, seconds)
CASES = (
    ("homology", "d3-M2-w11", (10, 11, 20), 40),
    ("analyze", "d2-M4-w3", (1, 2), 40),
)


class Repeated:
    """A workload whose instance "NAME*k" runs NAME's operation k times."""

    def __init__(self, wl):
        self.wl = wl

    def prepare(self, name, expected, seed):
        base, k = name.rsplit("*", 1)
        return self.wl.prepare(base, expected, seed), int(k)

    def op(self, inp):
        inner, k = inp
        for _ in range(k):
            result = self.wl.op(inner)
        return result

    def check(self, inp, result):
        return self.wl.check(inp[0], result)


def measure(workload, instance, repeats, seconds):
    """{k: ratios of normalised and raw seconds per operation to the first k}."""
    from workloads import REFERENCE_INSTANCES

    expected = {name: betti for name, *_, betti in REFERENCE_INSTANCES}
    names = [f"{instance}*{k}" for k in repeats]
    r = run.Run(workload, run.DEFAULT_SEED, expected, trace=False, instances=names)
    r.wl = Repeated(r.wl)
    with r.probe:
        r.setup()
        r.measure(seconds)
    if r.failed:
        raise RuntimeError(f"{r.failed} failed operations: {r.failures[:3]}")
    base = names[0]
    return {
        k: {
            "expected": k / repeats[0],
            "normalised": r.solve_s(name) / r.solve_s(base),
            "raw": r.solve_s(name, clock=r.raw_seconds) / r.solve_s(base, clock=r.raw_seconds),
            "n": len(r.plain[name]),
        }
        for k, name in zip(repeats, names)
    }


def main() -> int:
    if run.load_program() is None:
        print(f"fidelity: no topobetti package under {run.ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload, instance, repeats, seconds in CASES:
        for k, ratios in measure(workload, instance, repeats, seconds).items():
            print(json.dumps({"workload": workload, "instance": instance, "k": k, **ratios}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Independent grid oracle and reconciliation harness.

The oracle never touches the arrangement machinery: it evaluates the network
exactly at every point of a regular rational grid (scaled-integer forward
passes, so even the oracle is float-free) and estimates β₀ of the nonpositive
set by union-find over grid adjacency.  For the constructed classifier family
the smallest feature has ℓ₁-diameter 1/(4wM), so any resolution above 8·w·M
resolves every component; the default used by callers is 16·w_max·M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .exactgeom import BoxDomain
from .relunet import ReluNetwork
from .report import AnalysisReport

GRID_POINT_CAP = 50_000_000


@dataclass(frozen=True)
class SignGrid:
    resolution: int
    d: int
    signs: np.ndarray  # shape (N+1,)*d, values in {−1,0,+1}


def _scaled_layers(net: ReluNetwork):
    """Clear each layer to integer matrices: (Wint, bint, t) with W = Wint/t."""
    out = []
    for layer in net.layers:
        den = 1
        for row in layer.weights:
            for v in row:
                den = den * v.denominator // math.gcd(den, v.denominator)
        for v in layer.bias:
            den = den * v.denominator // math.gcd(den, v.denominator)
        wint = [[int(v * den) for v in row] for row in layer.weights]
        bint = [int(v * den) for v in layer.bias]
        out.append((wint, bint, den))
    return out


def _eval_sign_scaled(layers, nums: Sequence[int], den: int) -> int:
    """Sign of the scalar network output at the point nums/den, in pure ints."""
    v = list(nums)
    D = den
    last = len(layers) - 1
    for li, (wint, bint, t) in enumerate(layers):
        out = []
        for row, b in zip(wint, bint):
            acc = b * D
            for w, x in zip(row, v):
                if w:
                    acc += w * x
            out.append(acc)
        D *= t
        if li != last:
            v = [x if x > 0 else 0 for x in out]
        else:
            v = out
    x = v[0]
    return (x > 0) - (x < 0)


def grid_sign_sample(net: ReluNetwork, box: BoxDomain, resolution: int) -> SignGrid:
    """Exact network sign at every point of the (N+1)^d grid over the box."""
    if resolution < 1:
        raise ValueError("resolution must be ≥ 1")
    if net.output_dim != 1:
        raise ValueError("oracle requires a scalar-output network")
    d = box.dimension
    if (resolution + 1) ** d > GRID_POINT_CAP:
        raise ValueError(
            f"grid of {(resolution + 1) ** d} points exceeds cap {GRID_POINT_CAP}"
        )
    layers = _scaled_layers(net)
    # grid point i: lower + i*(upper−lower)/N, over the common denominator
    # N·lcm(bound denominators), so every step (upper−lower)/N is integral
    scale = math.lcm(*(v.denominator for v in box.lower + box.upper))
    den = resolution * scale
    steps = [int((up - lo) * scale) for lo, up in zip(box.lower, box.upper)]
    base = [int(lo * den) for lo in box.lower]
    n = resolution + 1
    signs = np.empty((n,) * d, dtype=np.int8)
    for idx in product(range(n), repeat=d):
        nums = [b + i * s for b, i, s in zip(base, idx, steps)]
        signs[idx] = _eval_sign_scaled(layers, nums, den)
    return SignGrid(resolution=resolution, d=d, signs=signs)


def grid_beta0(sg: SignGrid) -> int:
    """Components of the nonpositive grid-point set under 2d-neighbor adjacency."""
    flat = sg.signs.reshape(-1)
    nonpos = flat <= 0
    n = sg.resolution + 1
    strides = []
    mult = 1
    for _ in range(sg.d):
        strides.append(mult)
        mult *= n
    strides = strides[::-1]
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    idxs = np.nonzero(nonpos)[0]
    for i in idxs:
        parent[int(i)] = int(i)
    for i in idxs:
        i = int(i)
        rem = i
        coords = []
        for s in strides:
            coords.append(rem // s)
            rem %= s
        for axis, c in enumerate(coords):
            if c + 1 < n:
                j = i + strides[axis]
                if nonpos[j]:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[ri] = rj
    return len({find(int(i)) for i in idxs})


def default_resolution(M: int, w_vec: Sequence[int]) -> int:
    """16·w_max·M, four times the feature scale 1/(4wM)."""
    return 16 * max(w_vec) * M


@dataclass(frozen=True)
class Reconciliation:
    betti: tuple
    predicted: Optional[tuple]
    oracle_beta0: Optional[int]
    predicted_agreement: Optional[tuple]  # per-k booleans
    oracle_agrees: Optional[bool]
    serra_ok: bool
    binomial_ok: tuple  # per-k booleans
    complement_ok: tuple  # per-k booleans
    euler_ok: bool  # χ(Betti vector) equals the alternating cell count

    @property
    def all_agree(self) -> bool:
        checks = [self.serra_ok, *self.binomial_ok, *self.complement_ok, self.euler_ok]
        if self.predicted_agreement is not None:
            checks.extend(self.predicted_agreement)
        if self.oracle_agrees is not None:
            checks.append(self.oracle_agrees)
        return all(checks)

    def to_json(self) -> dict:
        return {
            "betti": list(self.betti),
            "predicted": None if self.predicted is None else list(self.predicted),
            "oracle_beta0": self.oracle_beta0,
            "predicted_agreement": (
                None if self.predicted_agreement is None else list(self.predicted_agreement)
            ),
            "oracle_agrees": self.oracle_agrees,
            "serra_ok": self.serra_ok,
            "binomial_ok": list(self.binomial_ok),
            "complement_ok": list(self.complement_ok),
            "euler_ok": self.euler_ok,
            "all_agree": self.all_agree,
        }


def reconcile(report: AnalysisReport) -> Reconciliation:
    """Compare the exact pipeline against predictions, bounds and the oracle.

    Disagreements are reported with all values present, never silently
    resolved.
    """
    betti = report.betti.values
    predicted = None if report.predicted is None else report.predicted.values
    return Reconciliation(
        betti=betti,
        predicted=predicted,
        oracle_beta0=report.oracle_beta0,
        predicted_agreement=(
            None if predicted is None else tuple(a == b for a, b in zip(betti, predicted))
        ),
        oracle_agrees=report.oracle_agrees,
        serra_ok=report.region_count <= report.serra_bound,
        binomial_ok=tuple(
            b <= bound for b, bound in zip(betti, report.binomial_bounds)
        ),
        complement_ok=tuple(
            b <= bound for b, bound in zip(betti, report.complement_cell_bounds)
        ),
        euler_ok=report.euler == report.euler_cells,
    )


def write_pgm(sg: SignGrid, path: str):
    """ASCII PGM dump of a 2-d sign grid (negative=0, zero=128, positive=255)."""
    if sg.d != 2:
        raise ValueError("PGM dump requires a 2-d grid")
    n = sg.resolution + 1
    vals = ((sg.signs.astype(np.int16) + 1) * 127 + (sg.signs == 1)).astype(np.uint8)
    with open(path, "w", encoding="ascii") as f:
        f.write(f"P2\n{n} {n}\n255\n")
        for row in vals:
            f.write(" ".join(str(int(v)) for v in row) + "\n")


def write_csv(sg: SignGrid, path: str):
    """CSV dump of a 2-d sign grid, one sign per cell."""
    if sg.d != 2:
        raise ValueError("CSV dump requires a 2-d grid")
    with open(path, "w", encoding="ascii") as f:
        for row in sg.signs:
            f.write(",".join(str(int(v)) for v in row) + "\n")

"""Independent grid oracle, the analysis report and its reconciliation.

The oracle never touches the arrangement machinery: it evaluates the network
exactly at every point of a regular rational grid and estimates β₀ of the
nonpositive set under grid adjacency (grid_beta0).  The evaluation is a
scaled-integer forward pass, so even the oracle is float-free: each layer is
cleared to an integer matrix, and numpy runs the pass one layer at a time
over blocks of whole grid lines (see grid_sign_sample).  numpy is imported
inside the functions that use it, not with the module, so that no other
command pays for its import, which costs more than a whole analysis of a
reference network.  Before the pass runs, a bound on every integer each
layer can form is proved in Python ints (_magnitude_bound).  Each layer's
arrays take the narrowest type its bound allows: int32 below 2^30, int64
below 2^62 and Python ints (dtype object) otherwise, in the same code path;
an array is widened where the bound crosses a tier, never narrowed.  The
reference instances run in int32, but for an int64 output layer on one of
them; perturbed networks start in int64 and widen to Python ints.  Beyond
the signs, the working memory is under 0.9 MiB on the 10⁶-point grids of
the tests.  For the constructed classifier family the smallest feature has
ℓ₁-diameter 1/(4wM), so any resolution above 8·w·M resolves every
component; the default used by callers is 16·w_max·M.

The analysis report (AnalysisReport) stores what an exact pipeline run
measured and the optional closed-form prediction and oracle β₀; the Serra
and binomial bounds and χ are properties read off its architecture and
Betti vector.  reconcile compares them all (Reconciliation), and the
report's JSON, schema SCHEMA_VERSION, carries the verdicts.  The report
needs only constructions and the rational format, so the oracle still
shares no code with the arrangement.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .constructions import BettiVector, betti_upper_bound, euler_characteristic, serra_region_bound
from .exactgeom import BoxDomain, format_rational
from .relunet import ReluNetwork

if TYPE_CHECKING:
    import numpy as np

SCHEMA_VERSION = 1
GRID_POINT_CAP = 50_000_000
_BLOCK = 1 << 13  # grid points per block of the vectorised pass (see grid_sign_sample)


@dataclass(frozen=True)
class SignGrid:
    resolution: int
    d: int
    signs: np.ndarray  # shape (N+1,)*d, values in {−1,0,+1}

    def __post_init__(self):
        # grid_beta0 reads the grid by flat index, which a wrong shape would
        # silently misread
        if self.signs.shape != (self.resolution + 1,) * self.d:
            raise ValueError(
                f"signs of shape {self.signs.shape} do not form a grid of "
                f"resolution {self.resolution} in dimension {self.d}"
            )


def _scaled_layers(net: ReluNetwork):
    """Clear each layer to integer matrices: (Wint, bint, t) with W = Wint/t."""
    out = []
    for layer in net.layers:
        den = math.lcm(*(v.denominator for row in (*layer.weights, layer.bias) for v in row))
        wint = [[int(v * den) for v in row] for row in layer.weights]
        bint = [int(v * den) for v in layer.bias]
        out.append((wint, bint, den))
    return out


def _magnitude_bound(layers, top: int, den: int) -> list:
    """Per-layer bounds, in Python ints, on every integer the scaled pass forms.

    ``top`` bounds the grid numerators over the denominator ``den``.  A
    layer's outputs at the running denominator D are bounded by
    max over rows of |b|·D + Σ|w|·(bound on its inputs), which also bounds
    every product and partial sum of the row, in whatever order they are
    added; ReLU only shrinks them.  The weights and D itself are counted
    too.  The bounds are a running maximum, so a layer's bound also covers
    the inputs it receives and the bounds never decrease; each layer's
    arrays take the narrowest dtype its bound allows (see ``_dtype``).
    """
    x, D, peak, bounds = top, den, max(top, den), []
    for wint, bint, t in layers:
        x = max(abs(b) * D + sum(abs(w) for w in row) * x for row, b in zip(wint, bint))
        D *= t
        peak = max(peak, x, D, *(abs(w) for row in wint for w in row))
        bounds.append(peak)
    return bounds


def _dtype(bound: int):
    """int32 below 2^30, int64 below 2^62, Python ints (object) otherwise."""
    import numpy as np

    return np.int32 if bound < 2**30 else np.int64 if bound < 2**62 else object


def grid_sign_sample(net: ReluNetwork, box: BoxDomain, resolution: int) -> SignGrid:
    """Exact network sign at every point of the (N+1)^d grid over the box."""
    if type(resolution) is not int:  # rejects True, a bool, and 10.0
        raise ValueError(f"resolution must be an int, got {resolution!r}")
    if resolution < 1:
        raise ValueError("resolution must be ≥ 1")
    if net.output_dim != 1:
        raise ValueError("oracle requires a scalar-output network")
    d = box.dimension
    # the pass zips the box's axes with the first layer's columns, which
    # would drop the extra ones of either
    if net.input_dim != d:
        raise ValueError(f"box of dimension {d} does not match network input {net.input_dim}")
    if (resolution + 1) ** d > GRID_POINT_CAP:
        raise ValueError(
            f"grid of {(resolution + 1) ** d} points exceeds cap {GRID_POINT_CAP}"
        )
    import numpy as np

    layers = _scaled_layers(net)
    # grid point i: lower + i*(upper−lower)/N, over the common denominator
    # N·lcm(bound denominators), so every step (upper−lower)/N is integral
    scale = math.lcm(*(v.denominator for v in box.lower + box.upper))
    den = resolution * scale
    steps = [int((up - lo) * scale) for lo, up in zip(box.lower, box.upper)]
    base = [int(lo * den) for lo in box.lower]
    # top bounds every coordinate base + i·step and every N·|step|
    top = max(
        max(abs(b), abs(b + resolution * s), resolution * abs(s)) for b, s in zip(base, steps)
    )
    # each layer on the narrowest dtype that no integer it forms can overflow
    dtypes = [_dtype(bound) for bound in _magnitude_bound(layers, top, den)]
    (w0, b0, t0), rest = layers[0], layers[1:]
    dtype = dtypes[0]
    # the first layer is affine in the grid index: at index i it is
    # w·base + b·D + Σ_t w[:, t]·step_t·i_t, so it is summed from one constant
    # column and one table per axis.  Every table entry is at most
    # |w_t|·N·|step_t| ≤ |w_t|·top, and every partial sum holds, per axis,
    # either w_t·base_t or w_t·(base_t + step_t·i_t), so it stays within the
    # |b|·D + Σ|w|·top that _magnitude_bound allows for the first layer
    const = np.array(
        [[sum(w * x for w, x in zip(row, base)) + b * den] for row, b in zip(w0, b0)], dtype=dtype
    )
    wstep = np.array([[w * s for w, s in zip(row, steps)] for row in w0], dtype=dtype)
    n = resolution + 1
    tables = [wstep[:, t:t + 1] * np.arange(n).astype(dtype) for t in range(d - 1)]
    mats, D = [], den * t0
    for (wint, bint, t), dt in zip(rest, dtypes[1:]):
        mats.append((np.array(wint, dtype=dt), np.array([[b * D] for b in bint], dtype=dt)))
        D *= t
    # the grid as lines along the last axis, in C order
    lines = n ** (d - 1)
    signs = np.empty((lines, n), dtype=np.int8)
    # a block takes whole lines while a line fits in _BLOCK points, and cuts
    # the last axis into chunks when it does not, so the working arrays stay
    # at width × _BLOCK entries whatever the grid size.  At 8 192 points a
    # block's fixed cost, some twenty numpy calls, is spread over enough
    # points not to set the pass's speed.  The leading axes' tables exist
    # only for d ≥ 2, where GRID_POINT_CAP keeps N+1 at most 7 071 < _BLOCK,
    # so only a d = 1 grid has its line cut into chunks
    per = max(1, _BLOCK // n)
    chunk = min(n, _BLOCK)
    # a block's int32 and int64 arrays, the first layer's sum, each widening
    # cast and each einsum output, are views of two buffers made once per
    # pass, each as large as the widest such array of a full block; each
    # array goes to the buffer that does not hold its input.  The buffers are
    # one allocation: as two, the C allocator paged them in afresh on many
    # passes.  Python-int layers allocate per block
    fixed = [(len(w0), dtype), *((rows, w.dtype) for w, _ in mats for rows in w.shape)]
    size = per * chunk * max(
        (rows * np.dtype(dt).itemsize for rows, dt in fixed if dt != object), default=0
    )
    buffers = np.empty((2, size), dtype=np.uint8)

    def take(k, dt, shape):
        # the start of buffer k as an array; None, so that numpy allocates,
        # for Python ints
        if dt == object:
            return None
        return buffers[k][: math.prod(shape) * np.dtype(dt).itemsize].view(dt).reshape(shape)

    for j0 in range(0, n, chunk):
        # the last axis's table, over this chunk of it
        tail = wstep[:, -1:] * np.arange(j0, min(j0 + chunk, n)).astype(dtype)
        for l0 in range(0, lines, per):
            # index arithmetic once per line: its leading-axis terms
            rem = np.arange(l0, min(l0 + per, lines))
            out = signs[l0:l0 + rem.size, j0:j0 + tail.shape[1]]
            lead = const
            for table in reversed(tables):
                rem, i = np.divmod(rem, n)
                lead = lead + table[:, i]
            first = take(0, dtype, (len(w0), *out.shape))
            v = np.add(lead[:, :, None], tail[:, None, :], out=first).reshape(len(w0), -1)
            k = 0  # the buffer that holds v
            for w, bd in mats:
                np.maximum(v, 0, out=v)
                # numpy's integer @ is a plain loop; einsum beats it on
                # int32 and int64, while @ stays faster on Python ints
                if w.dtype == object:
                    v = w @ v.astype(object, copy=False)
                else:
                    # widen where the bound crosses a tier; never narrow
                    if w.dtype != v.dtype:
                        k ^= 1
                        wide = take(k, w.dtype, v.shape)
                        np.copyto(wide, v)
                        v = wide
                    k ^= 1
                    v = np.einsum("ij,jk->ik", w, v, out=take(k, w.dtype, (len(w), v.shape[1])))
                v += bd
            np.sign(v[0].reshape(out.shape), out=out, casting="unsafe")
    return SignGrid(resolution=resolution, d=d, signs=signs.reshape((n,) * d))


def grid_beta0(sg: SignGrid) -> int:
    """Components of the nonpositive grid-point set under 2d-neighbor adjacency.

    The nonpositive points, as sorted flat indices, are cut into runs along
    the last axis; each other axis joins the runs of neighbouring points,
    and the runs are merged by min-label hooking and pointer jumping.
    """
    import numpy as np

    n = sg.resolution + 1
    idx = np.flatnonzero(sg.signs.reshape(-1) <= 0)
    if idx.size == 0:
        return 0
    # a run starts after a gap in the indices or at the start of a line
    starts = np.ones(idx.size, dtype=bool)
    starts[1:] = (np.diff(idx) != 1) | (idx[1:] % n == 0)
    run = np.cumsum(starts) - 1
    u = v = run[:0]  # edges, as the run ids of their two ends
    stride = n
    for _ in range(sg.d - 1):
        # the neighbour one step up the axis, unless the point ends its line
        src = np.flatnonzero((idx // stride) % n != n - 1)
        dst = np.minimum(np.searchsorted(idx, idx[src] + stride), idx.size - 1)
        hit = idx[dst] == idx[src] + stride
        u = np.concatenate((u, run[src[hit]]))
        v = np.concatenate((v, run[dst[hit]]))
        stride *= n
    label = np.arange(run[-1] + 1)
    # labels only decrease, and after the jumping every label is a root, so
    # each round hooks every root with an edge out onto its smallest neighbour
    while u.size:
        a, b = label[u], label[v]
        apart = a != b
        u, v, a, b = u[apart], v[apart], a[apart], b[apart]
        np.minimum.at(label, a, b)
        np.minimum.at(label, b, a)
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
    return int(np.count_nonzero(label == np.arange(label.size)))


def default_resolution(M: int, w_vec: Sequence[int]) -> int:
    """16·w_max·M, four times the feature scale 1/(4wM)."""
    return 16 * max(w_vec) * M


@dataclass(frozen=True)
class AnalysisReport:
    # stored: what the pipeline measured; derived: the bounds and χ below
    architecture: tuple
    fingerprint: str
    box: BoxDomain
    betti: BettiVector
    region_count: int
    # per k, #(k+1)-cells labeled positive: β_k ≤ this for k ≥ 1 and β₀ ≤ this + 1,
    # since H̃_k(sublevel set) ≅ H_{k+1}(box, sublevel set) (see reconcile)
    complement_cell_bounds: tuple
    predicted: Optional[BettiVector]
    euler_cells: int  # alternating cell count of the sublevel subcomplex
    oracle_beta0: Optional[int]

    @property
    def serra_bound(self) -> int:
        return serra_region_bound(self.architecture)

    @property
    def binomial_bounds(self) -> tuple:  # per k < d
        return tuple(betti_upper_bound(self.architecture, k) for k in range(self.box.dimension))

    @property
    def euler(self) -> int:  # χ of the Betti vector
        return euler_characteristic(self.betti)

    def to_json(self) -> dict:
        rec = reconcile(self)
        return {
            "schema": SCHEMA_VERSION,
            "architecture": list(self.architecture),
            "fingerprint": self.fingerprint,
            "box": {
                "lower": [format_rational(v) for v in self.box.lower],
                "upper": [format_rational(v) for v in self.box.upper],
            },
            "betti": list(self.betti.values),
            "region_count": self.region_count,
            "serra_bound": self.serra_bound,
            "binomial_bounds": list(self.binomial_bounds),
            "complement_cell_bounds": list(self.complement_cell_bounds),
            "predicted": None if self.predicted is None else list(self.predicted.values),
            "euler": self.euler,
            "euler_cells": self.euler_cells,
            "oracle_beta0": self.oracle_beta0,
            "bounds_satisfied": rec.serra_ok and all(rec.binomial_ok),
            "predicted_agrees": None if rec.predicted is None else rec.predicted == rec.betti,
            "oracle_agrees": rec.oracle_agrees,
            # no timings are recorded; the key keeps the schema-1 layout
            "timings": None,
        }


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
        # every field is a bool, an int, None or a tuple of them, which JSON
        # writes as a list
        return {**asdict(self), "all_agree": self.all_agree}


def reconcile(report: AnalysisReport) -> Reconciliation:
    """Compare the exact pipeline against predictions, bounds and the oracle.

    Disagreements are reported with all values present, never silently
    resolved.

    The complement bound.  The box K is a complex and the sublevel set X a
    subcomplex whose complement is the positive cells, so H_{k+1}(K, X) has
    rank at most the number of positive (k+1)-cells.  For non-empty X, since
    K is contractible, the pair's reduced sequence
    H̃_{k+1}(K) = 0 → H_{k+1}(K, X) → H̃_k(X) → H̃_k(K) = 0 makes
    H̃_k(X) ≅ H_{k+1}(K, X).  So β_k ≤ that count for k ≥ 1, and
    β₀ = rank H̃₀(X) + 1 ≤ the count + 1; an empty X has β = 0.  With no
    positive cell, X is the whole box: β₀ = 1 against a count of 0.  The
    report keeps the raw count.
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
        oracle_agrees=(
            None if report.oracle_beta0 is None else betti[0] == report.oracle_beta0
        ),
        serra_ok=report.region_count <= report.serra_bound,
        binomial_ok=tuple(
            b <= bound for b, bound in zip(betti, report.binomial_bounds)
        ),
        complement_ok=tuple(
            b <= bound + (k == 0)
            for k, (b, bound) in enumerate(zip(betti, report.complement_cell_bounds))
        ),
        euler_ok=report.euler == report.euler_cells,
    )


def write_pgm(sg: SignGrid, path: str):
    """ASCII PGM dump of a 2-d sign grid (negative=0, zero=127, positive=255)."""
    if sg.d != 2:
        raise ValueError("PGM dump requires a 2-d grid")
    import numpy as np

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

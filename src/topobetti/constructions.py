"""Builders for the folding / cutting / carving network family plus the
closed-form combinatorics (Betti predictions, Euler characteristic, Serra
region bound, binomial Betti bound).

Geometry of the family, briefly: a folding network maps each of M^d small
cubes of side 1/M onto the unit cube by scaling and alternating mirroring.  A
cutting network g^(w,d) is supported on the ℓ₁-ball of radius 1/4 around the
mirrored corner (1,…,1,0); its sign alternates on the w ℓ₁-shells of width
1/(4w), with the innermost shell negative, and it vanishes beyond radius 1/4.
Composing cutting networks over nested coordinate projections (carving) and
pre-composing with a folding network produces a classifier whose closed
sublevel set {F ≤ 0} decomposes into ⌈w/2⌉ annuli around every interior
cutting point and ⌈w/2⌉ contractible disks at every boundary cutting point.

Sign convention note: the innermost shell of g is negative (output unit
coefficients (−1)^{q+1}).  With the opposite convention the innermost region
would be positive and, for odd w, the outermost negative shell would collapse
into the surrounding zero region, destroying exactly one annulus per cutting
point; the convention used here is the one under which the closed-form counts
below describe the actual sublevel topology for every w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .relunet import AffineLayer, ReluNetwork, compose


@dataclass(frozen=True)
class FoldingSpec:
    d: int
    m_vec: tuple

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("folding dimension must be ≥ 1")
        if not self.m_vec:
            raise ValueError("m_vec must be nonempty")
        for m in self.m_vec:
            if m < 2 or m % 2 != 0:
                raise ValueError(f"every folding factor must be even and ≥ 2, got {m}")

    @property
    def M(self) -> int:
        return math.prod(self.m_vec)


@dataclass(frozen=True)
class CuttingSpec:
    d: int
    w_vec: tuple

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("cutting requires dimension ≥ 2")
        if len(self.w_vec) != self.d - 1:
            raise ValueError("w_vec must have length d−1")
        for w in self.w_vec:
            if w < 1:
                raise ValueError("cut counts must be ≥ 1")


@dataclass(frozen=True)
class BettiVector:
    values: tuple

    def __post_init__(self):
        if any(v < 0 for v in self.values):
            raise ValueError("Betti numbers are nonnegative")


def build_folding_layer(m: int, d: int) -> ReluNetwork:
    """One folding stage: per coordinate, an m-fold tent map [0,1] → [0,1].

    Hidden units for coordinate j are max{0, m·x_j} and max{0, 2m(x_j − i/m)}
    for i = 1..m−1; the output sums them with alternating signs.
    """
    if m < 2 or m % 2 != 0:
        raise ValueError(f"folding factor must be even and ≥ 2, got {m}")
    if d < 1:
        raise ValueError("dimension must be ≥ 1")
    zero = Fraction(0)
    wrows, brows = [], []
    out = [[zero] * (m * d) for _ in range(d)]
    for j in range(d):
        for i in range(m):
            row = [zero] * d
            row[j] = Fraction(m if i == 0 else 2 * m)
            wrows.append(tuple(row))
            brows.append(Fraction(-2 * i))
            out[j][j * m + i] = Fraction((-1) ** i)
    hidden = AffineLayer(tuple(wrows), tuple(brows))
    output = AffineLayer(tuple(tuple(r) for r in out), (zero,) * d)
    return ReluNetwork((hidden, output))


def build_folding_network(spec: FoldingSpec) -> ReluNetwork:
    """Composition of the folding stages; maps each cube of side 1/M onto [0,1]^d."""
    net = build_folding_layer(spec.m_vec[0], spec.d)
    for m in spec.m_vec[1:]:
        net = compose(build_folding_layer(m, spec.d), net)
    return net


def _cutting_rows(w: int, d: int):
    """Hidden rows, biases and output coefficients of g^(w,d) on ℝ^d.

    g = ĝ ∘ t with t(x) = (1−x₁,…,1−x_{d−1},x_d), so every hidden unit reads
    s(x) = (d−1) − x₁ − … − x_{d−1} + x_d, the ℓ₁-distance from the mirrored
    corner (1,…,1,0).  Unit q kinks at s = 0, (2q−1)/(8w) (q = 1..w), 1/4.
    """
    grad = tuple(Fraction(-1) if i < d - 1 else Fraction(1) for i in range(d))
    base = Fraction(d - 1)
    rows, biases, outs = [], [], []
    for q in range(w + 2):
        if q == 0:
            coef, thresh = Fraction(1), Fraction(0)
        elif q == w + 1:
            coef, thresh = Fraction(1), Fraction(1, 4)
        else:
            coef, thresh = Fraction(2), Fraction(2 * q - 1, 8 * w)
        rows.append(tuple(coef * g for g in grad))
        biases.append(coef * (base - thresh))
        # innermost shell negative: output coefficient (−1)^{q+1}
        outs.append(Fraction((-1) ** (q + 1)))
    return rows, biases, outs


def build_carving_network(spec: CuttingSpec) -> ReluNetwork:
    """Sum of cutting networks over nested coordinate projections.

    A single hidden layer of width Σ(w_k+2) on ℝ^d: stage k (k = 2..d) applies
    g^(w_{k−1},k) to the first k coordinates; the output adds the stages.  The
    stages have disjoint supports, so at every point at most one contributes.
    """
    d = spec.d
    zero = Fraction(0)
    wrows, brows, outs = [], [], []
    for k in range(2, d + 1):
        w = spec.w_vec[k - 2]
        rows, biases, stage_outs = _cutting_rows(w, k)
        for row, b in zip(rows, biases):
            wrows.append(tuple(row) + (zero,) * (d - k))
            brows.append(b)
        outs.extend(stage_outs)
    hidden = AffineLayer(tuple(wrows), tuple(brows))
    output = AffineLayer((tuple(outs),), (zero,))
    return ReluNetwork((hidden, output))


def closure_offset(M: int, w_vec: Sequence[int]) -> Fraction:
    """The constant b added to close up the decision region: min_j 1/(8·w_j·M)."""
    return min(Fraction(1, 8 * w * M) for w in w_vec)


def build_topo_network(fold: FoldingSpec, cut: CuttingSpec, with_offset: bool = True) -> ReluNetwork:
    """The composed classifier F = carve ∘ fold (+ offset b on the output bias).

    The offset turns full-dimensional zero regions into slightly positive ones
    without changing the sublevel topology, so every Betti number of
    {F ≤ 0} ∩ [0,1]^d is reproduced by predict_betti.
    """
    if fold.d != cut.d:
        raise ValueError("folding and cutting dimensions differ")
    net = compose(build_carving_network(cut), build_folding_network(fold))
    if with_offset:
        b = closure_offset(fold.M, cut.w_vec)
        last = net.layers[-1]
        net = ReluNetwork(
            net.layers[:-1]
            + (AffineLayer(last.weights, tuple(v + b for v in last.bias)),)
        )
    return net


def predict_betti(M: int, w_vec: Sequence[int], d: int) -> BettiVector:
    """Closed-form Betti vector of the closed sublevel set of the offset classifier.

    β_k = (M/2)^k (M/2 − 1) ⌈w_k/2⌉ for 1 ≤ k ≤ d−1 (one k-annulus per
    interior cutting point of the (k+1)-dimensional stage, per negative shell),
    and β₀ additionally counts the contractible disks at boundary points.
    """
    if M < 2 or M % 2 != 0:
        raise ValueError("M must be even and ≥ 2")
    CuttingSpec(d, tuple(w_vec))  # the family's checks on d and the widths
    half = M // 2
    betas = [0] * d
    for k in range(1, d):
        pieces = (w_vec[k - 1] + 1) // 2
        betas[k] = half**k * (half - 1) * pieces
        betas[0] += half**k * (half + 1) * pieces
    return BettiVector(tuple(betas))


def euler_characteristic(b: BettiVector) -> int:
    return sum((-1) ** k * v for k, v in enumerate(b.values))


def serra_region_bound(architecture: Sequence[int]) -> int:
    """Upper bound r on the number of linear regions of a network.

    r = Σ over admissible activation tuples (j₁,…,j_L) of Π C(n_ℓ, j_ℓ), where
    each j_ℓ ranges over 0..min(d, n₁−j₁, …, n_{ℓ−1}−j_{ℓ−1}).
    """
    arch = list(architecture)
    if len(arch) < 2:
        raise ValueError("architecture needs input and output widths")
    if arch[-1] != 1:
        raise ValueError("scalar output required")
    return _activation_patterns(tuple(arch[1:-1]), arch[0])


def _activation_patterns(hidden: tuple, cap: int) -> int:
    """Σ over j of C(n, j) times the count for the remaining layers, j ≤ cap."""
    if not hidden:
        return 1
    n = hidden[0]
    return sum(
        math.comb(n, j) * _activation_patterns(hidden[1:], min(cap, n - j))
        for j in range(min(cap, n) + 1)
    )


def betti_upper_bound(architecture: Sequence[int], k: int) -> int:
    """β₀ ≤ r; β_k ≤ C(r, d−k) for 1 ≤ k ≤ d−1, where r = serra_region_bound."""
    d = architecture[0]
    if not 0 <= k <= d - 1:
        raise ValueError("k out of range")
    r = serra_region_bound(architecture)
    if k == 0:
        return r
    return math.comb(r, d - k)

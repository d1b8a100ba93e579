"""Exact rational homology of polyhedral complexes.

The complex is first collapsed on its own face poset: a cell with exactly one
coface is removed together with that coface, until none is left.  By the
diamond property of face lattices the coface is then maximal, so what remains
is a closed subcomplex of the same homotopy type, usually far smaller.

The support of the remainder is triangulated by its order complex
(barycentric subdivision): simplices are strictly increasing chains in the
face poset.  Chains inherit a canonical vertex order from cell dimensions, so
boundary matrices carry standard alternating signs without ever orienting
polytopes.

Betti numbers are β_k = #k-simplices − rank ∂_k − rank ∂_{k+1} over ℚ, with
each rank an exact fraction-free column-pivot elimination (sparse_rank).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .arrangement import (
    PolyhedralComplex,
    _gc_paused,
    linear_region_count,
    signed_complex,
    sublevel_subcomplex,
)
from .constructions import (
    BettiVector,
    betti_upper_bound,
    euler_characteristic,
    serra_region_bound,
)
from .exactgeom import BoxDomain, sparse_rank
from .relunet import ReluNetwork, network_fingerprint
from .report import AnalysisReport


@dataclass(frozen=True)
class SimplicialComplex:
    """Simplices grouped by dimension; each simplex is an increasing cell-id chain."""

    simplices: tuple  # simplices[k] = sorted tuple of k-simplices (tuples of cell ids)


def _poset_predecessors(pc: PolyhedralComplex):
    """Full strict order relation of the face poset, as predecessor sets.

    The poset is graded by cell dimension and the cells' facets are its
    covering relation, so the full order is the transitive closure, read off
    the facets with the cells taken by increasing dimension.
    """
    pred = {}
    for c in sorted(pc.cells.values(), key=lambda c: c.dim):
        s = set()
        for f in c.facets:
            s.add(f)
            s |= pred[f]
        pred[c.id] = s
    return pred


def order_complex(pc: PolyhedralComplex) -> SimplicialComplex:
    """Barycentric subdivision: all strictly increasing chains in the face poset."""
    pred = _poset_predecessors(pc)
    by_dim = {}
    stack = [(cid,) for cid in pc.cells]
    while stack:
        chain = stack.pop()
        by_dim.setdefault(len(chain) - 1, []).append(chain)
        stack.extend((prev,) + chain for prev in pred[chain[0]])
    top = max(by_dim) if by_dim else -1
    return SimplicialComplex(
        tuple(tuple(sorted(by_dim.get(k, []))) for k in range(top + 1))
    )


def _boundary_rows(simplices, faces):
    """Sparse rows of ∂ on k-simplices, over the given (k−1)-simplices.

    Row i is the boundary of simplices[i] as a dict from face index to ±1.
    """
    index = {s: i for i, s in enumerate(faces)}
    rows = []
    for simplex in simplices:
        row = {}
        for i in range(len(simplex)):
            row[index[simplex[:i] + simplex[i + 1 :]]] = (-1) ** i
        rows.append(row)
    return rows


def _poset_collapse(pc: PolyhedralComplex) -> PolyhedralComplex:
    """Remove free pairs of cells (σ with a unique live coface τ) until none remain.

    The complex must be closed under faces.  Any coface of τ would, by the
    diamond property, give σ a second coface, so τ is maximal and the cells
    left form a closed subcomplex of the same homotopy type.  The queue is
    seeded in pc.cells order and served first in first out, and neighbours
    are visited in increasing id order: each cell keeps its facets that way,
    and inverting them over the cells in id order lists each cell's cofaces
    that way.  So no set iteration order decides which cells survive.  The
    survivors are pc's own Cell objects, facets unchanged.
    """
    cells = pc.cells
    cofaces = {cid: [] for cid in cells}
    for c in cells.values():
        for f in c.facets:
            cofaces[f].append(c.id)
    live = {cid: len(cf) for cid, cf in cofaces.items()}  # live coface counts
    alive = dict.fromkeys(cells, True)
    queue = deque(cid for cid in cells if live[cid] == 1)
    while queue:
        sigma = queue.popleft()
        if not alive[sigma] or live[sigma] != 1:
            continue
        tau = next(c for c in cofaces[sigma] if alive[c])
        alive[sigma] = alive[tau] = False
        for gone in (tau, sigma):
            for f in cells[gone].facets:
                live[f] -= 1
                if live[f] == 1:
                    queue.append(f)
    return pc.restrict(cid for cid, keep in alive.items() if keep)


def betti_numbers(pc: PolyhedralComplex) -> BettiVector:
    """Exact rational Betti numbers β_0 … β_{d−1} of the complex's support.

    The face poset is collapsed first; the order complex of what remains is
    then ranked whole.  d is the ambient dimension.
    """
    with _gc_paused():
        pc = _poset_collapse(pc)
        simplices = order_complex(pc).simplices
        d = pc.ambient_dim
        ranks = [0] * (d + 1)
        for k in range(1, len(simplices)):
            ranks[k] = sparse_rank(_boundary_rows(simplices[k], simplices[k - 1]))
    counts = [len(s) for s in simplices] + [0] * (d + 1 - len(simplices))
    return BettiVector(tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(d)))


def analyze_network(
    net: ReluNetwork,
    box: Optional[BoxDomain] = None,
    predicted: Optional[BettiVector] = None,
    oracle_beta0: Optional[int] = None,
) -> AnalysisReport:
    """End-to-end exact Betti computation of F⁻¹((−∞,0]) ∩ box.

    Runs the arrangement pipeline (output-refined signed complex → sublevel
    subcomplex → homology) and packages region counts and upper
    bounds; optional closed-form predictions and an oracle β₀ are recorded for
    reconciliation.  A prediction must have one number per dimension 0 … d−1.
    """
    if box is None:
        box = BoxDomain.unit_cube(net.input_dim)
    d = box.dimension
    if predicted is not None and len(predicted.values) != d:
        raise ValueError(
            f"predicted Betti vector has {len(predicted.values)} entries, expected {d}"
        )
    with _gc_paused():
        sc = signed_complex(net, box)
        sub = sublevel_subcomplex(sc)
        betti = betti_numbers(sub)
        regions = linear_region_count(sc)
    serra = serra_region_bound(net.architecture)
    binom = [betti_upper_bound(net.architecture, k) for k in range(d)]
    positive = [0] * (d + 1)  # dim -> cells of that dim labelled positive
    for c in sc.cells.values():
        if c.sign_label == "positive":
            positive[c.dim] += 1
    return AnalysisReport(
        architecture=net.architecture,
        fingerprint=network_fingerprint(net),
        box=box,
        betti=betti,
        region_count=regions,
        serra_bound=serra,
        binomial_bounds=tuple(binom),
        complement_cell_bounds=tuple(positive[1:]),
        predicted=predicted,
        euler=euler_characteristic(betti),
        euler_cells=sub.euler_cells(),
        oracle_beta0=oracle_beta0,
        violations=sc.violations,
    )

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

Betti numbers are β_k = #k-simplices − rank ∂_k − rank ∂_{k+1} over ℚ,
computed per connected component.  Before computing ranks each simplicial
complex is reduced again by elementary free-pair collapses (a simplex with
exactly one coface is removed together with it); ranks are then exact
fraction-free eliminations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .arrangement import (
    PolyhedralComplex,
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


def _poset_successors(pc: PolyhedralComplex):
    """Full strict order relation of the face poset, as successor sets.

    The poset is graded by cell dimension and the incidence pairs are its
    covering relation, so the full order is the transitive closure.
    """
    covers = {cid: [] for cid in pc.cells}
    for f, c in pc.faces:
        covers[f].append(c)
    order = sorted(pc.cells, key=lambda cid: -pc.cells[cid].dim)
    succ = {}
    for cid in order:
        s = set()
        for c in covers[cid]:
            s.add(c)
            s |= succ[c]
        succ[cid] = s
    return succ


def order_complex(pc: PolyhedralComplex) -> SimplicialComplex:
    """Barycentric subdivision: all strictly increasing chains in the face poset."""
    succ = _poset_successors(pc)
    by_dim = {}
    start = sorted(pc.cells)

    def extend(chain, last):
        by_dim.setdefault(len(chain) - 1, []).append(tuple(chain))
        for nxt in sorted(succ[last]):
            chain.append(nxt)
            extend(chain, nxt)
            chain.pop()

    for cid in start:
        extend([cid], cid)
    top = max(by_dim) if by_dim else -1
    return SimplicialComplex(
        tuple(tuple(sorted(by_dim.get(k, []))) for k in range(top + 1))
    )


def _collapse(simplices):
    """Remove free pairs (σ with a unique coface τ) until none remain.

    Operates on a dict k -> set of simplices; preserves homotopy type.
    """
    cofacets = {}
    for k in sorted(simplices):
        if k == 0:
            continue
        for tau in simplices[k]:
            for i in range(len(tau)):
                sigma = tau[:i] + tau[i + 1 :]
                cofacets.setdefault(sigma, set()).add(tau)
    queue = [s for s, cf in cofacets.items() if len(cf) == 1]
    alive = {s for k in simplices for s in simplices[k]}
    while queue:
        sigma = queue.pop()
        if sigma not in alive:
            continue
        cf = cofacets.get(sigma)
        if cf is None or len(cf) != 1:
            continue
        (tau,) = cf
        if tau not in alive:
            continue
        alive.discard(sigma)
        alive.discard(tau)
        for gone in (sigma, tau):
            for i in range(len(gone)):
                face = gone[:i] + gone[i + 1 :]
                if not face:
                    continue
                s = cofacets.get(face)
                if s is not None:
                    s.discard(gone)
                    if len(s) == 1:
                        queue.append(face)
    out = {}
    for s in alive:
        out.setdefault(len(s) - 1, []).append(s)
    return out


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


def _component_betti(simplices, max_k: int):
    """Betti numbers of one simplicial complex given as dict k -> list of chains."""
    reduced = _collapse(simplices)
    top = max(reduced) if reduced else -1
    counts = [len(reduced.get(k, [])) for k in range(top + 1)]
    ranks = [0] * (max(top, max_k) + 2)
    for k in range(1, top + 1):
        rows = _boundary_rows(reduced.get(k, []), reduced.get(k - 1, []))
        ranks[k] = sparse_rank(rows)
    betas = []
    for k in range(max_k + 1):
        n = counts[k] if k <= top else 0
        betas.append(n - ranks[k] - ranks[k + 1])
    return betas


def _component_cells(pc: PolyhedralComplex):
    parent = {cid: cid for cid in pc.cells}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f, c in pc.faces:
        rf, rc = find(f), find(c)
        if rf != rc:
            parent[rf] = rc
    groups = {}
    for cid in pc.cells:
        groups.setdefault(find(cid), []).append(cid)
    return list(groups.values())


def _poset_collapse(pc: PolyhedralComplex) -> PolyhedralComplex:
    """Remove free pairs of cells (σ with a unique live coface τ) until none remain.

    The complex must be closed under faces.  Any coface of τ would, by the
    diamond property, give σ a second coface, so τ is maximal and the cells
    left form a closed subcomplex of the same homotopy type.  The queue is
    seeded in pc.cells order and served first in first out, and neighbours
    are visited in sorted id order, so no set iteration order decides which
    cells survive.
    """
    cofaces = {cid: [] for cid in pc.cells}
    faces = {cid: [] for cid in pc.cells}
    for f, c in sorted(pc.faces):
        cofaces[f].append(c)
        faces[c].append(f)
    live = {cid: len(cf) for cid, cf in cofaces.items()}  # live coface counts
    alive = dict.fromkeys(pc.cells, True)
    queue = deque(cid for cid in pc.cells if live[cid] == 1)
    while queue:
        sigma = queue.popleft()
        if not alive[sigma] or live[sigma] != 1:
            continue
        tau = next(c for c in cofaces[sigma] if alive[c])
        alive[sigma] = alive[tau] = False
        for gone in (tau, sigma):
            for f in faces[gone]:
                live[f] -= 1
                if live[f] == 1:
                    queue.append(f)
    return pc.restrict(cid for cid, keep in alive.items() if keep)


def betti_numbers(pc: PolyhedralComplex) -> BettiVector:
    """Exact rational Betti numbers β_0 … β_{d−1} of the complex's support.

    The face poset is collapsed first; the remainder is computed per connected
    component (order complex, collapse, boundary ranks) and summed; d is the
    ambient dimension.
    """
    pc = _poset_collapse(pc)
    max_k = pc.ambient_dim - 1
    totals = [0] * (max_k + 1)
    for comp in _component_cells(pc):
        sub = pc.restrict(comp)
        chains = order_complex(sub)
        simplices = {k: list(s) for k, s in enumerate(chains.simplices) if s}
        for k, b in enumerate(_component_betti(simplices, max_k)):
            totals[k] += b
    return BettiVector(tuple(totals))


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
    reconciliation.
    """
    if box is None:
        box = BoxDomain.unit_cube(net.input_dim)
    d = box.dimension
    sc = signed_complex(net, box)
    sub = sublevel_subcomplex(sc)
    betti = betti_numbers(sub)
    regions = linear_region_count(sc)
    serra = serra_region_bound(net.architecture)
    binom = [betti_upper_bound(net.architecture, k) for k in range(d)]
    complement_cells = [
        sum(
            1
            for c in sc.cells.values()
            if c.dim == k + 1 and c.sign_label == "positive"
        )
        for k in range(d)
    ]
    return AnalysisReport(
        architecture=net.architecture,
        fingerprint=network_fingerprint(net),
        box=box,
        betti=betti,
        region_count=regions,
        serra_bound=serra,
        binomial_bounds=tuple(binom),
        complement_cell_bounds=tuple(complement_cells),
        predicted=predicted,
        euler=euler_characteristic(betti),
        euler_cells=sub.euler_cells(),
        oracle_beta0=oracle_beta0,
        violations=sc.violations,
    )

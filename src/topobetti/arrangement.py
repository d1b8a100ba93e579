"""Canonical polyhedral complex of a ReLU network restricted to a box.

The complex is built neuron by neuron in (layer, index) order.  For every
full-dimensional region of the current partition the neuron's pre-activation
restricts to an affine functional; if that functional changes sign on the
region, the region is split along the pullback hyperplane.  Constant
functionals record their sign and never split.  After all hidden neurons the
partition is exactly the set of linear pieces of the network (up to merges of
adjacent pieces with equal affine maps), and a final refinement by the output
zero-set yields a signed complex whose negative/zero part is the decision
region F⁻¹((−∞,0]) ∩ box.

Everything is exact and runs on integers: hyperplanes are primitive-integer,
vertices are homogeneous integer points that carry the ids of the hyperplanes
they lie on, and affine maps are integer columns over a common denominator.  A
split needs only the functional's values at the region's vertices: each new
vertex is the point where it vanishes on an edge between a positive and a
negative vertex.  The split is also the only place a functional is evaluated:
each region records every neuron's functional on it and its sign there, and
the layer's composition and the cell labels are read from that record.
Every layer, the output layer included, is split neuron by neuron and then
composed into each region's map; only the hidden layers apply the ReLU.
Each region carries its tight sets (constraint → its vertices on it), which
the split updates and the face lattice is read from.  The assembly walks each
region's faces down from those sets and does each face's bookkeeping once,
when it first reaches it: its label, the output's sign on the owning region
or "zero" when all the face's vertices lie on the output's hyperplane.  Every
cell of a region shares the region's output map.  No constraint's sign is
stored: the side of a facet's hyperplane that the region lies on is the
sign there of any of its vertices off it.  Edges expand straight to their
two vertices, each 0-cell takes its data from the first region that holds
it, and faces are deduplicated by their vertex sets, so the construction is
deterministic.

A split's hyperplane is interned by its primitive row (normal…, offset).
Vertices are ordered by integer ranks: the first axis's distinct values, as
reduced (num, den) pairs, are sorted once, and each later axis only among
the vertices still tied on the earlier ones.  The complex hands out the
build's own integer data: Cell.vertices holds the build's homogeneous
points, Cell.affine_map the owning region's reduced integer output map,
Cell.facets the face relation, and PolyhedralComplex.constraints the
hyperplane table's rows.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cmp_to_key
from operator import mul

from .exactgeom import BoxDomain, homogenize, sign
from .relunet import NeuronId, ReluNetwork

DEFAULT_MAX_CELLS = 2_000_000


class ComplexSizeError(RuntimeError):
    """Raised when the arrangement exceeds the configured cell cap."""


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring its previous state on exit.

    The build and the homology make no reference cycles, so reference counting
    frees everything they drop and a collection would only walk their live
    objects.  Nested pauses leave the collector off until the outermost ends.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _max_cells() -> int:
    raw = os.environ.get("TOPOBETTI_MAX_CELLS")
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        val = int(raw)
    except ValueError as e:
        raise ValueError(f"TOPOBETTI_MAX_CELLS must be an integer, got {raw!r}") from e
    if val <= 0:
        raise ValueError("TOPOBETTI_MAX_CELLS must be positive")
    return val


@dataclass(frozen=True, slots=True)
class Cell:
    """A closed polyhedron of the complex, identified by its vertex set.

    vertices are homogeneous integer points (x_1, …, x_d, w), the point
    x / w with w > 0 and gcd 1 (see exactgeom.homogenize), in lexicographic
    order of the points.  affine_map = (cols, consts, den) is the network's
    output on the cell's owning region, x -> (Σ_t x_t·cols[t][0] +
    consts[0]) / den: d integer columns of length 1 (the output is scalar),
    one integer constant and den > 0, with gcd 1 over all the integers, so
    equal maps are equal tuples; it is one tuple object that every cell of
    the region shares.  sign_label is "zero" where the output vanishes on
    the whole cell, and otherwise the output's sign on the interior of the
    owning region, "negative" or "positive".  facets are the ids of the
    cell's facets, one dimension down, in increasing id order (() for a
    0-cell): the face relation.
    """

    id: int
    dim: int
    vertices: tuple
    affine_map: tuple
    sign_label: str
    facets: tuple


@dataclass(frozen=True)
class PolyhedralComplex:
    """Full face lattice of the arrangement within the box.

    The face relation is each cell's facets.  violations are the stability
    events the build recorded, as (NeuronId, region-id, reason) triples in
    build order.
    """

    cells: dict  # cell id -> Cell, in increasing id order
    ambient_dim: int
    box: BoxDomain
    # the hyperplane table, by hid: primitive integer rows (normal…, offset)
    # of the hyperplanes normal·x + offset = 0
    constraints: tuple
    violations: tuple

    def cells_of_dim(self, k: int):
        return [c for c in self.cells.values() if c.dim == k]

    def full_cells(self):
        return self.cells_of_dim(self.ambient_dim)

    def euler_cells(self) -> int:
        return sum((-1) ** c.dim for c in self.cells.values())

    def restrict(self, ids) -> "PolyhedralComplex":
        """The subcomplex of these cells, the parent's own Cell objects.

        ids must be closed under faces, as both callers' are (the sublevel
        cells, and the cells a collapse leaves), so each kept cell's facets
        are kept.
        """
        ids = set(ids)
        return replace(self, cells={cid: c for cid, c in self.cells.items() if cid in ids})


def _primitive(grad, const):
    """The hyperplane grad·x + const = 0 as a primitive integer row, and its orientation.

    The row (grad…, const) is divided by its gcd and negated when its leading
    nonzero grad entry is negative, and the orientation is −1 exactly when it
    was negated, so sign(grad·x + const) == orientation · sign(row·(x, 1))
    and equal hyperplanes have equal rows.
    """
    lead = next((x for x in grad if x), 0)
    if not lead:
        raise ValueError("hyperplane with zero normal is invalid")
    g = math.gcd(*grad, const)
    if lead < 0:
        g = -g
    return tuple(x // g for x in (*grad, const)), (1 if g > 0 else -1)


class _Region:
    __slots__ = ("rid", "tight", "vertices", "affine", "activations")

    def __init__(self, rid, tight, vertices, affine, activations):
        self.rid = rid
        # {hid: the vertex ids on it}, one entry per facet of the region
        self.tight = tight
        self.vertices = vertices  # set of vertex ids
        # (cols, consts, den) over ints, the output of the layers composed so
        # far held by columns: input x -> (Σ_t x_t·cols[t] + consts) / den,
        # with den > 0 and gcd 1 over all the integers
        self.affine = affine
        # one (grad, const, sign, hid) per neuron of the current layer split so
        # far: its functional on the region (see _restrict_functional), its
        # sign on the region's interior (0 only where the functional is
        # identically 0) and its interned hyperplane (None when constant)
        self.activations = activations


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _restrict_functional(affine, wrow, b):
    """The functional wrow·y + b of the layer output y on a region.

    wrow and b are a row of AffineLayer.scaled, so the functional is
    (grad·x + const) / (layer den · affine den), with grad and const integers.
    """
    cols, consts, den = affine
    return tuple([_dot(wrow, col) for col in cols]), _dot(wrow, consts) + b * den


def _facets(groups, k: int) -> dict:
    """The entries of a (k + 1)-face's sets {hid: its vertices on hid} that are facets.

    The sets hold every facet and never the whole face.  A facet lies on one
    hyperplane only and every smaller face lies in a facet, so a facet is a
    set of more than k vertices that no other set strictly contains.  For
    k ≤ 2 the count alone decides: faces of dimension ≤ 1 have ≤ 2 vertices.
    """
    big = {hid: group for hid, group in groups.items() if len(group) > k}
    if k <= 2:
        return big
    return {hid: group for hid, group in big.items() if not any(group < g for g in big.values())}


class _Builder:
    """Splits the box neuron by neuron into the network's linear regions.

    Vertices are stored once, as homogeneous integer coordinates (see
    exactgeom.homogenize) with the set of hyperplane ids each lies on.  That
    set holds each constraint through the vertex of each region that has it,
    so tightness is set membership and the face lattice needs no arithmetic.
    """

    def __init__(self, net: ReluNetwork, box: BoxDomain):
        if net.input_dim != box.dimension:
            raise ValueError("box dimension does not match network input")
        self.net = net
        self.box = box
        self.d = box.dimension
        # the hyperplane table: primitive row (normal…, offset) -> hid, in hid order
        self.hids = {}
        self.coords = []  # vertex id -> homogeneous int coordinates
        self.incidence = []  # vertex id -> ids of the hyperplanes it lies on
        self._vertex_ids = {}
        self.violations = []  # (NeuronId, region id, reason) stability events
        self.cap = _max_cells()
        self._next_rid = 0
        identity = tuple(tuple(int(i == j) for j in range(self.d)) for i in range(self.d))
        base = self._new_region(None, set(), (identity, (0,) * self.d, 1), [])
        # the box is lower_i ≤ x_i ≤ upper_i; a bound p/q (gcd 1) is the
        # primitive row q·x_i − p = 0, so hids 0 … 2d − 1 are lower₀, upper₀,
        # lower₁, …
        for i, bounds in enumerate(zip(box.lower, box.upper)):
            for bound in bounds:
                row = tuple(bound.denominator if j == i else 0 for j in range(self.d))
                self.hids.setdefault((*row, -bound.numerator), len(self.hids))
        for corner in box.corners():
            p = homogenize(corner)
            vid = self._vertex(p)
            self.incidence[vid].update(k for row, k in self.hids.items() if _dot(row, p) == 0)
            base.vertices.add(vid)
        base.tight = {
            k: {v for v in base.vertices if k in self.incidence[v]} for k in self.hids.values()
        }
        self.regions = [base]

    def _new_region(self, tight, vertices, affine, activations) -> _Region:
        r = _Region(self._next_rid, tight, vertices, affine, activations)
        self._next_rid += 1
        return r

    def _vertex(self, coords) -> int:
        """Id of the vertex with these homogeneous coordinates, new or not."""
        vid = self._vertex_ids.get(coords)
        if vid is None:
            vid = len(self.coords)
            self.coords.append(coords)
            self.incidence.append(set())
            self._vertex_ids[coords] = vid
        return vid

    def run(self):
        """Split by every neuron, layer by layer, composing each layer after its splits.

        Afterwards every region's affine is its output map, and its one
        activation is the output's record, which the labels are read from.
        """
        if self.net.output_dim != 1:
            raise ValueError("the arrangement requires a scalar-output network")
        last = len(self.net.layers)
        for ell, layer in enumerate(self.net.layers, start=1):
            weights, bias, layer_den = layer.scaled
            for i, (wrow, b) in enumerate(zip(weights, bias), start=1):
                self._split_all(NeuronId(ell, i), wrow, b, output=ell == last)
            self._compose(layer_den, relu=ell < last)

    def _split_all(self, nid: NeuronId, wrow, b, output: bool):
        new_regions = []
        for r in self.regions:
            new_regions.extend(self._split(r, nid, wrow, b, output))
            if len(new_regions) > self.cap:
                raise ComplexSizeError(
                    f"arrangement exceeded TOPOBETTI_MAX_CELLS={self.cap}"
                )
        self.regions = new_regions

    def _split(self, r: _Region, nid: NeuronId, wrow, b, output: bool):
        grad, const = _restrict_functional(r.affine, wrow, b)
        if not any(grad):
            if const == 0:
                self.violations.append((nid, r.rid, "degenerate-pullback"))
            r.activations.append((grad, const, sign(const), None))
            return [r]
        hrow, orient = _primitive(grad, const)
        hid = self.hids.setdefault(hrow, len(self.hids))
        coords, incidence = self.coords, self.incidence
        pos, neg, zeros = {}, {}, set()  # pos and neg: vertex id -> value t
        for v in r.vertices:
            t = _dot(hrow, coords[v]) * orient
            if t > 0:
                pos[v] = t
            elif t < 0:
                neg[v] = t
            else:
                zeros.add(v)
                incidence[v].add(hid)
        if zeros and (output or (pos and neg)):
            # a hidden neuron's split through a vertex, or the output zero-set
            # through any vertex whether or not it splits, is a stability event
            self.violations.append((nid, r.rid, "vertex-on-hyperplane"))
        if not (pos and neg):
            r.activations.append((grad, const, 1 if pos else -1, hid))
            return [r]
        facet = zeros
        # A positive u and a negative v span an edge, which h cuts, exactly
        # when they are the only vertices tight on every constraint they share:
        # the constraints are facets and incidence is complete, so those
        # vertices are the vertices of the smallest face that holds u and v.
        on = r.tight
        facets = {v: on.keys() & incidence[v] for v in itertools.chain(pos, neg)}
        cut = {}  # hid -> the new vertices on it
        for u, tu in pos.items():
            for v, tv in neg.items():
                shared = facets[u] & facets[v]
                # an edge lies on at least d − 1 facets
                if len(shared) < self.d - 1:
                    continue
                if len(r.vertices.intersection(*(on[k] for k in shared))) != 2:
                    continue
                # t is linear along the edge, so this point has t = 0; its last
                # coordinate is positive, so dividing by the gcd gives homogenize's form
                p = tuple(tu * a - tv * c for a, c in zip(coords[v], coords[u]))
                g = math.gcd(*p)
                vid = self._vertex(tuple(x // g for x in p))
                incidence[vid].update(shared, (hid,))
                facet.add(vid)
                for k in shared:
                    cut.setdefault(k, []).append(vid)
        children = []
        for side, other, s in ((pos, neg, 1), (neg, pos, -1)):
            # a child's vertices on an old constraint are the parent's, less
            # those on the other side, plus the new vertices on it.  These
            # sets and the one on h hold every facet of the child, and a
            # constraint stays only while its set is one (_facets).  h crosses
            # the region's interior, so the parent has no tight set on h.
            groups = {}
            for k, group in on.items():
                group = group.difference(other)
                if k in cut:
                    group.update(cut[k])
                groups[k] = group
            groups[hid] = facet
            tight = _facets(groups, self.d - 1)
            activations = r.activations + [(grad, const, s, hid)]
            children.append(self._new_region(tight, facet.union(side), r.affine, activations))
        return children

    def _compose(self, layer_den: int, relu: bool):
        """Each region's map composed with the layer just split, reduced.

        The layer's outputs are the region's activations.  With relu, those
        of nonpositive sign are 0 and the record is cleared for the next
        layer; without (the output layer) every row and the record are kept.
        """
        zero = (0,) * self.d
        for r in self.regions:
            den = layer_den * r.affine[2]
            rows = [grad if s > 0 or not relu else zero for grad, _, s, _ in r.activations]
            consts = [const if s > 0 or not relu else 0 for _, const, s, _ in r.activations]
            if relu:
                r.activations = []
            g = math.gcd(den, *consts, *itertools.chain.from_iterable(rows))
            r.affine = (
                tuple(tuple(x // g for x in col) for col in zip(*rows)),
                tuple(c // g for c in consts),
                den // g,
            )


def _label(s: int) -> str:
    return "negative" if s < 0 else ("positive" if s > 0 else "zero")


def _compare_ratios(a, b) -> int:
    """An int with the sign of a[0]/a[1] − b[0]/b[1], for positive denominators."""
    return a[0] * b[1] - b[0] * a[1]


def _order_points(coords):
    """The lexicographic order of homogeneous integer points.

    Returns the indices of coords sorted by the points' rational coordinates.
    Axis values are compared as reduced (num, den) pairs by
    cross-multiplication, and an axis is ranked only among the points that
    tie on every earlier axis: each point's key is its ranks so far as one
    mixed-radix integer, and the ranking stops once the keys are distinct.
    A point with no tie keeps rank 0 on later axes, which cannot reorder it.
    On perturbed networks the first axis already tells every point apart.
    No common denominator is formed: there the lcm of the points'
    denominators runs to 10⁴–10⁵ bits.
    """
    ws = [p[-1] for p in coords]
    columns = [
        [(x // (g := math.gcd(x, w)), w // g) for x, w in zip(xs, ws)]
        for xs in list(zip(*coords))[:-1]
    ]
    n = len(coords)
    keys = [0] * n
    tied = None  # indices of the points whose key another point shares; None for all
    for values in columns:
        ranked = set(values) if tied is None else {values[i] for i in tied}
        by_value = sorted(ranked, key=cmp_to_key(_compare_ratios))
        rank = dict(zip(by_value, itertools.count(1)))
        base = len(by_value) + 1
        keys = [k * base + rank.get(v, 0) for k, v in zip(keys, values)]
        count = Counter(keys)
        if len(count) == n:
            break
        tied = [i for i, k in enumerate(keys) if count[k] > 1]
    return sorted(range(n), key=keys.__getitem__)


def _assemble(b: _Builder) -> PolyhedralComplex:
    """The face lattice of the build's regions, with each cell's map and label.

    A face's owner is the first region, in build order, that holds it; the
    face shares the owner's affine map and takes its label from the owner.
    The walk does each face's bookkeeping once, when it first reaches it.
    A face of dimension ≥ 2 finds its facets among its tight sets, which it
    intersects down from its coface's, and the walk records them.  An
    edge's facets are its two vertices, so edges are expanded straight to
    them.  The cap is checked as each new face, full cells included, is
    found, so an oversized lattice stops part-way through a walk.  After a
    region's walk, each of its vertices that no earlier region holds takes
    the region's map and label.  A split hands every vertex of its region,
    and every new one, to a child, so every vertex the build made is a
    0-cell; and distinct regions are distinct polytopes, so each region is
    one full cell.

    The output has one sign on the owner's interior and vanishes on a face
    of it exactly when all the face's vertices lie on the output's
    hyperplane, which incidence, complete on every region's vertices, tells.
    """
    regions, box, cap = b.regions, b.box, b.cap
    coords, incidence = b.coords, b.incidence
    d = box.dimension
    # the 0-cells come first, in the order of their rational points
    order = _order_points(coords)
    rank = [0] * len(coords)  # vertex id -> rank
    for x, v in enumerate(order):
        rank[v] = x
    points = list(map(coords.__getitem__, order))
    vertex_data = [None] * len(coords)  # rank -> (owner's affine map, label)
    limit = cap - len(coords)  # for the faces of dimension ≥ 1
    overflow = f"arrangement exceeded TOPOBETTI_MAX_CELLS={cap}"
    # faces of dimension ≥ 1 by discovery index
    index = {}  # frozenset(vertex ids) of a face of dim 1 … d − 1 -> discovery index
    found = []  # discovery index -> (vertex ids, owner's affine map, label)
    by_dim = [[] for _ in range(d + 1)]  # dim -> discovery indices
    below = {}  # discovery index of a face of dim ≥ 2 -> its facets' discovery indices
    for r in regions:
        _, _, out_sign, out_hid = r.activations[0]
        affine_map, label = r.affine, _label(out_sign)
        # the owner's vertices on the output's hyperplane
        touched = {v for v in r.vertices if out_hid in incidence[v]}
        i = len(found)
        if i >= limit:
            raise ComplexSizeError(overflow)
        found.append((r.vertices, affine_map, label))
        by_dim[d].append(i)
        # a face to expand: its index and dimension, and for each hid that
        # meets it without holding it, its vertices on that hid.  Those sets
        # hold the face's facets, and _facets picks them out.
        stack = [(i, d, r.tight)] if d > 1 else []
        while stack:
            i, dim, tight = stack.pop()
            k = dim - 1
            its_facets = below[i] = []
            for group in _facets(tight, k).values():
                sub = frozenset(group)
                j = index.get(sub)
                if j is None:
                    j = index[sub] = len(found)
                    if j >= limit:
                        raise ComplexSizeError(overflow)
                    if k > 1:
                        sub_tight = {
                            hid: meet
                            for hid, other in tight.items()
                            if 0 < len(meet := other & sub) < len(sub)
                        }
                        stack.append((j, k, sub_tight))
                    found.append((sub, affine_map, "zero" if sub <= touched else label))
                    by_dim[k].append(j)
                its_facets.append(j)
        for v in r.vertices:
            x = rank[v]
            if vertex_data[x] is None:
                vertex_data[x] = (affine_map, "zero" if v in touched else label)

    # The cells are made in id order, which keeps them together in memory
    # for the passes over them.  The other cells follow the 0-cells by
    # dimension, and within one by their ranked vertex lists, so a cell's
    # facets have ids when it is made.
    cells = [
        Cell(x, 0, (point,), affine_map, label, ())
        for x, (point, (affine_map, label)) in enumerate(zip(points, vertex_data))
    ]
    ids = [0] * len(found)  # discovery index -> cell id
    for dim in range(1, d + 1):
        bucket = by_dim[dim]
        ranked = [sorted(map(rank.__getitem__, found[i][0])) for i in bucket]
        for x in sorted(range(len(bucket)), key=ranked.__getitem__):
            i = bucket[x]
            ids[i] = cid = len(cells)
            _, affine_map, label = found[i]
            vertices = tuple(map(points.__getitem__, ranked[x]))
            if dim == 1:
                # an edge's facets are its vertices, whose ids are their ranks;
                # the 0-cells' own id objects keep one int per id
                facets = tuple(cells[y].id for y in ranked[x])
            else:
                # for d ≥ 4 the walk may reach a facet through more than one hid
                facets = tuple(sorted({ids[j] for j in below[i]}))
            cells.append(Cell(cid, dim, vertices, affine_map, label, facets))
    return PolyhedralComplex(
        cells={c.id: c for c in cells},
        ambient_dim=d,
        box=box,
        constraints=tuple(b.hids),
        violations=tuple(b.violations),
    )


def signed_complex(net: ReluNetwork, box: BoxDomain) -> PolyhedralComplex:
    """One-pass construction of the output-refined, sign-labeled complex."""
    with _gc_paused():
        b = _Builder(net, box)
        b.run()
        return _assemble(b)


def sublevel_subcomplex(sc: PolyhedralComplex) -> PolyhedralComplex:
    """Subcomplex of cells labeled negative or zero; support is F⁻¹((−∞,0]) ∩ box."""
    return sc.restrict(
        cid for cid, c in sc.cells.items() if c.sign_label in ("negative", "zero")
    )


def linear_region_count(complex: PolyhedralComplex) -> int:
    """Number of maximal linear pieces within the box.

    Adjacent full-dimensional cells with identical affine restrictions are
    merged before counting.
    """
    full = complex.full_cells()
    parent = {c.id: c.id for c in full}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    affines = {c.id: c.affine_map for c in full}
    cofaces = {}
    for c in full:
        for f in c.facets:
            cofaces.setdefault(f, []).append(c.id)
    for group in cofaces.values():
        for a, b in itertools.combinations(group, 2):
            if affines[a] == affines[b]:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    return len({find(c.id) for c in full})

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
vertices are homogeneous integer points, and affine maps are integer columns
over a common denominator.  A split needs only the functional's values at
the region's vertices: each new vertex is the point where it vanishes on an
edge between a positive and a negative vertex, shared by every region that
holds the edge.  A functional is restricted to a region's map once per
layer and distinct map: at the layer's start regions with equal maps share
one table of the layer's functionals, which split children inherit, since
within a layer every region's map is its ancestor's at the layer's start.
Each region records every neuron's sign on it and its vertices on the
neuron's hyperplane; the layer's composition (from the table) and the cell
labels are read from that record.  Every layer, the output layer included,
is split neuron by neuron and then composed into each region's map; only
the hidden layers apply the ReLU.  Each region carries its tight sets
(constraint → its vertices on it), the build's one incidence record, which
the split updates and the face lattice is read from.  The assembly walks each
region's faces down from those sets and makes each face's cell once, right
after its facets' cells: its label is the output's sign on the owning region
or "zero" when all the face's vertices lie on the output's hyperplane.  Every
cell of a region shares the region's output map.  No constraint's sign is
stored: the side of a facet's hyperplane that the region lies on is the
sign there of any of its vertices off it.  Edges expand straight to their
two vertices, each 0-cell takes its data from the first region that holds
it, and faces are deduplicated by their vertex sets, so the construction is
deterministic.

sublevel_complex makes the sublevel complex alone, from one build and a
walk that makes no positive cell (see _assemble).  It walks the regions of
output sign ≤ 0, whose faces are negative or zero, and then a positive
region only where its touched face (where the output, ≥ 0 on it, vanishes)
is not yet a cell: the zero set meets that region from the positive side
alone.  A face shared with a positive region lies in the zero set, so it
is zero whoever owns it; the cells are sublevel_subcomplex's of the full
complex, up to their numbering and which region's map a shared zero face
carries.

A split's hyperplane is interned by its primitive row (normal…, offset).
Cells are numbered in build order: a 0-cell's id is its vertex id, and
every other cell takes the next id as the walk makes it, so each facet's id
is below its cell's.  The build is deterministic, so the numbering is too,
and every number the program reports is the same under any renumbering.
The complex hands out the build's own integer data: PolyhedralComplex.points
holds the build's homogeneous points by 0-cell id, Cell.affine_map the
owning region's reduced integer output map, Cell.facets the face relation (a
cell's vertices are the 0-cells below it), and PolyhedralComplex.constraints
the hyperplane table's rows.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
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
    """A closed polyhedron of the complex.

    Its vertices are the 0-cells below it through facets, whose points the
    complex holds.  affine_map = (cols, consts, den) is the network's
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
    affine_map: tuple
    sign_label: str
    facets: tuple


_SET_CELL = tuple(getattr(Cell, name).__set__ for name in Cell.__slots__)


def _cell(cid, dim, affine_map, sign_label, facets) -> Cell:
    """Cell(cid, dim, …), made without the frozen dataclass's __init__.

    That __init__ sets each field through object.__setattr__; filling the
    slots through the class's own descriptors costs about half as much, and
    the assembly makes one cell per face.
    """
    c = object.__new__(Cell)
    set_id, set_dim, set_map, set_label, set_facets = _SET_CELL
    set_id(c, cid)
    set_dim(c, dim)
    set_map(c, affine_map)
    set_label(c, sign_label)
    set_facets(c, facets)
    return c


@dataclass(frozen=True)
class PolyhedralComplex:
    """Full face lattice of the arrangement within the box.

    The face relation is each cell's facets.  points are the 0-cells'
    homogeneous integer points (x_1, …, x_d, w), the point x / w with w > 0
    and gcd 1 (see exactgeom.homogenize), by 0-cell id, in the order the
    build made them.  violations are the stability events the build
    recorded, as (NeuronId, region-id, reason) triples in build order.
    """

    cells: dict  # cell id -> Cell, in increasing id order
    ambient_dim: int
    points: tuple
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
    __slots__ = ("rid", "tight", "vertices", "affine", "table", "activations")

    def __init__(self, rid, tight, vertices, affine, table, activations):
        self.rid = rid
        # {hid: the vertex ids on it}, one entry per facet of the region
        self.tight = tight
        self.vertices = vertices  # set of vertex ids
        # (cols, consts, den) over ints, the output of the layers composed so
        # far held by columns: input x -> (Σ_t x_t·cols[t] + consts) / den,
        # with den > 0 and gcd 1 over all the integers
        self.affine = affine
        # the current layer's neurons restricted to affine, one table shared
        # by every region with an equal map (see _Builder._restrict_layer)
        self.table = table
        # one (sign, zeros) per neuron of the current layer split so far: its
        # sign on the region's interior (0 only where its functional is
        # identically 0) and the region's vertices on its hyperplane (None if none)
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
    exactgeom.homogenize).  The regions' tight sets are the one incidence
    record: each holds all the region's vertices on one of its facets, so
    tightness is set membership and the face lattice needs no arithmetic.
    """

    def __init__(self, net: ReluNetwork, box: BoxDomain):
        if net.input_dim != box.dimension:
            raise ValueError("box dimension does not match network input")
        self.net = net
        self.d = box.dimension
        # the hyperplane table: primitive row (normal…, offset) -> hid, in hid order
        self.hids = {}
        self.coords = [homogenize(c) for c in box.corners()]  # vertex id -> homogeneous ints
        self.violations = []  # (NeuronId, region id, reason) stability events
        self.cap = _max_cells()
        self._next_rid = 0
        # the box is lower_i ≤ x_i ≤ upper_i; a bound p/q (gcd 1) is the
        # primitive row q·x_i − p = 0, so hids 0 … 2d − 1 are lower₀, upper₀,
        # lower₁, …
        for i, bounds in enumerate(zip(box.lower, box.upper)):
            for bound in bounds:
                row = tuple(bound.denominator if j == i else 0 for j in range(self.d))
                self.hids.setdefault((*row, -bound.numerator), len(self.hids))
        tight = {
            k: {v for v, p in enumerate(self.coords) if _dot(row, p) == 0}
            for row, k in self.hids.items()
        }
        identity = tuple(tuple(int(i == j) for j in range(self.d)) for i in range(self.d))
        vertices = set(range(len(self.coords)))
        self.regions = [self._new_region(tight, vertices, (identity, (0,) * self.d, 1), None, [])]

    def _new_region(self, tight, vertices, affine, table, activations) -> _Region:
        r = _Region(self._next_rid, tight, vertices, affine, table, activations)
        self._next_rid += 1
        return r

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
            self._restrict_layer(weights, bias)
            for i in range(len(bias)):
                self._split_all(NeuronId(ell, i + 1), i, output=ell == last)
            self._compose(layer_den, relu=ell < last)

    def _restrict_layer(self, weights, bias):
        """Point each region at the layer's neurons restricted to its map.

        Within a layer every region's map is its ancestor's at the layer's
        start, so one table per distinct map serves every split of the
        layer, and split children inherit their parent's.  The table holds
        one (grad, const, hrow, orient) per neuron: its functional on the
        region (see _restrict_functional) and, unless that is constant, its
        primitive row and orientation (see _primitive); hrow is None for a
        constant.
        """
        tables = {}
        for r in self.regions:
            table = tables.get(r.affine)
            if table is None:
                table = tables[r.affine] = []
                for wrow, b in zip(weights, bias):
                    grad, const = _restrict_functional(r.affine, wrow, b)
                    hrow, orient = _primitive(grad, const) if any(grad) else (None, 0)
                    table.append((grad, const, hrow, orient))
            r.table = table

    def _split_all(self, nid: NeuronId, i: int, output: bool):
        new_regions = []
        cuts = {}  # (positive end, negative end) of an edge the neuron cuts -> its new vertex
        for r in self.regions:
            new_regions.extend(self._split(r, nid, i, output, cuts))
            if len(new_regions) > self.cap:
                raise ComplexSizeError(f"arrangement exceeded TOPOBETTI_MAX_CELLS={self.cap}")
        self.regions = new_regions

    def _split(self, r: _Region, nid: NeuronId, i: int, output: bool, cuts: dict):
        _, const, hrow, orient = r.table[i]
        if hrow is None:
            if const == 0:
                self.violations.append((nid, r.rid, "degenerate-pullback"))
            r.activations.append((sign(const), None))
            return [r]
        hid = self.hids.setdefault(hrow, len(self.hids))
        coords = self.coords
        pos, neg, zeros = {}, {}, set()  # pos and neg: vertex id -> value t
        for v in r.vertices:
            t = _dot(hrow, coords[v]) * orient
            if t > 0:
                pos[v] = t
            elif t < 0:
                neg[v] = t
            else:
                zeros.add(v)
        if zeros and (output or (pos and neg)):
            # a hidden neuron's split through a vertex, or the output zero-set
            # through any vertex whether or not it splits, is a stability event
            self.violations.append((nid, r.rid, "vertex-on-hyperplane"))
        if not (pos and neg):
            r.activations.append((1 if pos else -1, zeros or None))
            return [r]
        facet = zeros
        # A positive u and a negative v span an edge, which h cuts, exactly
        # when they are the only vertices tight on every constraint they share:
        # each tight set holds all the region's vertices on its facet, so those
        # are the vertices of the smallest face that holds u and v.  The
        # pre-activation is continuous, so every region that holds the edge
        # sees these signs at its ends and the same zero between them, which
        # no other vertex of the face-to-face partition lies on: the first
        # such region makes that vertex, the rest take it from cuts.
        on = r.tight
        facets = {v: {k for k, g in on.items() if v in g} for v in itertools.chain(pos, neg)}
        cut = {}  # hid -> the new vertices on it
        for u, tu in pos.items():
            for v, tv in neg.items():
                shared = facets[u] & facets[v]
                # an edge lies on at least d − 1 facets
                if len(shared) < self.d - 1:
                    continue
                if len(r.vertices.intersection(*(on[k] for k in shared))) != 2:
                    continue
                vid = cuts.get((u, v))
                if vid is None:
                    # t is linear along the edge, so this point has t = 0; its last
                    # coordinate is positive, so dividing by the gcd gives homogenize's form
                    p = tuple(tu * a - tv * c for a, c in zip(coords[v], coords[u]))
                    g = math.gcd(*p)
                    vid = cuts[u, v] = len(coords)
                    coords.append(tuple(x // g for x in p))
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
            activations = r.activations + [(s, facet)]
            children.append(
                self._new_region(tight, facet.union(side), r.affine, r.table, activations)
            )
        return children

    def _compose(self, layer_den: int, relu: bool):
        """Each region's map composed with the layer just split, reduced.

        The layer's outputs are the functionals in the region's table, with
        the signs of its activations.  With relu, those of nonpositive sign
        are 0 and the record is cleared for the next layer; without (the
        output layer) every row and the record are kept.
        """
        zero = (0,) * self.d
        for r in self.regions:
            den = layer_den * r.affine[2]
            live = [s > 0 or not relu for s, _ in r.activations]
            rows = [f[0] if kept else zero for f, kept in zip(r.table, live)]
            consts = [f[1] if kept else 0 for f, kept in zip(r.table, live)]
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


def _assemble(b: _Builder, sublevel: bool = False) -> PolyhedralComplex:
    """The face lattice of the build's regions, with each cell's map and label.

    A face's owner is the first region, in walk order, that holds it; the
    face shares the owner's affine map and takes its label from the owner.
    Each region's walk starts at its full cell.  A face of dimension ≥ 2
    finds its facets among its tight sets, which it intersects down from
    its coface's, and an edge's facets are its two vertices.  The walk
    makes a face's cell when it first reaches the face, right after its
    facets' cells, and gives it the next id; the 0-cells are ids 0 … V − 1,
    their vertex ids, and are made last.  The cap is checked as each cell
    is made, so an oversized lattice stops part-way through a walk.  After
    a region's walk, each of its vertices that no earlier region holds
    takes the region's map and label.  A split hands every vertex of its
    region, and every new one, to a child, so every vertex the build made
    is a 0-cell; and distinct regions are distinct polytopes, so each
    region is one full cell.  The walk visits the regions in build order.

    The output has one sign on the owner's interior and vanishes on a face
    of it exactly when all the face's vertices lie on the output's
    hyperplane, that is, lie in the owner's record of its vertices there.

    With sublevel, only the sublevel complex is made: no positive cell is.
    The walk visits the regions of output sign ≤ 0 first, in build order;
    their faces are labelled negative or zero.  A positive region then adds
    sublevel cells only through its touched face, the hull of its vertices
    in the output's record, where the output (≥ 0 on it) vanishes.  A face
    it shares with a region of sign ≤ 0 lies there too, so it is zero
    whichever region owns it: only its map can differ from the full walk's.
    If the touched face is already a cell (its vertex is a 0-cell, or its
    vertex set is in the index), so are its faces and the region is
    skipped.  Otherwise (the output's zero set meets the region only from
    the positive side) the region is walked whole and its positive cells
    are dropped, keeping their places in the index but making no Cell and
    taking no id; only a positive cell has a positive facet.  0-cells are
    made only for the vertices of walked regions that are not positive.
    """
    cap, d = b.cap, b.d
    vids = list(range(len(b.coords)))  # the 0-cells' ids: edges' facets are these objects
    vertex_data = [None] * len(vids)  # vertex id -> (owner's affine map, label)
    index = {}  # frozenset(vertex ids) of a face of dim 1 … d − 1 -> cell id
    cells = []  # the cells of dim ≥ 1, in id order

    # make(vertices, …) makes the owner's cell on vertices after its facets'
    # cells and returns its id, or -1 for a positive cell that sublevel drops.
    # tight holds, for each hid that meets the face without holding it, the
    # face's vertices on it; _facets picks the facets
    def make(vertices, dim, tight, label) -> int:
        if dim == 1:
            facets = tuple(vids[v] for v in sorted(vertices))
        else:
            # for d ≥ 4 the walk may reach a facet through more than one hid
            facet_ids = set()
            for group in _facets(tight, dim - 1).values():
                sub = frozenset(group)
                j = index.get(sub)
                if j is None:
                    sub_tight = None
                    if dim > 2:
                        sub_tight = {
                            hid: meet
                            for hid, other in tight.items()
                            if 0 < len(meet := other & sub) < len(sub)
                        }
                    sub_label = "zero" if sub <= touched else owner_label
                    j = index[sub] = make(sub, dim - 1, sub_tight, sub_label)
                facet_ids.add(j)
            facets = tuple(sorted(facet_ids))
        if sublevel and label == "positive":
            return -1
        cid = len(vids) + len(cells)
        if cid >= cap:
            raise ComplexSizeError(f"arrangement exceeded TOPOBETTI_MAX_CELLS={cap}")
        cells.append(_cell(cid, dim, affine_map, label, facets))
        return cid

    regions = b.regions
    if sublevel:  # a stable sort: the regions of sign ≤ 0 first, each part in build order
        regions = sorted(regions, key=lambda r: r.activations[0][0] > 0)
    for r in regions:
        out_sign, touched = r.activations[0]
        affine_map, owner_label = r.affine, _label(out_sign)
        touched = touched or frozenset()  # the owner's vertices on the output's hyperplane
        walked = r.vertices
        if sublevel and out_sign > 0:
            # skip it unless its touched face is not yet a cell
            if not touched or (
                vertex_data[min(touched)] is not None
                if len(touched) == 1
                else frozenset(touched) in index
            ):
                continue
            walked = touched  # its vertices off the zero set are positive
        make(r.vertices, d, r.tight, owner_label)
        for v in walked:
            if vertex_data[v] is None:
                vertex_data[v] = (affine_map, "zero" if v in touched else owner_label)
    # make refers to itself through its closure: dropping the name breaks the
    # cycle, so reference counting frees it (after a size error the collector does)
    del make
    zero_cells = [
        _cell(v, 0, *data, ()) for v, data in zip(vids, vertex_data) if data is not None
    ]
    return PolyhedralComplex(
        cells={c.id: c for c in itertools.chain(zero_cells, cells)},
        ambient_dim=d,
        points=tuple(b.coords),
        constraints=tuple(b.hids),
        violations=tuple(b.violations),
    )


def signed_complex(net: ReluNetwork, box: BoxDomain) -> PolyhedralComplex:
    """One-pass construction of the output-refined, sign-labeled complex."""
    with _gc_paused():
        b = _Builder(net, box)
        b.run()
        return _assemble(b)


def sublevel_complex(net: ReluNetwork, box: BoxDomain) -> PolyhedralComplex:
    """sublevel_subcomplex(signed_complex(net, box)), made without its positive cells.

    One build and _assemble's sublevel walk: the same cells, up to their
    numbering and which region's map a shared zero face carries, with the
    same points and violations.
    """
    with _gc_paused():
        b = _Builder(net, box)
        b.run()
        return _assemble(b, sublevel=True)


def sublevel_subcomplex(sc: PolyhedralComplex) -> PolyhedralComplex:
    """Subcomplex of cells labeled negative or zero; support is F⁻¹((−∞,0]) ∩ box.

    The complex is refined along the output's zero set, so these cells are
    closed under faces.  They are sc's own Cell objects, with sc's points.
    """
    return replace(
        sc, cells={cid: c for cid, c in sc.cells.items() if c.sign_label in ("negative", "zero")}
    )


def linear_region_count(complex: PolyhedralComplex) -> int:
    """Number of maximal linear pieces within the box.

    Adjacent full-dimensional cells with identical affine restrictions are
    merged before counting.  A (d−1)-cell of a subdivision of the box lies in
    at most two d-cells, so each facet pairs the first full cell seen above
    it with any later one.
    """
    full = complex.full_cells()
    parent = {c.id: c.id for c in full}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    above = {}  # facet id -> the first full cell seen above it
    for c in full:
        for f in c.facets:
            a = above.setdefault(f, c)
            if a is not c and a.affine_map == c.affine_map:
                ra, rb = find(a.id), find(c.id)
                if ra != rb:
                    parent[ra] = rb
    return len({find(c.id) for c in full})

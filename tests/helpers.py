"""Shared test helpers.

- Hand-built polyhedral complexes from unit-cube unions.  They are assembled
  directly from integer corner coordinates and share no code with the
  arrangement pipeline, so homology tests run against an independently
  constructed face lattice.
- Hypothesis strategies for small random rational networks and boxes.
- A seeded generator of generic networks: a random head after a fold,
  every parameter perturbed.
- corner_split_network, whose hidden hyperplane splits the unit square
  through two of its corners, so it is not combinatorially stable.
- The uncollapsed homology path, the reference that betti_numbers and its
  face-poset collapse are checked against.
- The per-point union-find, the reference that grid_beta0 is checked against.
- One build that hands out both its _Builder and its signed complex.
- The digest that pins a signed complex's cells, facets and constraints,
  read in the canonical numbering of oracles.canonical_ids.
- relabel, which renumbers a complex's cells, for the tests that read a
  complex in that numbering.
- The face-lattice assembly as it was before the walk settled labels and
  expanded edges straight to their vertices: the reference that
  arrangement._assemble is checked against.
"""

from __future__ import annotations

import hashlib
import random
from collections import namedtuple
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
from hypothesis import strategies as st

from topobetti.arrangement import (
    Cell,
    ComplexSizeError,
    PolyhedralComplex,
    _assemble,
    _Builder,
    _gc_paused,
    _label,
)
from oracles import (
    active_constraints,
    canonical_ids,
    cell_vertices,
    dehomogenize,
    matrix_rank,
    sparse_rank,
)
from topobetti.constructions import FoldingSpec, build_folding_network
from topobetti.exactgeom import BoxDomain, vdot
from topobetti.homology import _boundary_rows, order_complex
from topobetti.relunet import AffineLayer, ReluNetwork, compose
from topobetti.stability import _perturbed
from topobetti.verify import SignGrid


def box_complex(cubes, ambient_dim: int) -> PolyhedralComplex:
    """Face lattice of a union of axis-aligned unit cubes with integer corners.

    `cubes` is an iterable of lower-corner integer tuples; each cube is
    [a, a+1]^d.  Faces pick, per axis, the lower endpoint, the upper endpoint,
    or the whole interval; shared faces are deduplicated by vertex set.  The
    points are homogeneous (x…, 1), as the arrangement's are, and every cell
    is labelled "negative", so the whole union is a sublevel set.
    """
    faces = {}  # frozenset of vertices -> (dim, sorted vertex tuple)
    for base in cubes:
        if len(base) != ambient_dim:
            raise ValueError("cube corner has wrong dimension")
        for choice in product((0, 1, 2), repeat=ambient_dim):
            axes = [
                (base[i], base[i] + 1) if c == 2 else (base[i] + c,)
                for i, c in enumerate(choice)
            ]
            verts = tuple(sorted(product(*axes)))
            dim = sum(1 for c in choice if c == 2)
            faces[frozenset(verts)] = (dim, verts)

    ordered = sorted(faces.values())
    ids = {verts: i for i, (_, verts) in enumerate(ordered)}
    zero_map = (((0,),) * ambient_dim, (0,), 1)
    # cells are numbered in increasing (dim, vertices) order, so each cell's
    # facets come out in increasing id order, and the 0-cells come first in
    # the lexicographic order of their points
    facets = {}
    for dim, verts in ordered:
        vset = set(verts)
        facets[verts] = tuple(
            ids[fverts] for fdim, fverts in ordered if fdim == dim - 1 and set(fverts) <= vset
        )
    cells = {
        ids[verts]: Cell(
            id=ids[verts],
            dim=dim,
            affine_map=zero_map,
            sign_label="negative",
            facets=facets[verts],
        )
        for dim, verts in ordered
    }
    return PolyhedralComplex(
        cells=cells,
        ambient_dim=ambient_dim,
        points=tuple((*verts[0], 1) for dim, verts in ordered if dim == 0),
        constraints=(),
        violations=(),
    )


def folding_closed_form(M: int, index, x):
    """Value of the M-folding map on the small cube with 1-based multi-index.

    On the cube [(i_j−1)/M, i_j/M] per coordinate, the map is M·x_j − (i_j−1)
    for odd i_j and i_j − M·x_j for even i_j (alternating mirroring).
    """
    out = []
    for i, v in zip(index, x):
        out.append(M * v - (i - 1) if i % 2 == 1 else i - M * v)
    return tuple(out)


def random_point_in_cube(M: int, index, rng):
    """A uniformly random rational point inside the given small cube."""
    res = 10**4
    return tuple(
        Fraction(i - 1, M) + Fraction(rng.randint(0, res), res) / M for i in index
    )


def ring_cubes_2d():
    """The 3×3 block of unit squares minus the center: an annulus."""
    return [(i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)]


def shell_cubes_3d():
    """The 3×3×3 block of unit cubes minus the center: a thickened sphere."""
    return [
        (i, j, k)
        for i in range(3)
        for j in range(3)
        for k in range(3)
        if (i, j, k) != (1, 1, 1)
    ]


weights = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def networks(draw, dims=(2, 3), max_width=3, max_hidden=2):
    """A scalar ReLU network with d in dims inputs and 1..max_hidden hidden layers."""
    d = draw(st.sampled_from(dims))
    hidden = draw(st.lists(st.integers(1, max_width), min_size=1, max_size=max_hidden))
    widths = [d] + hidden + [1]
    layers = tuple(
        AffineLayer(
            tuple(tuple(draw(weights) for _ in range(n_in)) for _ in range(n_out)),
            tuple(draw(weights) for _ in range(n_out)),
        )
        for n_in, n_out in zip(widths, widths[1:])
    )
    return ReluNetwork(layers)


@st.composite
def boxes(draw, d):
    # boxes around the origin, where the random hyperplanes mostly pass
    corner = st.fractions(min_value=-2, max_value=0, max_denominator=4)
    side = st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=4)
    lower = [draw(corner) for _ in range(d)]
    sides = [draw(side) for _ in range(d)]
    return BoxDomain(tuple(lower), tuple(lo + s for lo, s in zip(lower, sides)))


@st.composite
def network_and_box(draw, **shape):
    net = draw(networks(**shape))
    return net, draw(boxes(net.input_dim))


def generic_network(seed: int, d: int, m: int) -> ReluNetwork:
    """A seeded random network on [0, 1]^d whose arrangement is generic.

    A random rational head, one hidden layer of width ≤ 3 and a
    scalar output, runs after one m-fold folding stage, which maps each
    cube of side 1/m onto [0, 1]^d, so the head's decision region is
    mirrored into m^d copies that meet along the folds.  Each hidden
    hyperplane, and the output's zero set, passes through a random point of
    [0, 1]^d.  Every parameter of the composite is then perturbed at
    δ = 10⁻⁶ (stability._perturbed), which breaks the coincidences of the
    folds and of the small weights.
    """
    rng = random.Random(f"generic:{d}:{seed}")

    def frac(n):  # p/q with |p| ≤ n and 1 ≤ q ≤ 4
        return Fraction(rng.randint(-n, n), rng.randint(1, 4))

    def point():
        return [Fraction(rng.randint(1, 7), 8) for _ in range(d)]

    width = rng.randint(1, 3)
    rows = [tuple(frac(12) for _ in range(d)) for _ in range(width)]
    bias = [-vdot(row, point()) for row in rows]
    coefs = tuple(frac(8) for _ in range(width))
    p = point()
    value = vdot(coefs, [max(0, vdot(row, p) + c) for row, c in zip(rows, bias)])
    head = ReluNetwork((AffineLayer(tuple(rows), tuple(bias)), AffineLayer((coefs,), (-value,))))
    net = compose(head, build_folding_network(FoldingSpec(d, (m,))))
    return _perturbed(net, Fraction(1, 10**6), rng)


def corner_split_network() -> ReluNetwork:
    """relu(x₁ − x₂) − 1/3: the hidden hyperplane x₁ = x₂ splits the unit
    square through its corners (0, 0) and (1, 1), and the output's zero-set
    x₁ − x₂ = 1/3 meets no vertex of a region."""
    return ReluNetwork(
        (
            AffineLayer(((Fraction(1), Fraction(-1)),), (Fraction(0),)),
            AffineLayer(((Fraction(1),),), (Fraction(-1, 3),)),
        )
    )


def uncollapsed_betti(pc: PolyhedralComplex) -> tuple:
    """Betti numbers of pc with no collapse of any kind.

    The boundary ranks of the order complex of every cell, in one piece,
    each over all of ∂_k's rows: no clearing.
    """
    simplices = order_complex(pc).simplices
    d = pc.ambient_dim
    ranks = [0] * (d + 1)
    for k in range(1, len(simplices)):
        ranks[k] = sparse_rank(_boundary_rows(simplices[k], simplices[k - 1]))
    counts = [len(s) for s in simplices] + [0] * (d + 1 - len(simplices))
    return tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(d))


def reference_grid_beta0(sg: SignGrid) -> int:
    """Components of the nonpositive grid-point set under 2d-neighbor adjacency.

    A union-find over every nonpositive point, one at a time: the reference
    that the run labelling of verify.grid_beta0 is checked against.
    """
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


# The constraint type the pinned digests were recorded with: a repr of
# Hyperplane(normal=(…), offset=…) for each row (normal…, offset).
Hyperplane = namedtuple("Hyperplane", "normal offset")


def fraction_map(affine_map):
    """A cell's integer (cols, consts, den) output map as ((grad…,), (const,)) in Fractions."""
    cols, (const,), den = affine_map
    return (tuple(Fraction(g, den) for (g,) in cols),), (Fraction(const, den),)


def build_and_assemble(net, box):
    """(builder, complex) of one build, as signed_complex makes the complex.

    The builder's regions are what oracles.region_tables rebuilds the
    owners' constraint tables from.
    """
    with _gc_paused():
        b = _Builder(net, box)
        b.run()
        return b, _assemble(b)


def complex_digest(sc, tables) -> str:
    """sha256 of the repr of (cells, face pairs, constraints, violations).

    Every id is the cell's canonical id (oracles.canonical_ids), so the
    digest does not depend on how the program numbers the cells.  cells is
    the list of (id, dim, vertices, active constraints, affine map, label)
    tuples in id order, with the vertices from oracles.cell_vertices in
    canonical order, the active constraints from the owner's table in tables
    (oracles.region_tables of the build) by oracles.active_constraints, and
    face pairs the sorted list of (face id, coface id) pairs read from the
    cells' facets.  Vertices enter as tuples of Fractions, affine maps as
    ((grad…,), (const,)) in Fractions and constraints as Hyperplanes, the
    forms the digests were recorded in.
    The ids are mapped as the repr is fed to the hash piece by piece, so
    neither a renumbered complex nor the whole string is ever held in memory.
    """
    ids = canonical_ids(sc)
    vertices = cell_vertices(sc)
    rank = {p: ids[v] for v, p in enumerate(sc.points)}
    points = {v: dehomogenize(v) for v in sc.points}
    maps = {m: fraction_map(m) for m in dict.fromkeys(c.affine_map for c in sc.cells.values())}
    constraints = tuple(Hyperplane(row[:-1], row[-1]) for row in sc.constraints)
    h = hashlib.sha256()

    def feed_list(items):
        h.update(b"[")
        for n, item in enumerate(items):
            h.update((", " + repr(item) if n else repr(item)).encode("utf-8"))
        h.update(b"]")

    h.update(b"(")
    feed_list(
        (
            ids[cid],
            c.dim,
            tuple(map(points.__getitem__, sorted(vertices[cid], key=rank.__getitem__))),
            active_constraints(sc, c, vertices[cid], tables),
            maps[c.affine_map],
            c.sign_label,
        )
        for cid, c in sorted(sc.cells.items(), key=lambda item: ids[item[0]])
    )
    h.update(b", ")
    feed_list(sorted((ids[f], ids[c.id]) for c in sc.cells.values() for f in c.facets))
    h.update(f", {constraints!r}, {sc.violations!r})".encode("utf-8"))
    return h.hexdigest()


def reference_assemble(b) -> PolyhedralComplex:
    """The face lattice of the build's regions, with each cell's map and label.

    A face's owner is the first region, in build order, that holds it; the
    face takes its affine map and label from the owner.  The cells are
    numbered by oracles.canonical_ids.
    """
    regions, cap, d = b.regions, b.cap, b.d
    coords = b.coords
    index = {}  # frozenset(vertex ids) -> discovery index
    found = []  # discovery index -> (vertex ids, dim, owner)
    incid = set()  # (face index, coface index)
    for r in regions:
        key = frozenset(r.vertices)
        if key in index:
            continue
        index[key] = len(found)
        found.append((key, d, r))
        # a face to expand: its index and dimension, and for each hid that
        # meets it without holding it, its vertices on that hid.  A facet of
        # the face is a set among those whose points have affine rank dim − 1
        # (homogeneous rank dim), and its own sets are these sets intersected
        # with it.
        stack = [(index[key], d, r.tight)]
        while stack:
            i, dim, tight = stack.pop()
            for group in tight.values():
                if len(group) < dim or matrix_rank([coords[v] for v in group]) < dim:
                    continue
                sub = frozenset(group)
                j = index.get(sub)
                if j is None:
                    j = index[sub] = len(found)
                    if j >= cap:
                        raise ComplexSizeError(
                            f"arrangement exceeded TOPOBETTI_MAX_CELLS={cap}"
                        )
                    found.append((sub, dim - 1, r))
                    if dim > 1:
                        sub_tight = {}
                        for hid, other in tight.items():
                            meet = other & sub
                            if meet and len(meet) < len(sub):
                                sub_tight[hid] = meet
                        stack.append((j, dim - 1, sub_tight))
                incid.add((j, i))

    # provisional ids by dimension, the 0-cells first, then the oracle's
    order = sorted(range(len(found)), key=lambda i: found[i][1])
    ids = [0] * len(found)
    for cid, i in enumerate(order):
        ids[i] = cid
    facets = [[] for _ in found]  # provisional cell id -> its facets' ids
    for f, c in incid:
        facets[ids[c]].append(ids[f])
    cells = {}
    for cid, i in enumerate(order):
        key, dim, owner = found[i]
        # the output has one sign on the owner, and vanishes on a face of it
        # only if the face lies on the output's hyperplane
        out_sign, zero = owner.activations[0]
        on_out = zero is not None and key <= zero
        cells[cid] = Cell(
            id=cid,
            dim=dim,
            affine_map=owner.affine,
            sign_label=_label(0 if on_out else out_sign),
            facets=tuple(sorted(facets[cid])),
        )
    pc = PolyhedralComplex(
        cells=cells,
        ambient_dim=d,
        points=tuple(coords[v] for i in order if found[i][1] == 0 for v in found[i][0]),
        constraints=tuple(b.hids),
        violations=tuple(b.violations),
    )
    return relabel(pc, canonical_ids(pc))


def relabel(pc, ids) -> PolyhedralComplex:
    """pc with each cell id x renumbered ids[x].

    The cells come in the new id order, each with its facets renumbered in
    increasing order, and each point moves with its 0-cell, so the new
    0-cell ids must be 0 … n − 1, as oracles.canonical_ids gives them.
    """
    cells = sorted(
        (
            replace(c, id=ids[c.id], facets=tuple(sorted(map(ids.__getitem__, c.facets))))
            for c in pc.cells.values()
        ),
        key=lambda c: c.id,
    )
    zero = sorted((ids[c.id], pc.points[c.id]) for c in pc.cells_of_dim(0))
    return replace(pc, cells={c.id: c for c in cells}, points=tuple(p for _, p in zero))

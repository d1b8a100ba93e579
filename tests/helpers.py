"""Shared test helpers.

- Hand-built polyhedral complexes from unit-cube unions.  They are assembled
  directly from integer corner coordinates and share no code with the
  arrangement pipeline, so homology tests run against an independently
  constructed face lattice.
- Hypothesis strategies for small random rational networks and boxes.
- The uncollapsed homology path, the reference that betti_numbers and its
  face-poset collapse are checked against.
- The per-point union-find, the reference that grid_beta0 is checked against.
- One build that hands out both its _Builder and its signed complex.
- The digest that pins a signed complex's cells, facets and constraints.
- The face-lattice assembly as it was before the walk settled labels and
  expanded edges straight to their vertices: the reference that
  arrangement._assemble is checked against.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
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
    _order_points,
)
from oracles import active_constraints, dehomogenize, matrix_rank
from topobetti.exactgeom import BoxDomain, sparse_rank
from topobetti.homology import _boundary_rows, order_complex
from topobetti.relunet import AffineLayer, ReluNetwork
from topobetti.verify import SignGrid


def box_complex(cubes, ambient_dim: int) -> PolyhedralComplex:
    """Face lattice of a union of axis-aligned unit cubes with integer corners.

    `cubes` is an iterable of lower-corner integer tuples; each cube is
    [a, a+1]^d.  Faces pick, per axis, the lower endpoint, the upper endpoint,
    or the whole interval; shared faces are deduplicated by vertex set.  A
    cell's vertices are homogeneous points (x…, 1), as the arrangement's are,
    and every cell is labelled "negative", so the whole union is a sublevel
    set.
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
    # facets come out in increasing id order
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
            vertices=tuple((*p, 1) for p in verts),
            affine_map=zero_map,
            sign_label="negative",
            facets=facets[verts],
        )
        for dim, verts in ordered
    }
    los = [min(v[i] for vs in faces.values() for v in vs[1]) for i in range(ambient_dim)]
    his = [max(v[i] for vs in faces.values() for v in vs[1]) for i in range(ambient_dim)]
    box = BoxDomain(tuple(Fraction(l) for l in los), tuple(Fraction(h) for h in his))
    return PolyhedralComplex(
        cells=cells,
        ambient_dim=ambient_dim,
        box=box,
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


def uncollapsed_betti(pc: PolyhedralComplex) -> tuple:
    """Betti numbers of pc with no collapse of any kind.

    The boundary ranks of the order complex of every cell, in one piece.
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

    cells is the sorted list of (id, dim, vertices, active constraints,
    affine map, label) tuples, with the active constraints from the owner's
    table in tables (oracles.region_tables of the build) by
    oracles.active_constraints, and face pairs the sorted list of (face id,
    coface id) pairs read from the cells' facets.  Vertices enter as tuples
    of Fractions, affine maps as ((grad…,), (const,)) in Fractions and
    constraints as Hyperplanes, the forms the digests were recorded in.
    The repr is fed to the hash piece by piece, so the whole string is never
    held in memory.
    """
    points = dict.fromkeys(v for c in sc.cells.values() for v in c.vertices)
    points = {v: dehomogenize(v) for v in points}
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
            cid,
            c.dim,
            tuple(map(points.__getitem__, c.vertices)),
            active_constraints(sc, c, tables),
            maps[c.affine_map],
            c.sign_label,
        )
        for cid, c in sorted(sc.cells.items())
    )
    h.update(b", ")
    feed_list(sorted((f, c.id) for c in sc.cells.values() for f in c.facets))
    h.update(f", {constraints!r}, {sc.violations!r})".encode("utf-8"))
    return h.hexdigest()


def reference_assemble(b) -> PolyhedralComplex:
    """The face lattice of the build's regions, with each cell's map and label.

    A face's owner is the first region, in build order, that holds it; the
    face takes its affine map and label from the owner.
    """
    regions, box, cap = b.regions, b.box, b.cap
    coords, incidence = b.coords, b.incidence
    d = box.dimension
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

    # cells, and the vertices within each, are ordered by their rational points
    vids = list(set().union(*(r.vertices for r in regions)))
    order = _order_points([coords[v] for v in vids])
    rank = {vids[i]: x for x, i in enumerate(order)}
    points = [coords[vids[i]] for i in order]
    ranked = [sorted(map(rank.__getitem__, key)) for key, *_ in found]
    order = sorted(range(len(found)), key=lambda i: (found[i][1], ranked[i]))
    ids = [0] * len(found)
    for cid, i in enumerate(order):
        ids[i] = cid
    facets = [[] for _ in found]  # cell id -> its facets' ids
    for f, c in sorted((ids[f], ids[c]) for f, c in incid):
        facets[c].append(f)
    cells = {}
    for cid, i in enumerate(order):
        key, dim, owner = found[i]
        # the output has one sign on the owner, and vanishes on a face of it
        # only if the face lies on the output's hyperplane
        _, _, out_sign, out_hid = owner.activations[0]
        on_out = all(out_hid in incidence[v] for v in key)
        cells[cid] = Cell(
            id=cid,
            dim=dim,
            vertices=tuple(points[x] for x in ranked[i]),
            affine_map=owner.affine,
            sign_label=_label(0 if on_out else out_sign),
            facets=tuple(facets[cid]),
        )
    return PolyhedralComplex(
        cells=cells,
        ambient_dim=d,
        box=box,
        constraints=tuple(b.hids),
        violations=tuple(b.violations),
    )

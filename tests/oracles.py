"""Test oracles: exact references that the program itself never calls.

Each one checks what the package computes by a route of its own, in plain
Python over int and Fraction, so that a fault in the package does not carry
over into its check.

- cell_vertices gives each cell's vertices: the ids of the 0-cells below
  it, the union of its facets' taken by increasing dimension, sorted and
  mapped through the complex's points.
- canonical_ids numbers a complex's cells by the complex alone: the 0-cells
  first, in the lexicographic order of their rational points, and then the
  other cells by (dimension, their vertices' canonical ids, sorted), a key
  no two cells share, as faces are deduplicated by vertex set.  The program
  numbers cells in the order its build reaches them, which any change to
  the build may reorder; the pinned digests and collapse survivors are read
  through this numbering instead, which is the one the program used before.
- validate_complex checks the invariants of a complex the arrangement hands
  out against the box it was built on, and returns a list of violation
  strings, empty when all hold. A point is a homogeneous integer point
  (x_1, …, x_d, w), the point x / w with w > 0 and gcd 1 (homogenize's
  form), so it first reports any point not in that form, any 0-cell whose
  id does not index the points, and any two equal points; the points may
  come in any order. It then checks each cell's facets (known ids, one
  dimension down, contained and in increasing id order), that no
  (d−1)-cell lies in more than two d-cells, each cell's dimension and its
  facet count. A cell's dimension is checked as the rank of its
  homogeneous vertices, which with w > 0 is the affine rank plus 1, by
  sparse_rank on the integer vertices directly. Last, the full cells'
  volumes must sum to the box's: more means two cells overlap, less that
  the box is not covered.
- cell_volume sums the simplices of a pulling triangulation: each face is
  coned from its first vertex over its facets that miss that vertex. A
  simplex's rows (x…, w) of homogeneous integer coordinates have Π w times
  the determinant of its edge vectors, so each simplex costs one
  fraction-free (Bareiss) integer determinant, _det, and one division. It
  walks the faces with an explicit stack, so validate_complex, which sums
  every full cell's volume this way, leaves no reference cycles behind.
  These volumes are the one place a complex's check forms Fractions.
- region_tables rebuilds each region's (constraint-id, sign) table from a
  finished _Builder, which stores no signs: the hids are the keys of the
  region's tight sets, and each sign is that of the constraint at the
  region's vertices off its hyperplane. A constraint's sign at a vertex is
  an integer dot product of the row (normal…, offset) with the vertex: with
  w > 0 that is w·(normal·x/w + offset), of the same sign as the
  constraint's value. A region is full-dimensional and lies on one side of
  each facet's hyperplane, so it reports each region and hid where those
  vertices have any other signs than one nonzero sign, or where there are
  none. A cell's owner is the region whose affine map object the cell
  holds: the last composition gives each region a map tuple of its own.
- active_constraints gives a cell's owner's table with the sign set to 0 on
  each constraint whose row vanishes at every vertex of the cell, by the
  same integer dot products: the constraints the cell satisfies with
  equality.
- sparse_rank is the rank of a sparse integer matrix, the number of pivots
  exactgeom.sparse_pivots keeps; the program reads the pivot table itself,
  to skip cleared rows, so only the tests need the bare rank.
- matrix_rank is sparse_rank on rational rows, each cleared to integers as
  homogenize(r)[:-1], a positive multiple of r, so the rank is the same.
- dehomogenize gives the Fraction point of a homogeneous vertex, centroid the
  Fraction mean of points, and box_volume the exact volume of a box.
- build_cutting_network builds g^(w,d) on its own, the one-hidden-layer
  network that the carving network composes stage by stage.
- nerve_betti gives β_0 … β_{d−1} of the sublevel set from a finished
  _Builder alone, with neither the assembly nor the homology: as those of
  the nerve of the sublevel set's cover by closed convex cells.  The
  members are every region whose output sign is ≤ 0 and, for each positive
  region, its face on the output's hyperplane when it has one: the
  vertices of the region that lie on it.  Only maximal members are kept,
  which leaves the union the same.  Cells of a polyhedral complex meet in
  a common face, so a family of members has a common point exactly when
  its members share a vertex of the build; by the nerve theorem the nerve
  has the union's homology.  Its simplices are the subsets, of at most
  d + 1 members, of the members that hold one vertex: the d-skeleton, which
  has the nerve's β_k for every k < d.  Each β_k is #k-simplices − rank ∂_k
  − rank ∂_{k+1}, ranked by sparse_rank.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Iterable, Sequence

from topobetti.arrangement import PolyhedralComplex
from topobetti.constructions import _cutting_rows
from topobetti.exactgeom import BoxDomain, homogenize, sparse_pivots
from topobetti.relunet import AffineLayer, ReluNetwork


def centroid(points: Iterable[Sequence]) -> tuple:
    pts = list(points)
    if not pts:
        raise ValueError("centroid of empty point set")
    n = Fraction(len(pts))
    return tuple(sum(p[i] for p in pts) / n for i in range(len(pts[0])))


def dehomogenize(coords: Sequence) -> tuple:
    """The rational point x / w of homogeneous coordinates (x_1, …, x_d, w)."""
    w = coords[-1]
    return tuple(Fraction(x, w) for x in coords[:-1])


def box_volume(box: BoxDomain):
    return math.prod((up - lo for lo, up in zip(box.lower, box.upper)), start=Fraction(1))


def region_tables(b) -> tuple:
    """Each region's (constraint-id, sign) table, rebuilt from a finished build.

    Returns (tables, faults).  tables maps id(r.affine) of each region r to
    its pairs in increasing id order, one per key of r.tight, with
    r ⊆ {sign·row·(x, 1) ≥ 0}.  faults names each region and hid where the
    region's vertices off the hyperplane are not all of one nonzero sign.
    """
    rows = list(b.hids)
    tables, faults = {}, []
    for r in b.regions:
        table = []
        for hid in sorted(r.tight):
            values = (sum(map(mul, rows[hid], b.coords[v])) for v in r.vertices - r.tight[hid])
            signs = {(t > 0) - (t < 0) for t in values}
            if len(signs) != 1 or 0 in signs:
                faults.append(
                    f"region {r.rid}: its vertices off constraint {hid} have signs {sorted(signs)}"
                )
            table.append((hid, min(signs, default=0)))
        tables[id(r.affine)] = tuple(table)
    return tables, faults


def active_constraints(complex: PolyhedralComplex, cell, vertices, tables) -> tuple:
    """The cell's owner's table from region_tables, with sign 0 where the cell is tight.

    vertices are the cell's, as cell_vertices gives them.
    """
    rows = complex.constraints
    return tuple(
        (hid, 0 if all(sum(map(mul, rows[hid], p)) == 0 for p in vertices) else s)
        for hid, s in tables[id(cell.affine_map)]
    )


def sparse_rank(rows) -> int:
    """Exact rank of a sparse integer matrix (rows are dicts col -> nonzero value)."""
    return len(sparse_pivots(rows))


def matrix_rank(m: Sequence[Sequence]) -> int:
    """Exact rank over the rationals: sparse_rank of the rows cleared to integers."""
    return sparse_rank({j: v for j, v in enumerate(homogenize(r)[:-1]) if v} for r in m)


def build_cutting_network(w: int, d: int) -> ReluNetwork:
    """One-hidden-layer network of width w+2 computing g^(w,d)."""
    if w < 1:
        raise ValueError("w must be ≥ 1")
    if d < 1:
        raise ValueError("dimension must be ≥ 1")
    rows, biases, outs = _cutting_rows(w, d)
    hidden = AffineLayer(tuple(rows), tuple(biases))
    output = AffineLayer((tuple(outs),), (Fraction(0),))
    return ReluNetwork((hidden, output))


def _det(rows) -> int:
    """Determinant of a square integer matrix, by fraction-free (Bareiss) elimination."""
    rows = [list(r) for r in rows]
    n = len(rows)
    det, prev = 1, 1  # det carries the sign of the row swaps
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        p = rows[col][col]
        for r in range(col + 1, n):
            a = rows[r][col]
            rows[r] = [(p * v - a * w) // prev for v, w in zip(rows[r], rows[col])]
        prev = p
    return det * prev


def _vertex_ids(cells) -> dict:
    """Cell id -> the ids of the 0-cells below it through facets.

    The cells are taken by increasing dimension, so a facet one dimension
    down is done first; a facet that names no cell adds nothing.
    """
    below = {}
    for c in sorted(cells.values(), key=lambda c: c.dim):
        below[c.id] = set().union(*(below.get(f, ()) for f in c.facets)) if c.dim else {c.id}
    return below


def cell_vertices(complex: PolyhedralComplex) -> dict:
    """Cell id -> the points of its vertices, the 0-cells below it, in 0-cell id order."""
    points = complex.points
    return {
        cid: tuple(map(points.__getitem__, sorted(ids)))
        for cid, ids in _vertex_ids(complex.cells).items()
    }


def canonical_ids(complex: PolyhedralComplex) -> dict:
    """Cell id -> canonical id, for a complex whose 0-cells hold all its points.

    The 0-cells come first, in the lexicographic order of their rational
    points, and the other cells follow by (dim, their vertices' canonical
    ids, sorted).  Faces are deduplicated by vertex set, so no two cells
    share a key and the numbering depends on the complex alone.
    """
    points = complex.points
    below = _vertex_ids(complex.cells)
    zero = sorted((c.id for c in complex.cells_of_dim(0)), key=lambda v: dehomogenize(points[v]))
    ids = {v: x for x, v in enumerate(zero)}
    keys = {
        c.id: (c.dim, sorted(map(ids.__getitem__, below[c.id])))
        for c in complex.cells.values()
        if c.dim
    }
    ids.update((cid, x) for x, cid in enumerate(sorted(keys, key=keys.__getitem__), len(ids)))
    return ids


def cell_volume(complex: PolyhedralComplex, cell_id: int):
    """Exact volume of a full-dimensional cell via a pulling triangulation.

    Each face is coned from its first vertex over its facets that miss that
    vertex; the volume is Σ |det| / d! over the resulting simplices.
    """
    if complex.cells[cell_id].dim != complex.ambient_dim:
        raise ValueError("volume is defined for full-dimensional cells")
    below = _vertex_ids(complex.cells)
    return _cell_volume(complex.cells, below, complex.points, complex.ambient_dim, cell_id)


def _cell_volume(cells, below, points, d: int, cell_id: int):
    # each stack entry is a face and the apexes of the faces above it, so a
    # 0-cell completes one simplex; its vertices' rows (x…, w) have
    # determinant Π w times that of its edge vectors p − p₀.  A face's first
    # vertex is the 0-cell of least id below it (see _vertex_ids).
    total = Fraction(0)
    stack = [(cell_id, ())]
    while stack:
        cid, apexes = stack.pop()
        apex = min(below[cid])
        if cells[cid].dim == 0:
            rows = [points[v] for v in (*apexes, apex)]
            total += Fraction(abs(_det(rows)), math.prod(row[-1] for row in rows))
            continue
        stack.extend((f, apexes + (apex,)) for f in cells[cid].facets if apex not in below[f])
    return total / math.factorial(d)


def validate_complex(complex: PolyhedralComplex, box: BoxDomain):
    """Check a complex's invariants against its box; returns a list of violation strings."""
    out = []
    cells, points = complex.cells, complex.points
    # the checks below read a point (x…, w) as x / w, so it must be in
    # homogenize's form
    bad = sorted({p for p in points if p[-1] <= 0 or math.gcd(*p) != 1})
    out.extend(f"vertices: {p} is not a point (x…, w) with w > 0 and gcd 1" for p in bad)
    # a 0-cell's point is points[its id]
    stray = [c.id for c in complex.cells_of_dim(0) if not 0 <= c.id < len(points)]
    out.extend(f"points: 0-cell {cid} has no point" for cid in stray)
    # in homogenize's form, equal points are equal tuples
    first = {}
    for x, p in enumerate(points):
        y = first.setdefault(p, x)
        if y != x:
            out.append(f"points: {y} and {x} are the same point")
    below = _vertex_ids(cells)
    for c, cell in cells.items():
        fs = cell.facets
        if any(a >= b for a, b in zip(fs, fs[1:])):
            out.append(f"faces: facets of cell {c} are not in increasing id order")
        for f in fs:
            if f not in cells:
                out.append(f"incidence: unknown cell in pair ({f},{c})")
                continue
            if cell.dim - cells[f].dim != 1:
                out.append(f"incidence: dim mismatch in pair ({f},{c})")
            if not below[f] < below[c]:
                out.append(f"incidence: vertices of {f} not contained in {c}")
    # a (d−1)-cell of a subdivision of the box lies in at most two d-cells,
    # which linear_region_count relies on
    above = Counter(f for c in complex.full_cells() for f in c.facets)
    out.extend(
        f"cofaces: cell {f} lies in {n} full cells" for f, n in sorted(above.items()) if n > 2
    )
    if stray:
        return out
    # a vertex is (x…, w) with w > 0: its points' homogeneous rank is their
    # affine rank + 1
    for cid, c in cells.items():
        rows = ({j: v for j, v in enumerate(points[x]) if v} for x in below[cid])
        if sparse_rank(rows) != c.dim + 1:
            out.append(f"dimension: cell {cid} has affine rank != dim")
        if c.dim >= 1 and len(c.facets) < c.dim + 1:
            out.append(f"face-closure: cell {cid} is missing facets")
    full = complex.full_cells()
    if full and not bad:
        try:
            vol = sum(_cell_volume(cells, below, points, complex.ambient_dim, c.id) for c in full)
        except (KeyError, ValueError):
            vol = None
        if vol is not None:
            box_vol = box_volume(box)
            if vol > box_vol:
                out.append("interior-overlap: full cells exceed box volume")
            elif vol < box_vol:
                out.append("coverage-gap: full cells do not cover the box")
    return out


def nerve_betti(b) -> tuple:
    """β_0 … β_{d−1} of a finished build's sublevel set, by the nerve of its cover.

    b is a _Builder after run: each region's one activation is the output's
    (sign, the region's vertices on its hyperplane, or None if there are none).
    """
    members = set()
    for r in b.regions:
        s, zero = r.activations[0]
        if s <= 0:
            members.add(frozenset(r.vertices))
        elif zero:
            members.add(frozenset(zero))
    holding = {}  # vertex -> the members that hold it
    for m in members:
        for v in m:
            holding.setdefault(v, []).append(m)
    # a member inside another holds its own least vertex in the other too
    maximal = [m for m in members if not any(m < o for o in holding[min(m)])]
    star = {}  # vertex -> the maximal members that hold it, by index
    for i, m in enumerate(maximal):
        for v in m:
            star.setdefault(v, []).append(i)
    d = b.d
    simplices = [set() for _ in range(d + 1)]  # k -> the k-simplices, as sorted index tuples
    for held in star.values():
        held.sort()
        for k in range(min(d + 1, len(held))):
            simplices[k].update(combinations(held, k + 1))
    simplices = [sorted(s) for s in simplices]
    ranks = [0] * (d + 2)
    for k in range(1, d + 1):
        index = {s: i for i, s in enumerate(simplices[k - 1])}
        ranks[k] = sparse_rank(
            {index[s[:i] + s[i + 1:]]: (-1) ** i for i in range(k + 1)} for s in simplices[k]
        )
    return tuple(len(simplices[k]) - ranks[k] - ranks[k + 1] for k in range(d))

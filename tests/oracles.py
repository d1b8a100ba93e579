"""Test oracles: exact references that the program itself never calls.

Each one checks what the package computes by a route of its own, in plain
Python over int and Fraction, so that a fault in the package does not carry
over into its check.

- validate_complex checks the invariants of a complex the arrangement hands
  out and returns a list of violation strings, empty when all hold. A
  vertex is a homogeneous integer point (x_1, …, x_d, w), the point x / w
  with w > 0 and gcd 1 (homogenize's form), so it first reports any vertex
  not in that form. It then checks each cell's facets (known ids, one
  dimension down, contained and in increasing id order), that each cell
  lists exactly the 0-cells below it, each cell's dimension and its facet
  count. A cell's dimension is checked as the rank of its homogeneous
  vertices, which with w > 0 is the affine rank plus 1, by sparse_rank on
  the integer vertices directly. Last, the full cells' volumes must sum to
  the box's: more means two cells overlap, less that the box is not
  covered.
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
- matrix_rank is sparse_rank on rational rows, each cleared to integers as
  homogenize(r)[:-1], a positive multiple of r, so the rank is the same.
- dehomogenize gives the Fraction point of a homogeneous vertex, centroid the
  Fraction mean of points, and box_volume the exact volume of a box.
- build_cutting_network builds g^(w,d) on its own, the one-hidden-layer
  network that the carving network composes stage by stage.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from topobetti.arrangement import PolyhedralComplex
from topobetti.constructions import _cutting_rows
from topobetti.exactgeom import BoxDomain, homogenize, sparse_rank
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


def active_constraints(complex: PolyhedralComplex, cell, tables) -> tuple:
    """The cell's owner's table from region_tables, with sign 0 where the cell is tight."""
    rows = complex.constraints
    return tuple(
        (hid, 0 if all(sum(map(mul, rows[hid], p)) == 0 for p in cell.vertices) else s)
        for hid, s in tables[id(cell.affine_map)]
    )


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


def cell_volume(complex: PolyhedralComplex, cell_id: int):
    """Exact volume of a full-dimensional cell via a pulling triangulation.

    Each face is coned from its first vertex over its facets that miss that
    vertex; the volume is Σ |det| / d! over the resulting simplices.
    """
    if complex.cells[cell_id].dim != complex.ambient_dim:
        raise ValueError("volume is defined for full-dimensional cells")
    return _cell_volume(complex.cells, complex.ambient_dim, cell_id)


def _cell_volume(cells, d: int, cell_id: int):
    # each stack entry is a face and the apexes of the faces above it, so a
    # 0-cell completes one simplex; its vertices' rows (x…, w) have
    # determinant Π w times that of its edge vectors p − p₀
    total = Fraction(0)
    stack = [(cell_id, ())]
    while stack:
        cid, apexes = stack.pop()
        apex = cells[cid].vertices[0]
        if cells[cid].dim == 0:
            rows = apexes + (apex,)
            total += Fraction(abs(_det(rows)), math.prod(row[-1] for row in rows))
            continue
        stack.extend(
            (f, apexes + (apex,)) for f in cells[cid].facets if apex not in cells[f].vertices
        )
    return total / math.factorial(d)


def validate_complex(complex: PolyhedralComplex):
    """Check complex invariants; returns a list of violation strings."""
    out = []
    cells = complex.cells
    vsets = {cid: set(c.vertices) for cid, c in cells.items()}
    # the checks below read a vertex (x…, w) as the point x / w, so it must be
    # in homogenize's form
    bad = sorted(p for p in set().union(*vsets.values()) if p[-1] <= 0 or math.gcd(*p) != 1)
    out.extend(f"vertices: {p} is not a point (x…, w) with w > 0 and gcd 1" for p in bad)
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
            if not vsets[f] < vsets[c]:
                out.append(f"incidence: vertices of {f} not contained in {c}")
    below = {}  # cell id -> the points of the 0-cells below it
    for c in sorted(cells.values(), key=lambda c: c.dim):
        fs = c.facets
        below[c.id] = set().union(*(below.get(f, ()) for f in fs)) if c.dim else vsets[c.id]
        if below[c.id] != vsets[c.id]:
            out.append(f"vertices: cell {c.id} does not list exactly the 0-cells below it")
    # a vertex is (x…, w) with w > 0: its points' homogeneous rank is their
    # affine rank + 1
    for cid, c in cells.items():
        if sparse_rank({j: v for j, v in enumerate(p) if v} for p in c.vertices) != c.dim + 1:
            out.append(f"dimension: cell {cid} has affine rank != dim")
        if c.dim >= 1 and len(c.facets) < c.dim + 1:
            out.append(f"face-closure: cell {cid} is missing facets")
    full = complex.full_cells()
    if full and not bad:
        try:
            vol = sum(_cell_volume(cells, complex.ambient_dim, c.id) for c in full)
        except (KeyError, ValueError):
            vol = None
        if vol is not None:
            box_vol = box_volume(complex.box)
            if vol > box_vol:
                out.append("interior-overlap: full cells exceed box volume")
            elif vol < box_vol:
                out.append("coverage-gap: full cells do not cover the box")
    return out

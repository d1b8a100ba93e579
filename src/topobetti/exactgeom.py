"""Exact rational geometry primitives.

All core arithmetic is over the rationals: scalars are Python ints or
fractions.Fraction, vectors are tuples of scalars, matrices are tuples of row
tuples.  Points can also be held in homogeneous integer coordinates
(homogenize), the form in which the arrangement builds its vertices and hands
them out in its cells.

Floating point never appears here.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

_RATIONAL_RE = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?")


def parse_rational(s: str) -> Fraction:
    """Parse the canonical serialization "p/q" (q>1, gcd=1) or "p".

    Rejects anything non-canonical with a ValueError: "2/4", "1/1", "+3",
    "-0", "1/-2", "1.5", a trailing newline, and any value that is not a str.
    """
    if not isinstance(s, str):
        raise ValueError(f"rational must be a string, got {s!r}")
    m = _RATIONAL_RE.fullmatch(s)
    if m is None:
        raise ValueError(f"non-canonical rational string: {s!r}")
    p = int(m.group(1))
    if m.group(1) == "-0":
        raise ValueError(f"non-canonical rational string: {s!r}")
    if m.group(2) is None:
        return Fraction(p)
    q = int(m.group(2))
    if q == 1 or math.gcd(abs(p), q) != 1:
        raise ValueError(f"non-canonical rational string: {s!r}")
    return Fraction(p, q)


def format_rational(x) -> str:
    """Serialize a rational as "p/q" with q>0 in lowest terms, or "p" if integral."""
    return str(Fraction(x))


def vdot(a: Sequence, b: Sequence):
    if len(a) != len(b):
        raise ValueError("dimension mismatch in dot product")
    return sum(x * y for x, y in zip(a, b))


def sign(x) -> int:
    return (x > 0) - (x < 0)


def homogenize(point: Sequence) -> tuple:
    """Homogeneous integer coordinates (x_1, …, x_d, w) of a rational point.

    The point is x / w with w > 0 and gcd(x_1, …, x_d, w) = 1, so every
    rational point has exactly one such tuple.
    """
    row = [*point, 1]
    # each x = p/q becomes p·(lcm/q), an integer product with no Fraction
    # formed; an int (denominator 1) passes through the same expression
    den = math.lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


@dataclass(frozen=True)
class BoxDomain:
    """An axis-aligned box, the compact domain all analysis is restricted to."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("box bounds have mismatched dimensions")
        if not self.lower:
            raise ValueError("box needs at least one dimension")
        for v in (*self.lower, *self.upper):
            if not isinstance(v, (int, Fraction)):
                raise ValueError(f"box bounds must be int or Fraction, got {v!r}")
        if not all(lo < up for lo, up in zip(self.lower, self.upper)):
            raise ValueError("box requires lower[i] < upper[i] for all i")

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @staticmethod
    def unit_cube(d: int) -> "BoxDomain":
        return BoxDomain((Fraction(0),) * d, (Fraction(1),) * d)

    def corners(self):
        for choice in itertools.product(*zip(self.lower, self.upper)):
            yield tuple(choice)


def sparse_pivots(rows) -> dict:
    """Column-pivot reduction of a sparse integer matrix (rows are dicts col -> nonzero value).

    A row is reduced at its largest column against the kept row that owns
    that column until the column is free, then kept there; a row reduced to
    zero is dropped.  Each step (row·p − v·pivot_row)/gcd(p, v) is
    fraction-free and divided by its content, so boundary matrices stay at
    small integers.  Returns {column: kept row}, each key its row's largest
    column; the rank is its size.
    """
    pivots = {}
    for row in rows:
        while row:
            col = max(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                break
            p, v = piv[col], row[col]
            g = math.gcd(p, v)
            p, v = p // g, v // g
            merged = {c: x * p for c, x in row.items()}
            for c, x in piv.items():
                y = merged.get(c, 0) - v * x
                if y:
                    merged[c] = y
                else:
                    del merged[c]
            g = math.gcd(*merged.values())
            row = {c: x // g for c, x in merged.items()} if g > 1 else merged
    return pivots

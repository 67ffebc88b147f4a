"""Integer Smith normal form and presentation abelianization.

Everything is exact arbitrary-precision integer arithmetic on relator
exponent matrices of the presentations built in this package, so no
external linear algebra is used.

``smith_normal_form`` works in two phases (Havas & Majewski, Integer
matrix diagonalization, J. Symbolic Comput. 24, 1997):

1. Unit pivots, sparsely.  The rows are held as ``{column: value}`` maps.
   While some entry is +-1, one in a shortest row is taken as pivot: row
   operations clear its column from the other rows, then the pivot row
   and column are dropped (column operations would clear the rest of the
   row without touching any other row).  Each such pivot is one
   invariant factor 1.  Raw pi_1 matrices are mostly +-1 entries, so
   this phase removes most of them at the cost of the fill-in alone.
2. The remaining core, with no unit entry left, is diagonalised densely.
   Each pivot is the least nonzero magnitude left; unimodular 2 x 2 row
   and column transforms from the extended gcd move the gcd of the pivot
   and each entry of its column and row onto the pivot and zero the
   entry.  The diagonal is then put in divisibility order by gcd/lcm
   pairs.

The factors are [1] * units + factors(core), already in divisibility
order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .words import Presentation, exponent_sums


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Invariant factors d1 | d2 | ... of an integer matrix.

    Returns the positive diagonal entries of the Smith normal form in
    divisibility order (trailing zero diagonal entries are dropped).
    """
    rows: dict[int, dict[int, int]] = {}
    rows_of_col: dict[int, set[int]] = {}
    for i, values in enumerate(matrix):
        row = {j: int(v) for j, v in enumerate(values) if v}
        if row:
            rows[i] = row
            for j in row:
                rows_of_col.setdefault(j, set()).add(i)
    # Rows holding a unit, shortest first; an entry goes stale when its
    # row changes or goes, and a changed row that still holds a unit is
    # pushed again.
    heap = [(len(row), i) for i, row in rows.items() if _has_unit(row)]
    heapq.heapify(heap)
    units = 0
    while heap:
        length, r = heapq.heappop(heap)
        pivot_row = rows.get(r)
        if pivot_row is None or len(pivot_row) != length or not _has_unit(pivot_row):
            continue
        c = next(j for j, v in pivot_row.items() if v in (1, -1))
        u = pivot_row[c]
        del rows[r]
        for j in pivot_row:
            rows_of_col[j].discard(r)
        for i in rows_of_col.pop(c):
            row = rows[i]
            f = row[c] * u
            for j, v in pivot_row.items():
                w = row.get(j, 0) - f * v
                if w:
                    if j not in row:
                        rows_of_col[j].add(i)
                    row[j] = w
                elif j in row:
                    del row[j]
                    if j != c:
                        rows_of_col[j].discard(i)
            if not row:
                del rows[i]
            elif _has_unit(row):
                heapq.heappush(heap, (len(row), i))
        units += 1
    cols = sorted({j for row in rows.values() for j in row})
    core = [[row.get(j, 0) for j in cols] for row in rows.values()]
    return [1] * units + _dense_invariant_factors(core)


def _has_unit(row: dict[int, int]) -> bool:
    return any(v in (1, -1) for v in row.values())


def _dense_invariant_factors(a: list[list[int]]) -> list[int]:
    """Invariant factors of a dense matrix (phase 2 of smith_normal_form),
    diagonalised in place.  A column transform can refill the pivot
    column, but only while the pivot shrinks to a proper divisor, so the
    passes over one pivot end."""
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    diagonal = []
    t = 0
    while t < min(nrows, ncols):
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        p = a[t]
        while True:
            for r in a[t + 1 :]:
                if r[t]:
                    x, y, u, v = _gcd_transform(p[t], r[t])
                    for j in range(t, ncols):
                        pj, rj = p[j], r[j]
                        if pj or rj:
                            p[j], r[j] = x * pj + y * rj, u * rj - v * pj
            for j in range(t + 1, ncols):
                if p[j]:
                    x, y, u, v = _gcd_transform(p[t], p[j])
                    for r in a[t:]:
                        rt, rj = r[t], r[j]
                        if rt or rj:
                            r[t], r[j] = x * rt + y * rj, u * rj - v * rt
            if not any(r[t] for r in a[t + 1 :]):
                break
        diagonal.append(abs(p[t]))
        t += 1
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            g = gcd(diagonal[i], diagonal[j])
            diagonal[i], diagonal[j] = g, diagonal[i] // g * diagonal[j]
    return diagonal


def _gcd_transform(a: int, b: int) -> tuple[int, int, int, int]:
    """(x, y, u, v) with x*a + y*b = g = gcd(a, b) up to sign, u = a/g and
    v = b/g: the matrix [[x, y], [-v, u]] has determinant 1 and sends
    (a, b) to (g, 0).  When a divides b it is the plain subtraction."""
    if b % a == 0:
        return 1, 0, 1, b // a
    x0, y0, x1, y1 = 1, 0, 0, 1
    g, h = a, b
    while h:
        q, rem = divmod(g, h)
        g, h = h, rem
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0, a // g, b // g


@dataclass(frozen=True)
class Abelianization:
    """Z^free_rank times the product of Z/d for d in torsion (each d > 1,
    in divisibility order)."""

    free_rank: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "1"


def abelianization(pres: Presentation) -> Abelianization:
    """Abelianization of a presented group, via the Smith normal form of
    the relator exponent matrix."""
    ngens = len(pres.generators)
    matrix = [exponent_sums(r, ngens) for r in pres.relators]
    factors = smith_normal_form(matrix) if matrix else []
    return Abelianization(
        free_rank=ngens - len(factors),
        torsion=tuple(d for d in factors if d > 1),
    )

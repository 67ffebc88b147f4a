"""Integer Smith normal form and presentation abelianization.

Everything is exact arbitrary-precision integer arithmetic on relator
exponent matrices of the presentations built in this package, so no
external linear algebra is used.

``smith_normal_form`` is one sparse elimination loop (Havas & Majewski,
Integer matrix diagonalization, J. Symbolic Comput. 24, 1997):

* Rows come in sparse, as ``{column: value}`` maps (dense sequences are
  accepted too): ``abelianization`` sums each relator's syllables into
  its row, so neither it nor the entry loop walks a zero entry.
* Rows equal up to sign are dropped on entry: a raw pi_1 matrix holds
  each boundary relation twice, once per half-edge.
* The matrix is held both as sparse rows and as sparse columns,
  ``{index: value}`` maps kept in step, so one helper subtracts a
  multiple of a row from another row and, with the maps swapped, of a
  column from another column.
* Each round takes a pivot p of least magnitude, in a shortest row, in
  a shortest column among those; a heap of rows, whose entries go stale
  when a row changes, finds it.  Row operations replace every other
  entry a of its column by the least remainder a - q*p, with q the
  integer nearest a/p; once the column is clear, column operations do
  the same along its row.  If both are then clear, |p| is a diagonal
  entry and its row and column go.  Otherwise some remainder is nonzero
  and at most |p|/2, so the next round takes a smaller pivot and the
  rounds end.  Least remainders also keep the entries small, where
  extended-gcd transforms multiply rows by Bezout coefficients and let
  them grow.

Units have the least magnitude, so they are taken first, and a unit
divides every entry, so it costs one round and the fill-in of its row
operations; raw pi_1 matrices are mostly +-1 entries.  The non-unit
pivots are put in divisibility order by gcd/lcm pairs at the end.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd
from typing import Mapping, Sequence

from .words import Presentation


def smith_normal_form(matrix: Sequence[Sequence[int] | Mapping[int, int]]) -> list[int]:
    """Invariant factors d1 | d2 | ... of an integer matrix, given as a
    list of rows, each a dense sequence or a sparse {column: value} map.

    Returns the positive diagonal entries of the Smith normal form in
    divisibility order (trailing zero diagonal entries are dropped).
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, dict[int, int]] = {}
    seen = set()
    heap: list[tuple[int, int, int]] = []
    for values in matrix:
        pairs = sorted(values.items()) if isinstance(values, Mapping) else enumerate(values)
        row = {j: int(v) for j, v in pairs if v}
        if not row:
            continue
        key = tuple(row.items())
        if key[0][1] < 0:
            key = tuple((j, -v) for j, v in key)
        if key not in seen:
            seen.add(key)
            i = len(rows)
            rows[i] = row
            heap.append(_entry(row, i))
            for j, v in row.items():
                cols.setdefault(j, {})[i] = v
    heapq.heapify(heap)
    units, diagonal = 0, []
    while heap:
        entry = heapq.heappop(heap)
        r = entry[2]
        row = rows.get(r)
        if row is None or _entry(row, r) != entry:
            continue
        c = min(row, key=lambda j: (abs(row[j]), len(cols[j])))
        p = row[c]
        touched = {r}
        for i in [i for i in cols[c] if i != r]:
            _subtract(rows, cols, r, i, _nearest(rows[i][c], p))
            touched.add(i)
        if len(cols[c]) == 1:
            for j in [j for j in row if j != c]:
                _subtract(cols, rows, c, j, _nearest(row[j], p))
            if len(row) == 1:
                if abs(p) == 1:
                    units += 1
                else:
                    diagonal.append(abs(p))
                del rows[r], cols[c]
                touched.discard(r)
        for i in touched:
            if rows[i]:
                heapq.heappush(heap, _entry(rows[i], i))
            else:
                del rows[i]
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            g = gcd(diagonal[i], diagonal[j])
            diagonal[i], diagonal[j] = g, diagonal[i] // g * diagonal[j]
    return [1] * units + diagonal


def _entry(row: dict[int, int], i: int) -> tuple[int, int, int]:
    """Heap entry of row i: least magnitude first, then row length."""
    return min(map(abs, row.values())), len(row), i


def _subtract(
    lines: dict[int, dict[int, int]], cross: dict[int, dict[int, int]], a: int, b: int, q: int
) -> None:
    """Line b -= q * line a, for two rows, or for two columns with the two
    maps swapped; the cross map is kept in step."""
    la, lb = lines[a], lines[b]
    for k, w in la.items():
        w = lb.get(k, 0) - q * w
        if w:
            lb[k] = cross[k][b] = w
        else:
            del lb[k], cross[k][b]


def _nearest(a: int, p: int) -> int:
    """The integer q nearest to a / p, so that |a - q*p| <= |p| / 2."""
    q, rem = divmod(a, p)
    return q + 1 if 2 * abs(rem) > abs(p) else q


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
    the relator exponent matrix.  Each row is built sparse, as the
    exponent sums of one relator's syllables, so the matrix costs the
    total relator length rather than relators times generators."""
    ngens = len(pres.generators)
    matrix = []
    for relator in pres.relators:
        row: dict[int, int] = {}
        for gen, exp in relator.letters:
            row[gen] = row.get(gen, 0) + exp
        matrix.append({j: v for j, v in row.items() if v})
    factors = smith_normal_form(matrix) if matrix else []
    return Abelianization(
        free_rank=ngens - len(factors),
        torsion=tuple(d for d in factors if d > 1),
    )

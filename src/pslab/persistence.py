"""Persistence over F2: column reduction, rank queries, and independent oracles.

Chains are bitmask integers (bit i = cell i in the complex's stored order), so
all linear algebra is XOR on Python ints.  `Echelon` is the one pivot-table
kernel: `reduce` and the stabilization radii feed it.  The standard reduction
and the clearing variant must produce identical diagrams;
`persistent_betti_direct` recomputes ranks by its own dense elimination and
serves as the independent oracle.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .filtration import FilteredComplex, close_pairs, mu
from .point_process import DomainError, PointCloud, csv_text

ORACLE_CELL_CAP = 5000


class CapError(ValueError):
    """Query outside the r_max/q_max caps of the underlying complex."""


class SizeError(ValueError):
    """Instance too large for the dense oracle."""


@dataclass(frozen=True)
class RankQuery:
    q: int
    r: float
    s: float

    def __post_init__(self):
        if self.r > self.s:
            raise DomainError("rank query needs r <= s")
        if self.r < 0:
            raise DomainError("rank query needs r >= 0")


@dataclass
class PersistenceDiagram:
    """(q, birth, death) triples; death = inf for classes alive at r_max."""

    qs: np.ndarray
    births: np.ndarray
    deaths: np.ndarray
    kind: str
    q_max: int
    r_max: float

    def persistent_betti(self, query: RankQuery) -> int:
        return persistent_betti(self, query)

    def to_csv(self) -> str:
        return csv_text(["q", "birth", "death"], zip(self.qs, self.births, self.deaths))


def diagram_from_csv(text: str, kind: str = "", q_max: int = 0, r_max: float = math.inf) -> PersistenceDiagram:
    rows = list(csv.reader(io.StringIO(text)))
    body = rows[1:]
    qs = np.array([int(r[0]) for r in body], dtype=int)
    births = np.array([float(r[1]) for r in body])
    deaths = np.array([math.inf if r[2] == "inf" else float(r[2]) for r in body])
    return PersistenceDiagram(qs, births, deaths, kind, q_max, r_max)


class Echelon:
    """Incremental F2 echelon basis: each stored column is keyed by its low,
    the index of its highest set bit."""

    def __init__(self):
        self.pivots: dict[int, int] = {}

    def insert(self, v: int) -> int:
        """Reduce v against the basis and store what remains.  Returns the low
        of the new pivot, or -1 when v is already in the span."""
        pivots = self.pivots
        while v:
            low = v.bit_length() - 1
            p = pivots.get(low)
            if p is None:
                pivots[low] = v
                return low
            v ^= p
        return -1

    def copy(self) -> "Echelon":
        other = Echelon()
        other.pivots = dict(self.pivots)
        return other


class UnionFind:
    """Disjoint sets over 0..n-1 with path halving."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> tuple[int, int] | None:
        """Link the root of a's set under the root of b's.  Returns (old root
        of a, root of b), or None when a and b were already in one set."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        self.parent[ra] = rb
        return ra, rb


def boundary_masks(C: FilteredComplex) -> list[int]:
    """Column i = XOR of 1<<j over the facets j of cell i."""
    idx = C.cell_index()
    masks: list[int] = []
    for v in C.verts:
        if len(v) == 1:
            masks.append(0)
            continue
        m = 0
        for k in range(len(v)):
            m |= 1 << idx[v[:k] + v[k + 1:]]
        masks.append(m)
    return masks


def reduce(C: FilteredComplex, clearing: bool = False) -> PersistenceDiagram:
    """Standard left-to-right column reduction of the boundary matrix over F2."""
    masks = boundary_masks(C)
    n = C.n_cells
    insert = Echelon().insert
    death_of: dict[int, int] = {}  # birth cell (a low) -> death cell

    if clearing:
        # top dimension first: a cell that is already some column's low is
        # positive, so its own column would reduce to zero and is skipped
        dims = C.dims.tolist()
        order = [j for q in range(int(C.dims.max(initial=0)), 0, -1) for j in range(n) if dims[j] == q]
    else:
        # every low precedes its column, so no column is skipped
        order = range(n)
    for j in order:
        if j in death_of:
            continue
        low = insert(masks[j])
        if low >= 0:
            death_of[low] = j

    qs, births, deaths = [], [], []
    killed = set(death_of.values())
    for i in range(n):
        if i in killed:
            continue  # negative cell: kills a class, creates none
        q = int(C.dims[i])
        if q == C.q_max and C.q_max > 0:
            # deaths in the top dimension are unobservable at this cap
            continue
        j = death_of.get(i)
        qs.append(q)
        births.append(float(C.times[i]))
        deaths.append(math.inf if j is None else float(C.times[j]))
    return PersistenceDiagram(
        np.asarray(qs, dtype=int),
        np.asarray(births),
        np.asarray(deaths),
        C.kind,
        C.q_max,
        C.r_max,
    )


def persistent_betti(D: PersistenceDiagram, query: RankQuery) -> int:
    """Points of the diagram in the rectangle [0, r] x (s, inf]."""
    if query.s > D.r_max:
        raise CapError(f"query s={query.s} beyond the cap r_max={D.r_max}")
    return int(np.count_nonzero((D.qs == query.q) & (D.births <= query.r) & (D.deaths > query.s)))


# ---------------------------------------------------------------------------
# Dense F2 oracle
# ---------------------------------------------------------------------------
# `_rank` and `_nullspace_combos` repeat the pivot loop of `Echelon` on
# purpose: the judge must not share the code it judges.


def _rank(vectors: list[int]) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for v in vectors:
        while v:
            low = v.bit_length() - 1
            p = pivots.get(low)
            if p is None:
                pivots[low] = v
                rank += 1
                break
            v ^= p
    return rank


def _nullspace_combos(cols: list[int]) -> list[int]:
    """Kernel basis of the matrix with the given columns, as combination masks."""
    pivots: dict[int, tuple[int, int]] = {}
    basis: list[int] = []
    for idx, col in enumerate(cols):
        combo = 1 << idx
        while col:
            low = col.bit_length() - 1
            hit = pivots.get(low)
            if hit is None:
                break
            col ^= hit[0]
            combo ^= hit[1]
        if col == 0:
            basis.append(combo)
        else:
            pivots[col.bit_length() - 1] = (col, combo)
    return basis


def persistent_betti_direct(C: FilteredComplex, query: RankQuery) -> int:
    """Rank definition computed by dense elimination, independent of `reduce`.

    Returns dim Z_q(K_r) - dim(Z_q(K_r) ^ B_q(K_s)), evaluated as
    dim(Z_q(K_r) + B_q(K_s)) - dim B_q(K_s).
    """
    if C.n_cells > ORACLE_CELL_CAP:
        raise SizeError(f"oracle restricted to <= {ORACLE_CELL_CAP} cells")
    if query.s > C.r_max:
        raise CapError(f"query s={query.s} beyond the cap r_max={C.r_max}")
    q, r, s = query.q, query.r, query.s
    masks = boundary_masks(C)

    q_cells_r = [i for i in range(C.n_cells) if C.dims[i] == q and C.times[i] <= r]
    z_combos = _nullspace_combos([masks[i] for i in q_cells_r])
    # kernel combos are over local column positions; lift to global cell bits
    z_vectors = []
    for combo in z_combos:
        vec = 0
        pos = 0
        while combo:
            if combo & 1:
                vec |= 1 << q_cells_r[pos]
            combo >>= 1
            pos += 1
        z_vectors.append(vec)

    b_gens = [masks[i] for i in range(C.n_cells) if C.dims[i] == q + 1 and C.times[i] <= s]
    dim_b = _rank(b_gens)
    dim_zb = _rank(z_vectors + b_gens)
    return dim_zb - dim_b


def connected_component_count(P: PointCloud, threshold: float, kind: str = "rips") -> int:
    """Components of the geometric graph: edges at distance <= mu(kind, threshold)."""
    n = P.n
    if n == 0:
        return 0
    sets = UnionFind(n)
    count = n
    if threshold > 0 and n >= 2:
        pairs, _ = close_pairs(P.points, mu(kind, threshold))
        for i, j in pairs.tolist():
            if sets.union(i, j) is not None:
                count -= 1
    return count

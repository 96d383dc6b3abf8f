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
from ladget.graphcore import MAX_VERTICES, Graph, RoleLabeling, stacked_config_keys

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


def recursive_canonical(adj, classes, hold: bool):
    """The canonical search one graph at a time, by depth-first recursion:
    (canonical_key, labelings) of the graph with these adjacency rows and
    refined classes, as graphcore._canonical gives them for a stack.

    Positions 0..n-1 are owned by class ids in ascending order, and a vertex
    may only take a position of its own class.  The column code of position
    t is sum(bit(perm[i], perm[t]) << i for i < t), and the canonical form is
    the lexicographically least column vector.  The search tries each
    position's class members in ascending order and prunes only prefixes
    whose column exceeds the best one, so it reaches every labeling of the
    least vector.  With hold it returns them all in the order reached,
    dropping those held whenever the best vector improves.
    """
    n = len(adj)
    layout = sorted(classes)
    members = {c: [v for v in range(n) if classes[v] == c] for c in set(classes)}
    top = 1 << n  # above every column code
    best = [top] * n
    held: list[tuple[int, ...]] = []
    perm: list[int] = []

    def extend(t: int, used: int) -> None:
        for v in members[layout[t]]:
            if used >> v & 1:
                continue
            row = adj[v]
            col = 0
            for i, u in enumerate(perm):
                if row >> u & 1:
                    col |= 1 << i
            if col > best[t]:
                continue
            if col < best[t]:
                best[t:] = [col] + [top] * (n - t - 1)
                held.clear()
            perm.append(v)
            if t + 1 < n:
                extend(t + 1, used | 1 << v)
            elif hold:
                held.append(tuple(perm))
            perm.pop()

    extend(0, 0)
    code = 0
    for t in range(1, n):
        code = (code << t) | best[t]
    return (n, tuple(layout), code), held


def config_keys(g: Graph, rows, inputs_ordered: bool = False) -> list:
    """(canonical_key(g), role code) per configuration row (anchor, output,
    input...) of g, from stacked_config_keys on a one-graph stack."""
    rows = np.asarray(rows, np.int64)
    if not len(rows):
        return []
    (key,), codes = stacked_config_keys(
        np.array([g.adj], np.int64), np.zeros(len(rows), np.int64), rows,
        inputs_ordered,
    )
    return [(key, code) for code in codes.tolist()]


def config_key(g: Graph, roles: RoleLabeling, inputs_ordered: bool = False) -> tuple:
    """config_keys for one configuration, given as roles."""
    row = (roles.anchor, roles.output, *roles.inputs)
    return config_keys(g, [row], inputs_ordered)[0]


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

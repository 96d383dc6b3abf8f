"""Graphs as immutable bitmask adjacency rows, plus codec and isomorphism tools.

Vertices are 0-based ints.  A graph stores one int per vertex whose bit u
is set when the vertex is adjacent to u; the cap of 32 vertices keeps every
row inside a machine word for the census kernel.  The module also carries the
graph6 codec (bare records only, no header), exhaustive generation of small
connected graphs, and role-respecting isomorphism via canonical labelings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ArityMismatch,
    GraphTooSmall,
    InvalidGraph6,
    InvalidRoles,
    SizeUnsupported,
)

MAX_VERTICES = 32


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph over vertices 0..n-1, at most 32 vertices."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match n")
        universe = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~universe:
                raise ValueError(f"row {v} references vertices >= n")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v in range(self.n):
            for u in range(v):
                if ((self.adj[v] >> u) & 1) != ((self.adj[u] >> v) & 1):
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            for u in range(v + 1, self.n):
                if (self.adj[v] >> u) & 1:
                    out.append((v, u))
        return out

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def neighbors(self, v: int) -> list[int]:
        return [u for u in range(self.n) if (self.adj[v] >> u) & 1]

    def adj_array(self) -> np.ndarray:
        return np.array(self.adj, dtype=np.int64)

    def deg_array(self) -> np.ndarray:
        return np.array(self.degrees(), dtype=np.int64)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def is_connected(self) -> bool:
        seen = 1
        while True:
            grown = seen
            for v in range(self.n):
                if (seen >> v) & 1:
                    grown |= self.adj[v]
            if grown == seen:
                break
            seen = grown
        return seen == (1 << self.n) - 1

    def permuted(self, perm) -> "Graph":
        """Relabel: vertex v becomes perm[v]."""
        rows = [0] * self.n
        for v in range(self.n):
            for u in range(self.n):
                if (self.adj[v] >> u) & 1:
                    rows[perm[v]] |= 1 << perm[u]
        return Graph(self.n, tuple(rows))


def decode_graph6(record: str) -> Graph:
    """Decode one bare graph6 record (no '>>graph6<<' header, n <= 32)."""
    s = record.strip()
    if s.startswith(">>"):
        raise InvalidGraph6(
            "file header detected; strip the '>>graph6<<' prefix and pass "
            "bare one-graph-per-line records"
        )
    if not s:
        raise InvalidGraph6("empty record")
    vals = [ord(ch) - 63 for ch in s]
    if any(v < 0 or v > 63 for v in vals):
        raise InvalidGraph6("character outside the graph6 range chr(63)..chr(126)")
    n = vals[0]
    if n == 63:
        raise SizeUnsupported(
            "multi-byte vertex count means n >= 63, beyond the 32-vertex cap"
        )
    if n == 0:
        raise InvalidGraph6("empty graph (n=0) is not supported")
    if n > MAX_VERTICES:
        raise SizeUnsupported(
            f"{n} vertices exceeds the {MAX_VERTICES}-vertex cap"
        )
    nbits = n * (n - 1) // 2
    want = 1 + (nbits + 5) // 6
    if len(vals) != want:
        raise InvalidGraph6(
            f"record length {len(vals)} does not match n={n} (expected {want})"
        )
    bits = []
    for v in vals[1:]:
        for shift in range(5, -1, -1):
            bits.append((v >> shift) & 1)
    if any(bits[nbits:]):
        raise InvalidGraph6("nonzero padding bits")
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return Graph(n, tuple(rows))


def encode_graph6(g: Graph) -> str:
    """Encode to a bare graph6 record, inverse of decode_graph6."""
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append((g.adj[i] >> j) & 1)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for pos in range(0, len(bits), 6):
        v = 0
        for b in bits[pos : pos + 6]:
            v = (v << 1) | b
        out.append(chr(v + 63))
    return "".join(out)


@dataclass(frozen=True)
class RoleLabeling:
    """Vertex roles of a gadget: one anchor, ordered inputs, one output."""

    anchor: int
    inputs: tuple[int, ...]
    output: int

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        members = (self.anchor, *self.inputs, self.output)
        if any(v < 0 for v in members):
            raise InvalidRoles("negative vertex id in roles")
        if len(set(members)) != len(members):
            raise InvalidRoles("anchor, inputs and output must be distinct")
        if not self.inputs:
            raise InvalidRoles("at least one input is required")

    @classmethod
    def from_ids(
        cls, anchor: int, inputs, output: int, base: int = 0
    ) -> "RoleLabeling":
        """Roles from vertex ids counted from `base` (1 for 1-based ids)."""
        return cls(anchor - base, tuple(v - base for v in inputs), output - base)

    def to_json_dict(self) -> dict:
        return {
            "anchor": self.anchor,
            "inputs": list(self.inputs),
            "output": self.output,
        }

    @property
    def arity(self) -> int:
        return len(self.inputs)

    def vertices(self) -> tuple[int, ...]:
        return (self.anchor, *self.inputs, self.output)

    def validate_for(self, g: Graph) -> None:
        if g.n < self.arity + 2:
            raise GraphTooSmall(
                f"{g.n} vertices cannot host {self.arity + 2} distinct roles"
            )
        for v in self.vertices():
            if v >= g.n:
                raise InvalidRoles(f"role vertex {v} outside 0..{g.n - 1}")


def _refine_classes(g: Graph, base: list[int]) -> list[int]:
    # Neighborhood color refinement to a fixpoint.  Class ids are the rank
    # of the (previous id, sorted neighbor ids) key, so isomorphic graphs
    # with matching base classes get matching refined classes.
    ranks = {b: i for i, b in enumerate(sorted(set(base)))}
    cls = [ranks[b] for b in base]
    nbrs = [g.neighbors(v) for v in range(g.n)]
    while True:
        keys = [
            (cls[v], tuple(sorted(cls[u] for u in nbrs[v]))) for v in range(g.n)
        ]
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [order[k] for k in keys]
        if new == cls:
            return cls
        cls = new


def _canon_columns(adj: tuple[int, ...], classes: list[int]) -> list[int]:
    """Canonical adjacency columns under class-preserving relabelings.

    Positions 0..n-1 are owned by class ids in ascending order; vertices may
    only occupy positions of their own class.  The column code of position t
    is sum(bit(i, t) << i for i < t) against already placed vertices, and the
    canonical form is the lexicographically least column vector, found by
    depth-first search with prefix pruning.
    """
    n = len(adj)
    big = 1 << 62
    cls_sorted = sorted(classes)
    best = [big] * n
    perm = [0] * n
    used = [False] * n
    cand = [-1] * n
    t = 0
    while t >= 0:
        req = cls_sorted[t]
        v = cand[t] + 1
        advanced = False
        while v < n:
            if not used[v] and classes[v] == req:
                row = adj[v]
                col = 0
                for i in range(t):
                    if (row >> perm[i]) & 1:
                        col |= 1 << i
                if col <= best[t]:
                    if col < best[t]:
                        best[t] = col
                        best[t + 1 :] = [big] * (n - t - 1)
                    cand[t] = v
                    perm[t] = v
                    used[v] = True
                    advanced = True
                    break
            v += 1
        if not advanced:
            cand[t] = -1
            t -= 1
            if t >= 0:
                used[perm[t]] = False
            continue
        if t == n - 1:
            used[perm[t]] = False
            continue
        t += 1
    return best


def canonical_key(g: Graph, base_classes=None) -> tuple:
    """Hashable key equal across (class-respecting) isomorphic graphs.

    With no base classes this keys plain isomorphism; passing role-derived
    classes keys role-respecting isomorphism.  The key is (n, sorted class
    layout, packed canonical adjacency code).
    """
    base = list(base_classes) if base_classes is not None else [0] * g.n
    cls = _refine_classes(g, base)
    cols = _canon_columns(g.adj, cls)
    code = 0
    for t in range(1, g.n):
        code = (code << t) | cols[t]
    return (g.n, tuple(sorted(cls)), code)


def graph_from_canonical_code(n: int, code: int) -> Graph:
    """Rebuild the canonically labeled graph from a canonical_key code."""
    rows = [0] * n
    for t in range(n - 1, 0, -1):
        col = code & ((1 << t) - 1)
        code >>= t
        for i in range(t):
            if (col >> i) & 1:
                rows[i] |= 1 << t
                rows[t] |= 1 << i
    return Graph(n, tuple(rows))


def _role_base_classes(
    g: Graph, roles: RoleLabeling, inputs_ordered: bool
) -> list[int]:
    base = [len(roles.inputs) + 2] * g.n
    base[roles.anchor] = 0
    base[roles.output] = 1
    for pos, v in enumerate(roles.inputs):
        base[v] = 2 + pos if inputs_ordered else 2
    return base


def config_canonical_key(
    g: Graph, roles: RoleLabeling, inputs_ordered: bool = False
) -> tuple:
    roles.validate_for(g)
    return canonical_key(g, _role_base_classes(g, roles, inputs_ordered))


def roles_isomorphic(
    g1: Graph,
    r1: RoleLabeling,
    g2: Graph,
    r2: RoleLabeling,
    inputs_ordered: bool = False,
) -> bool:
    """True when a graph isomorphism maps anchor to anchor, output to output
    and inputs to inputs (as a set, or position by position when ordered)."""
    if r1.arity != r2.arity:
        raise ArityMismatch(f"arity {r1.arity} vs {r2.arity}")
    if g1.n != g2.n:
        return False
    return config_canonical_key(g1, r1, inputs_ordered) == config_canonical_key(
        g2, r2, inputs_ordered
    )


def _attach_vertex(g: Graph, mask: int) -> Graph:
    rows = list(g.adj)
    for v in range(g.n):
        if (mask >> v) & 1:
            rows[v] |= 1 << g.n
    rows.append(mask)
    return Graph(g.n + 1, tuple(rows))


def _extend_connected(parents: list[Graph]) -> list[Graph]:
    # Every connected graph on m vertices arises from a connected graph on
    # m-1 vertices by adding one vertex with a nonempty neighborhood (remove
    # a non-cut vertex, e.g. a spanning-tree leaf).  Dedup by canonical key
    # and emit canonical representatives in ascending key order.
    seen = set()
    m = parents[0].n
    for p in parents:
        for mask in range(1, 1 << m):
            seen.add(canonical_key(_attach_vertex(p, mask)))
    return [graph_from_canonical_code(m + 1, key[2]) for key in sorted(seen)]


GENERATION_CAP = 7


def generate_connected(n: int) -> list[Graph]:
    """All connected graphs on n vertices, one per isomorphism class.

    Deterministic order (ascending canonical key).  Supported for n <= 7;
    larger orders must come from an external graph6 stream.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > GENERATION_CAP:
        raise SizeUnsupported(
            f"built-in generation covers n <= {GENERATION_CAP}; pipe an "
            f"external graph6 stream for {n} vertices"
        )
    level = [Graph(1, (0,))]
    for _ in range(n - 1):
        level = _extend_connected(level)
    return level


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
        if g.is_connected():
            return g

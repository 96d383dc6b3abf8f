"""Graphs as immutable bitmask adjacency rows, plus codec and isomorphism tools.

Vertices are 0-based ints.  A graph stores one int per vertex whose bit u
is set when the vertex is adjacent to u; the cap of 32 vertices keeps every
row inside a machine word for the census kernel.  The module also carries the
graph6 codec (bare records only, no header), exhaustive generation of small
connected graphs, and role-respecting isomorphism via canonical labelings.
One numpy colour refinement, _refine, refines a (graphs, n) stack of
adjacency rows at once, and one recursive search, _canonical, finds a
graph's canonical labelings from its rows and refined classes; a single
graph is a one-graph stack.  The generator refines each parent's extensions
as one stack and keys them without building a Graph.  stacked_config_keys
keys a stack's configurations, a census pass's hits, with one search per
graph: each is the graph's canonical key plus the least image of its role
tuple under the canonical labelings, which differ by exactly the graph's
automorphisms, taken by one stepped minimum over (configuration, labeling)
cells.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _kernels
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
        object.__setattr__(self, "adj", tuple(self.adj))
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


def _refine(adj: np.ndarray) -> np.ndarray:
    """Colour refinement of a (graphs, n) stack of bitmask rows of one order:
    each graph's vertex classes at its fixpoint, from one class.

    In a round a vertex's key is its class, then its neighbours' classes
    sorted ascending and padded with -1 after them, so that a shorter tuple
    sorts first, as in Python's tuple order.  Its new class is the dense rank
    of its key within its graph, from one lexsort with the graph index first,
    so isomorphic graphs get matching classes.  The stack takes rounds in
    lockstep until no class changes; a graph already stable stays stable,
    since its keys sort by class first.
    """
    count, n = adj.shape
    bits = ((adj[:, :, None] >> np.arange(n)) & 1).astype(bool)
    graph = np.arange(count).repeat(n)
    cls = np.zeros((count, n), np.int64)
    while True:
        nbrs = np.where(bits, cls[:, None, :], n)
        nbrs.sort(axis=2)
        nbrs[nbrs == n] = -1
        keys = np.vstack((nbrs.reshape(-1, n).T[::-1], cls.reshape(-1), graph))
        order = np.lexsort(keys)
        ranked = keys[:, order]
        rank = np.zeros(count * n, np.int64)
        rank[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0).cumsum()
        new = np.empty_like(cls)
        # Sorted by graph first, each graph's n keys are adjacent.
        new.reshape(-1)[order] = rank - rank[::n].repeat(n)
        if np.array_equal(new, cls):
            return cls
        cls = new


def _canonical(
    adj: Sequence[int], classes: list[int], hold: bool
) -> tuple[tuple, list[tuple[int, ...]]]:
    """canonical_key of the graph with these adjacency rows and refined
    classes (its _refine row) and, with hold, every labeling that reaches it.

    Positions 0..n-1 are owned by class ids in ascending order, and a vertex
    may only take a position of its own class.  The column code of position
    t is sum(bit(perm[i], perm[t]) << i for i < t) against the vertices
    already placed, and the canonical form is the lexicographically least
    column vector, found by depth-first search that tries each position's
    class members in ascending order.

    The search prunes only prefixes whose column exceeds the best one, so it
    reaches every labeling (perm[t] = vertex at position t) of the least
    vector, |Aut| leaves: they are one coset of the automorphism group.  With
    hold it returns them all in the order reached, dropping those held
    whenever the best vector improves; without it the list stays empty, so
    keying K9 holds none of its 362,880 labelings.
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


def canonical_key(g: Graph) -> tuple:
    """Hashable key equal across isomorphic graphs: (n, sorted refined
    class layout, packed canonical adjacency code)."""
    classes = _refine(np.array([g.adj], np.int64))[0].tolist()
    return _canonical(g.adj, classes, False)[0]


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


def stacked_config_keys(
    adj: np.ndarray, owner: np.ndarray, rows: np.ndarray, inputs_ordered: bool
) -> tuple[list, np.ndarray]:
    """Role-respecting isomorphism keys of configurations on a (graphs, n)
    stack of bitmask rows of one order: each stack row's canonical_key, and
    each configuration's role code.

    Configuration i is rows[i], (anchor, output, input...) in the vertex ids
    of stack row owner[i]; owner is ascending.  Two configurations are
    role-isomorphic exactly when their graphs are isomorphic and an
    automorphism maps one role tuple onto the other, so the role code is the
    least packed (anchor, output, inputs) position tuple over every
    canonical labeling of its graph, inputs sorted unless ordered.  The
    stack is refined at once and searched once per graph; the minimum runs
    over (configuration, labeling) cells, at most SCAN_CELLS or one
    configuration's per step.
    """
    count, n = adj.shape
    keys, perms = [], []
    start = np.zeros(count + 1, np.int64)
    for g, (row, classes) in enumerate(zip(adj.tolist(), _refine(adj).tolist())):
        key, held = _canonical(row, classes, True)
        keys.append(key)
        perms += held
        start[g + 1] = len(perms)
    perms = np.array(perms, np.int64).reshape(-1, n)
    pos = np.empty_like(perms)
    pos[np.arange(len(perms))[:, None], perms] = np.arange(n)
    weights = n ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)
    cells = np.diff(start)[owner]
    ends = cells.cumsum()
    codes = np.empty(len(rows), np.int64)
    done = 0
    while done < len(rows):
        limit = ends[done] - cells[done] + _kernels.SCAN_CELLS
        end = max(done + 1, ends.searchsorted(limit, "right"))
        own, width = owner[done:end], cells[done:end]
        first = width.cumsum() - width
        at = np.arange(first[-1] + width[-1]) + (start[own] - first).repeat(width)
        placed = pos[at[:, None], rows[done:end].repeat(width, axis=0)]
        if not inputs_ordered:
            placed[:, 2:].sort(axis=1)
        codes[done:end] = np.minimum.reduceat(placed @ weights, first)
        done = end
    return keys, codes


def config_canonical_keys(g: Graph, rows, inputs_ordered: bool = False) -> list:
    """One role-respecting isomorphism key per configuration row of g, all
    rows of one arity: (canonical_key(g), role code), as stacked_config_keys
    gives them on a one-graph stack."""
    rows = np.asarray(rows, dtype=np.int64)
    if not len(rows):
        return []
    if rows.min() < 0 or rows.max() >= g.n:
        raise InvalidRoles(f"role vertex outside 0..{g.n - 1}")
    (key,), codes = stacked_config_keys(
        np.array([g.adj], np.int64), np.zeros(len(rows), np.int64), rows,
        inputs_ordered,
    )
    return [(key, code) for code in codes.tolist()]


def config_canonical_key(
    g: Graph, roles: RoleLabeling, inputs_ordered: bool = False
) -> tuple:
    """config_canonical_keys for one configuration, given as roles."""
    roles.validate_for(g)
    row = (roles.anchor, roles.output, *roles.inputs)
    return config_canonical_keys(g, [row], inputs_ordered)[0]


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
    r1.validate_for(g1)
    r2.validate_for(g2)
    keys, codes = stacked_config_keys(
        np.array([g1.adj, g2.adj], np.int64), np.arange(2),
        np.array([(r.anchor, r.output, *r.inputs) for r in (r1, r2)], np.int64),
        inputs_ordered,
    )
    return keys[0] == keys[1] and codes[0] == codes[1]


def _extend_connected(parents: list[Graph]) -> list[Graph]:
    # Every connected graph on m vertices arises from a connected graph on
    # m-1 vertices by adding one vertex with a nonempty neighborhood (remove
    # a non-cut vertex, e.g. a spanning-tree leaf).  Dedup by canonical key,
    # keyed straight from the extensions' rows, one refined stack of the
    # 2**m - 1 extensions per parent, and emit canonical representatives in
    # ascending key order.
    seen = set()
    m = parents[0].n
    masks = np.arange(1, 1 << m)
    grown = (masks[:, None] >> np.arange(m) & 1) << m
    for p in parents:
        rows = np.column_stack((np.array(p.adj, np.int64) | grown, masks))
        for row, classes in zip(rows.tolist(), _refine(rows).tolist()):
            seen.add(_canonical(row, classes, False)[0])
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


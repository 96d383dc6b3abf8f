"""Graphs as immutable bitmask adjacency rows, plus codec and isomorphism tools.

Vertices are 0-based ints.  A graph stores one int per vertex whose bit u
is set when the vertex is adjacent to u; the cap of 32 vertices keeps every
row inside a machine word for the census kernel.  The module also carries the
graph6 codec (bare records only, no header), exhaustive generation of small
connected graphs, and role-respecting isomorphism via canonical labelings.
One numpy colour refinement, _refine, refines a (graphs, n) stack of
adjacency rows at once, and one level-wise search, _canonical, finds every
graph's canonical labelings from its rows and refined classes, a frontier
of partial labelings for the whole stack; a single graph is a one-graph
stack.  The generator searches each parent's extensions as one stack and
keys them without building a Graph.  stacked_config_keys keys a stack's
configurations, a census pass's hits, with one search of the stack: each
is the graph's canonical key plus the least image of its role tuple under
the canonical labelings, which differ by exactly the graph's
automorphisms, taken by one stepped minimum over (configuration, labeling)
cells.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    ArityMismatch,
    GraphTooSmall,
    InvalidGraph6,
    InvalidRoles,
    SizeUnsupported,
    TooLarge,
)

MAX_VERTICES = 32
# Safety bound on the rows a stacked enumeration holds at one step: partial
# colorings (a connected graph has at most 3 * 2**(n-1) proper 3-colorings)
# or partial labelings of the canonical search (K10's 10! fit, K11's not).
MAX_MATERIALIZED = 10_000_000


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

    In a round a vertex's key is its class, then the classes of the vertices
    sorted ascending, -1 for each non-neighbour, and its new class is the
    dense rank of its key within its graph, from one lexsort with the graph
    index first, so isomorphic graphs get matching classes.  The first round
    from one class ranks the vertices by degree, so the rounds start from
    the degrees, which rank alike; from then on a class's vertices share a
    degree, and so their count of -1s.  The stack takes rounds in lockstep
    until the number of classes stops growing, or every class is one
    vertex; a graph already stable stays stable, since its keys sort by
    class first, and a round that splits no class keeps every class id.
    """
    count, n = adj.shape
    bits = ((adj[:, :, None] >> np.arange(n)) & 1).astype(bool)
    graph = np.arange(count).repeat(n)
    cls = bits.sum(2)
    classes = 0
    while True:
        nbrs = np.where(bits, cls[:, None, :], -1)
        nbrs.sort(axis=2)
        keys = np.vstack((nbrs.reshape(-1, n).T[::-1], cls.reshape(-1), graph))
        order = np.lexsort(keys)
        ranked = keys[:, order]
        rank = np.zeros(count * n, np.int64)
        rank[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0).cumsum()
        cls = np.empty_like(cls)
        # Sorted by graph first, each graph's n keys are adjacent.
        cls.reshape(-1)[order] = rank - rank[::n].repeat(n)
        if rank[-1] + 1 in (classes, count * n):
            return cls
        classes = rank[-1] + 1


@functools.cache
def _column_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # bit[v] = 1 << v in the smallest unsigned type of n bits; below[t], the
    # bits of column t, bit[i] for i < t; after[t], how many follow column t.
    word = _kernels._mask_type(n)
    bit = word.type(1) << np.arange(n, dtype=word)
    after = np.array([(n * n - n - t * t - t) // 2 for t in range(n)], np.uint64)
    return bit, bit * (np.arange(n) < np.arange(n)[:, None]), after


def _canonical(adj: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """canonical_key of each graph of a (graphs, n) stack of bitmask rows of
    one order, and every labeling that reaches it: (keys, perms, starts),
    uint8 labelings (perm[t] = vertex at position t), graph g's in
    perms[starts[g]:starts[g + 1]].

    Positions 0..n-1 are owned by the graph's _refine class ids in ascending
    order, and a vertex may only take a position of its own class.  The
    column code of position t is sum(bit(perm[i], perm[t]) << i for i < t);
    the canonical form is the least column vector, packed column 1 first.
    A frontier of partial labelings, owner ascending, extends a position
    whose class has members left after it by each unplaced one, ascending; a
    class's last position takes its one remaining member.  Runs of columns,
    packed into 64 bits, are compared at the end, and before an extension
    once the frontier holds more than n labelings per graph, as many as
    _refine's neighbour table holds entries: only each graph's least stay.  Every partial labeling can be completed,
    so the end holds exactly the labelings of the least vector, |Aut| per
    graph, in lexicographic order.  A discrete stack takes no step.  Raises
    TooLarge past MAX_MATERIALIZED labelings.
    """
    count, n = adj.shape
    classes = _refine(adj)
    layout = np.sort(classes, axis=1)
    bit, below, after = _column_tables(n)
    rows = adj.astype(bit.dtype)
    # join[t]: position t has the class of position t - 1 in some graph.
    join = np.zeros(n + 1, bool)
    join[1:n] = (layout[:, 1:] == layout[:, :-1]).any(axis=0)
    last = np.flatnonzero(join[:-1] & ~join[1:])
    if join.any():
        # owned[t, g]: the members of graph g's class at position t.
        owned = ((classes[:, None, :] == layout[:, :, None]) @ bit).T
    graphs = np.arange(count)
    perms = np.argsort(classes, axis=1, kind="stable").astype(np.uint8)
    owner, used = graphs, np.zeros(count, bit.dtype)
    codes = [0] * count
    done = 0  # columns 0..done-1 are compared and in codes
    for t in [*np.flatnonzero(join[1:]).tolist(), n]:
        if t == n or len(owner) > count * n:
            q = last[last < t]
            if len(q):
                # The one member left: frexp(2 ** v) is (0.5, v + 1).
                perms[:, q] = np.frexp(owned[q][:, owner] & ~used)[1].T - 1
            while done < t:
                # Columns done..b-1, at most 64 bits, most significant first.
                b = min(t, (1 + math.isqrt(513 + 4 * done * (done - 1))) // 2)
                cell = rows[owner[:, None], perms[:, done:b]]
                cell = cell[:, :, None] >> perms[:, None, :b - 1]
                cell &= 1
                cell *= below[done:b, :b - 1]
                cols = cell.sum(2, np.uint64)
                cols <<= after[done:b] - after[b - 1]
                key = cols.sum(1)
                least = key
                if len(owner) > count:
                    least = np.minimum.reduceat(key, owner.searchsorted(graphs))
                    keep = key == least[owner]
                    if not keep.all():
                        perms, owner, used = perms[keep], owner[keep], used[keep]
                width = (b * b - b - done * done + done) // 2
                codes = [code << width | x for code, x in zip(codes, least.tolist())]
                done = b
        if t < n:
            free = ((owned[t][owner] & ~used)[:, None] & bit) != 0
            if np.count_nonzero(free) > MAX_MATERIALIZED:
                raise TooLarge(f"more than {MAX_MATERIALIZED} labelings at one step")
            row, v = np.nonzero(free)
            perms, owner, used = perms.take(row, 0), owner[row], used[row]
            perms[:, t] = v
            used |= bit[v]
            del free, row, v  # freed before the next step allocates
    keys = [(n, tuple(lay), code) for lay, code in zip(layout.tolist(), codes)]
    return keys, perms, owner.searchsorted(np.arange(count + 1))


def canonical_key(g: Graph) -> tuple:
    """Hashable key equal across isomorphic graphs: (n, sorted refined
    class layout, packed canonical adjacency code)."""
    return _canonical(np.array([g.adj], np.int64))[0][0]


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
    canonical labeling of its graph, inputs sorted unless ordered.  One
    _canonical call searches the whole stack; the minimum runs over
    (configuration, labeling) cells, at most SCAN_CELLS or one
    configuration's per step.
    """
    n = adj.shape[1]
    keys, perms, start = _canonical(adj)
    pos = perms.argsort(axis=1)
    weights = n ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)
    cells = (start[1:] - start[:-1])[owner]
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
    # one search of each parent's 2**m - 1 extensions as a stack, and emit
    # canonical representatives in ascending key order.
    seen = set()
    m = parents[0].n
    masks = np.arange(1, 1 << m)
    grown = (masks[:, None] >> np.arange(m) & 1) << m
    for p in parents:
        seen.update(_canonical(np.column_stack((np.array(p.adj) | grown, masks)))[0])
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


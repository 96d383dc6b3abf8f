import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ladget.errors import (
    ArityMismatch,
    GraphTooSmall,
    InvalidGraph6,
    InvalidRoles,
    SizeUnsupported,
    TooLarge,
)
from ladget import _kernels, graphcore
from ladget.graphcore import (
    GENERATION_CAP,
    MAX_VERTICES,
    Graph,
    RoleLabeling,
    _canonical,
    _refine,
    canonical_key,
    decode_graph6,
    encode_graph6,
    generate_connected,
    graph_from_canonical_code,
    roles_isomorphic,
    stacked_config_keys,
)
from ladget.search import enumerate_configs
from oracles import bfs_connected, brute_automorphisms, brute_isomorphic
from oracles import brute_role_orbit, brute_roles_isomorphic, config_key
from oracles import config_keys, is_connected, permuted, random_connected
from oracles import random_graph, recursive_canonical, refine_classes


@st.composite
def graphs(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    m = n * (n - 1) // 2
    bits = draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    edges = []
    t = 0
    for v in range(1, n):
        for u in range(v):
            if (bits >> t) & 1:
                edges.append((u, v))
            t += 1
    return Graph.from_edges(n, edges)


@st.composite
def stacks(draw, max_n=12, max_graphs=4):
    # A few graphs of one order, as _refine takes them.
    n = draw(st.integers(min_value=1, max_value=max_n))
    return draw(st.lists(graphs(min_n=n, max_n=n), min_size=1, max_size=max_graphs))


def _stack(gs) -> np.ndarray:
    return np.array([g.adj for g in gs], np.int64)


class TestGraph:
    def test_from_edges(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 2)])
        assert g.n == 4
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]
        assert g.degrees() == (1, 2, 2, 1)
        assert g.neighbors(1) == [0, 2]
        assert g.has_edge(2, 1) and not g.has_edge(0, 3)

    def test_list_rows_become_a_tuple(self):
        g = Graph(3, [0, 0, 0])
        assert g == Graph(3, (0, 0, 0))
        assert hash(g) == hash(Graph(3, (0, 0, 0)))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    @given(graphs())
    def test_is_connected_matches_bfs(self, g):
        assert is_connected(g) == bfs_connected(g)

    @given(graphs(min_n=2, max_n=8), st.randoms(use_true_random=False))
    def test_permuted_preserves_structure(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = permuted(g, perm)
        assert sorted(h.degrees()) == sorted(g.degrees())
        assert len(h.edges()) == len(g.edges())
        assert all(h.has_edge(perm[u], perm[v]) for u, v in g.edges())

    def test_adj_array_matches_edges(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        a = g.adj_array()
        assert a.dtype == np.uint32 or a.dtype == np.int64 or a.dtype == np.uint64
        assert [int(x) for x in a] == list(g.adj)


# Encodings cross-checked against the format's published examples.
KNOWN_CODEC = [
    ("@", 1, []),
    ("A_", 2, [(0, 1)]),
    ("C~", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    ("Ch", 4, [(0, 1), (1, 2), (2, 3)]),
    ("D??", 5, []),
    ("Dhc", 5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]),
    (
        "IheA@GUAo",
        10,
        [(0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 4),
         (3, 8), (4, 9), (5, 7), (5, 8), (6, 8), (6, 9), (7, 9)],
    ),
]


class TestGraph6:
    @pytest.mark.parametrize("record,n,edges", KNOWN_CODEC)
    def test_decode_known(self, record, n, edges):
        g = decode_graph6(record)
        assert g.n == n
        assert g.edges() == sorted(edges)

    @pytest.mark.parametrize("record,n,edges", KNOWN_CODEC)
    def test_encode_known(self, record, n, edges):
        assert encode_graph6(Graph.from_edges(n, edges)) == record

    @given(graphs(max_n=12))
    def test_roundtrip(self, g):
        assert decode_graph6(encode_graph6(g)) == g

    def test_record_roundtrip(self, connected8_path):
        # A record that decodes is the only graph6 of its graph, which lets
        # the census report the record text as the hit's graph6.
        for record in connected8_path.read_text().split():
            assert encode_graph6(decode_graph6(record)) == record

    @pytest.mark.parametrize(
        "record",
        [
            "",                     # empty
            ">>graph6<<C~",         # header is not accepted
            "?",                    # zero vertices
            "~??",                  # big-n marker
            "C",                    # truncated body
            "C~~",                  # trailing bytes
            "A@",                   # nonzero padding bits
            "C>",                   # byte below the graph6 range
            "C\x7f",                # byte above the graph6 range
        ],
    )
    def test_rejects(self, record):
        with pytest.raises(InvalidGraph6):
            decode_graph6(record)

    def test_rejects_whitespace_only(self):
        with pytest.raises(InvalidGraph6):
            decode_graph6("\n")

    def test_order_cap(self):
        # Well-formed graph6 for 33 vertices, above the supported cap; the
        # specific subtype still decodes as an invalid record for streams.
        record = "`" + "?" * 88
        with pytest.raises(SizeUnsupported):
            decode_graph6(record)
        assert issubclass(SizeUnsupported, InvalidGraph6)

    def test_graph_cap_is_constructional(self):
        with pytest.raises(ValueError):
            Graph.from_edges(33, [])


class TestCanonicalKey:
    # Timing is not the property: a slow order-8 example must not trip
    # hypothesis's default per-example deadline.
    @settings(deadline=None)
    @given(graphs(max_n=8), st.randoms(use_true_random=False))
    def test_permutation_invariant(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert canonical_key(permuted(g, perm)) == canonical_key(g)

    def test_separates_nonisomorphic_at_n5(self):
        reps = generate_connected(5)
        keys = [canonical_key(g) for g in reps]
        assert len(set(keys)) == len(reps)
        for a, b in itertools.combinations(reps, 2):
            assert not brute_isomorphic(a, b)

    def test_equality_matches_brute_force(self, rng):
        pool = [random_graph(rng, int(n), 0.5) for n in rng.integers(4, 7, 40)]
        for a, b in itertools.combinations(pool[:15], 2):
            same_key = canonical_key(a) == canonical_key(b)
            assert same_key == brute_isomorphic(a, b)

    def test_code_rebuilds_graph(self):
        for g in generate_connected(6):
            n, _, code = canonical_key(g)
            h = graph_from_canonical_code(n, code)
            assert canonical_key(h) == canonical_key(g)

    @pytest.mark.parametrize("shape", ["path", "random"])
    def test_keys_at_the_vertex_cap(self, rng, shape):
        # The deepest search and the longest code, 496 bits.  No regular
        # graph: without automorphism pruning C32 does not key in minutes.
        n = MAX_VERTICES
        if shape == "path":
            g = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
        else:
            g = random_connected(n, np.random.default_rng(32))
        perm = rng.permutation(n)
        h = permuted(g, perm.tolist())
        key = canonical_key(g)
        assert canonical_key(h) == key
        assert canonical_key(graph_from_canonical_code(n, key[2])) == key
        rows = np.array([rng.permutation(n)[:4] for _ in range(50)])
        for ordered in (False, True):
            assert config_keys(
                h, perm[rows], ordered
            ) == config_keys(g, rows, ordered)


class TestRefine:
    # The stacked refinement against the one-graph oracle: the same class
    # ids, so no canonical_key changes.
    @pytest.mark.parametrize("n", range(1, 8))
    def test_each_small_order_as_one_stack(self, n):
        gs = generate_connected(n)
        assert _refine(_stack(gs)).tolist() == [refine_classes(g.adj) for g in gs]

    def test_order_8_stream_as_one_stack(self, connected8_path):
        gs = [decode_graph6(r) for r in connected8_path.read_text().split()]
        assert _refine(_stack(gs)).tolist() == [refine_classes(g.adj) for g in gs]

    @settings(deadline=None)
    @given(stacks())
    def test_matches_oracle(self, gs):
        assert _refine(_stack(gs)).tolist() == [refine_classes(g.adj) for g in gs]

    @pytest.mark.parametrize("n", [12, MAX_VERTICES])
    def test_slow_and_stable_graphs_in_one_stack(self, rng, n):
        # A path refines for n // 2 rounds; a cycle and the empty graph are
        # stable at once and must stay so while the path goes on.  At 32
        # vertices a key spans several packed words.
        path = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
        cycle = Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])
        gs = [cycle, path, Graph.from_edges(n, []), random_connected(n, rng)]
        want = [refine_classes(g.adj) for g in gs]
        assert want[0] == want[2] == [0] * n and len(set(want[1])) == n // 2
        assert _refine(_stack(gs)).tolist() == want


class TestGeneration:
    def test_counts(self):
        # Connected graphs on 1..7 vertices, one per isomorphism class.
        expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
        for n, want in expected.items():
            got = generate_connected(n)
            assert len(got) == want
            assert all(is_connected(g) for g in got)
            assert len({canonical_key(g) for g in got}) == want

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            generate_connected(0)
        with pytest.raises(SizeUnsupported):
            generate_connected(GENERATION_CAP + 1)

    def test_random_connected(self, rng):
        for n in (2, 5, 9):
            g = random_connected(n, rng)
            assert g.n == n
            assert is_connected(g)
        a = random_connected(8, np.random.default_rng(7))
        b = random_connected(8, np.random.default_rng(7))
        assert a == b


class TestRoles:
    def test_rejects_duplicates(self):
        with pytest.raises(InvalidRoles):
            RoleLabeling(0, (0,), 1)
        with pytest.raises(InvalidRoles):
            RoleLabeling(0, (1, 1), 2)

    def test_rejects_negative_and_empty(self):
        with pytest.raises(InvalidRoles):
            RoleLabeling(-1, (0,), 1)
        with pytest.raises(InvalidRoles):
            RoleLabeling(0, (), 1)

    def test_validate_for(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        RoleLabeling(0, (1,), 2).validate_for(g)
        with pytest.raises(InvalidRoles):
            RoleLabeling(0, (1,), 5).validate_for(g)
        with pytest.raises(GraphTooSmall):
            RoleLabeling(0, (1, 2), 3).validate_for(g)

    def test_arity_and_vertices(self):
        r = RoleLabeling(4, (2, 6), 1)
        assert r.arity == 2
        assert r.vertices() == (4, 2, 6, 1)


def _random_config(rng, n):
    picks = rng.choice(n, size=4, replace=False)
    return RoleLabeling(int(picks[0]), (int(picks[1]), int(picks[2])), int(picks[3]))


class TestRolesIsomorphic:
    def test_relabelled_config_always_matches(self, rng):
        for _ in range(25):
            n = int(rng.integers(4, 7))
            g = random_graph(rng, n, 0.5)
            r = _random_config(rng, n)
            perm = rng.permutation(n).tolist()
            h = permuted(g, perm)
            hr = RoleLabeling(
                perm[r.anchor], tuple(perm[v] for v in r.inputs), perm[r.output]
            )
            assert roles_isomorphic(g, r, h, hr)
            assert roles_isomorphic(g, r, h, hr, inputs_ordered=True)

    def test_matches_brute_force(self, rng):
        hits = misses = 0
        for _ in range(40):
            n = int(rng.integers(4, 6))
            g, h = random_graph(rng, n, 0.5), random_graph(rng, n, 0.5)
            gr, hr = _random_config(rng, n), _random_config(rng, n)
            for ordered in (False, True):
                want = brute_roles_isomorphic(g, gr, h, hr, ordered)
                assert roles_isomorphic(g, gr, h, hr, ordered) == want
                hits += want
                misses += not want
        assert misses > 0  # the sample exercised the negative side

    def test_ordered_vs_unordered(self, rng):
        # Swapping the two inputs is an unordered match but (generically)
        # not an ordered one; verify against brute force either way.
        for _ in range(20):
            n = int(rng.integers(4, 7))
            g = random_graph(rng, n, 0.5)
            r = _random_config(rng, n)
            swapped = RoleLabeling(r.anchor, r.inputs[::-1], r.output)
            assert roles_isomorphic(g, r, g, swapped)
            want = brute_roles_isomorphic(g, r, g, swapped, ordered_inputs=True)
            assert roles_isomorphic(g, r, g, swapped, inputs_ordered=True) == want

    def test_arity_mismatch(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ArityMismatch):
            roles_isomorphic(
                g, RoleLabeling(0, (1,), 2), g, RoleLabeling(0, (1, 3), 2)
            )

    def test_different_order_is_false(self):
        g4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        g5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        r = RoleLabeling(0, (1,), 2)
        assert not roles_isomorphic(g4, r, g5, r)

    def test_config_key_invariant(self, rng):
        for _ in range(15):
            n = int(rng.integers(4, 7))
            g = random_graph(rng, n, 0.5)
            r = _random_config(rng, n)
            perm = rng.permutation(n).tolist()
            hr = RoleLabeling(
                perm[r.anchor], tuple(perm[v] for v in r.inputs), perm[r.output]
            )
            assert config_key(
                permuted(g, perm), hr
            ) == config_key(g, r)


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


SYMMETRIC = {
    "K1,5": Graph.from_edges(6, [(0, v) for v in range(1, 6)]),
    "K3,3": Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)]),
    "C6": Graph.from_edges(6, [(v, (v + 1) % 6) for v in range(6)]),
    "Petersen": _petersen(),
}

SHAPES = [(arity, ordered) for arity in (1, 2) for ordered in (False, True)]


class TestConfigCanonicalKeys:
    # The batched key against brute force over every connected graph of
    # order 1..6: equal keys exactly on the orbits of the role rows under
    # all n! vertex permutations that are automorphisms.
    @pytest.fixture(scope="class")
    def small(self):
        return [
            (g, brute_automorphisms(g))
            for n in range(1, 7)
            for g in generate_connected(n)
        ]

    @pytest.mark.parametrize("arity,ordered", SHAPES)
    def test_keys_are_automorphism_orbits(self, small, arity, ordered):
        seen = set()
        orbits = 0
        for g, auts in small:
            rows = enumerate_configs(g.n, arity, ordered).tolist()
            rows = [row[: 2 + arity] for row in rows]
            keys = config_keys(g, rows, ordered)
            assert len(keys) == len(rows)
            reps = [brute_role_orbit(auts, row, ordered) for row in rows]
            # One partition: each key meets one orbit and each orbit one key.
            classes = len(set(zip(keys, reps)))
            assert len(set(keys)) == len(set(reps)) == classes, encode_graph6(g)
            # Keys of non-isomorphic graphs never meet.
            assert not seen & set(keys)
            seen |= set(keys)
            orbits += len(set(reps))
        assert len(seen) == orbits > 0

    def test_search_holds_one_labeling_per_automorphism(self, small):
        for g, auts in small:
            (key,), perms, _ = _canonical(_stack([g]))
            held = [tuple(perm) for perm in perms.tolist()]
            assert key == canonical_key(g)
            assert len(held) == len(set(held)) == len(auts)

    @pytest.mark.parametrize("arity,ordered", SHAPES)
    def test_relabelled_graph_keeps_its_keys(self, small, rng, arity, ordered):
        for g, _ in small:
            rows = enumerate_configs(g.n, arity, ordered)[:, : 2 + arity]
            perm = rng.permutation(g.n)
            assert config_keys(
                permuted(g, perm.tolist()), perm[rows], ordered
            ) == config_keys(g, rows, ordered)

    @pytest.mark.parametrize("arity,ordered", SHAPES)
    def test_one_row_call_is_its_batch_row(self, small, rng, arity, ordered):
        for g, _ in small[-40:]:
            rows = enumerate_configs(g.n, arity, ordered)[:, : 2 + arity]
            keys = config_keys(g, rows, ordered)
            for i in rng.choice(len(rows), 3, replace=False):
                anchor, output, *inputs = rows[i].tolist()
                roles = RoleLabeling(anchor, inputs, output)
                assert config_key(g, roles, ordered) == keys[i]

    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_step_budget_does_not_change_keys(self, name, monkeypatch):
        g = SYMMETRIC[name]
        cases = []
        for arity, ordered in SHAPES:
            rows = enumerate_configs(g.n, arity, ordered)[:, : 2 + arity]
            cases.append((rows, ordered, config_keys(g, rows, ordered)))
        monkeypatch.setattr(_kernels, "SCAN_CELLS", 1)
        for rows, ordered, want in cases:
            assert config_keys(g, rows, ordered) == want
            assert len(set(want)) < len(want)  # the graph has symmetry to use


class TestStackedConfigKeys:
    # Keys of a multi-graph stack against the one-graph call, graph by
    # graph: no configuration's minimum may reach into another graph's
    # labelings, under any step budget.
    @pytest.mark.parametrize("cells", [None, 1])
    @pytest.mark.parametrize("arity,ordered", SHAPES)
    def test_stack_matches_one_graph_calls(
        self, rng, monkeypatch, arity, ordered, cells
    ):
        if cells is not None:
            monkeypatch.setattr(_kernels, "SCAN_CELLS", cells)
        gs = [SYMMETRIC["K3,3"], SYMMETRIC["C6"], *generate_connected(6)[::9]]
        gs.append(permuted(gs[-1], rng.permutation(6).tolist()))
        table = enumerate_configs(6, arity, ordered)[:, : 2 + arity]
        picks = [table] + [
            table[np.sort(rng.choice(len(table), int(k), replace=False))]
            for k in rng.integers(1, 12, len(gs) - 1)
        ]
        owner = np.repeat(np.arange(len(gs)), [len(rows) for rows in picks])
        keys, codes = stacked_config_keys(
            _stack(gs), owner, np.concatenate(picks), ordered
        )
        assert keys == [canonical_key(g) for g in gs]
        got = [(keys[g], code) for g, code in zip(owner.tolist(), codes.tolist())]
        want = [key for g, rows in zip(gs, picks)
                for key in config_keys(g, rows, ordered)]
        assert got == want
        assert len(set(want)) < len(want)


def _cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def _path(n: int) -> Graph:
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


SEARCHED = {
    **SYMMETRIC,
    "cube": Graph.from_edges(8, [(v, v | 1 << b) for v in range(8) for b in range(3)
                                 if not v >> b & 1]),
    "C10": _cycle(10),
}


@st.composite
def small_frontier_stacks(draw):
    # Stacks up to order 10 whose class-respecting labelings, a bound on
    # the search's frontier, number at most 5,040: no K10 or empty graph.
    gs = draw(stacks(max_n=10))
    for classes in _refine(_stack(gs)).tolist():
        sizes = np.bincount(classes)
        assume(np.prod([math.factorial(k) for k in sizes]) <= 5040)
    return gs


class TestCanonicalSearch:
    # The stacked search against the recursive oracle: equal keys, and each
    # graph's labelings of its least column vector in the order the
    # depth-first search reaches them.  The symmetric graphs' frontiers
    # outgrow n labelings, so their columns are also compared before an
    # extension, not only at the end.
    @staticmethod
    def _check(gs):
        keys, perms, starts = _canonical(_stack(gs))
        assert perms.dtype == np.uint8 and len(keys) == len(gs)
        for g, key, lo, hi in zip(gs, keys, starts[:-1], starts[1:]):
            want_key, want_held = recursive_canonical(g.adj, refine_classes(g.adj), True)
            assert key == want_key, encode_graph6(g)
            assert [tuple(p) for p in perms[lo:hi].tolist()] == want_held, encode_graph6(g)

    @pytest.mark.parametrize("name", sorted(SEARCHED))
    def test_symmetric_graphs(self, name):
        self._check([SEARCHED[name]])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_connected_graph_of_small_order(self, n):
        self._check(generate_connected(n))

    def test_stride_of_order_8_with_relabelled_copies(self, connected8_path, rng):
        gs = [decode_graph6(r) for r in connected8_path.read_text().split()[::53]]
        mixed = []
        for g in gs:
            mixed.append(g)
            if len(mixed) % 3 == 0:
                mixed.append(permuted(g, rng.permutation(8).tolist()))
        self._check(mixed)

    def test_columns_past_64_bits(self, rng):
        # From order 12 the columns of a graph take several 64-bit packs.
        gs = [_path(12), _cycle(12), permuted(_path(12), rng.permutation(12).tolist())]
        self._check(gs)
        self._check([_path(MAX_VERTICES), random_connected(MAX_VERTICES, np.random.default_rng(32))])

    @settings(deadline=None, max_examples=60)
    @given(small_frontier_stacks())
    def test_matches_oracle_on_random_stacks(self, gs):
        self._check(gs)

    def test_frontier_bound(self, monkeypatch):
        # K7's last extension holds all 5,040 of its labelings.
        k7 = _stack([Graph.from_edges(7, itertools.combinations(range(7), 2))])
        monkeypatch.setattr(graphcore, "MAX_MATERIALIZED", 5040)
        assert len(_canonical(k7)[1]) == 5040
        monkeypatch.setattr(graphcore, "MAX_MATERIALIZED", 5039)
        with pytest.raises(TooLarge):
            _canonical(k7)

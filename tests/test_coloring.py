import itertools

import numpy as np
import pytest

import oracles
from ladget import coloring
from ladget.coloring import all_colorings, stacked_colorings
from ladget.errors import TooLarge
from ladget.graphcore import Graph
from oracles import oracle_colorings, random_connected, random_graph

TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])
K4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def count(g, fixed=None, k=3):
    C = all_colorings(g, fixed, k)
    assert C.dtype == np.uint8 and C.shape[1] == g.n
    return C.shape[0]


class TestCounts:
    def test_triangle(self):
        assert count(TRIANGLE) == 6

    def test_path(self):
        assert count(PATH3) == 12

    def test_empty_graph(self):
        assert count(Graph.from_edges(3, [])) == 27

    def test_k4_needs_four_colors(self):
        assert all_colorings(K4, k=3).shape == (0, 4)
        assert count(K4, k=4) == 24

    def test_fixed_vertex(self):
        got = all_colorings(TRIANGLE, fixed={0: 0}, k=3)
        assert len(got) == 2
        assert all(c[0] == 0 for c in got)

    def test_unsatisfiable_fixed(self):
        assert all_colorings(PATH3, fixed={0: 1, 1: 1}, k=3).shape == (0, 3)


class TestValidation:
    def test_rejects_bad_fixed_vertex(self):
        with pytest.raises(ValueError):
            all_colorings(PATH3, fixed={7: 0})

    def test_rejects_bad_fixed_color(self):
        with pytest.raises(ValueError):
            all_colorings(PATH3, fixed={0: 3}, k=3)

    def test_rejects_tiny_k(self):
        with pytest.raises(ValueError):
            all_colorings(PATH3, k=1)


class TestKernelAgainstReference:
    def test_same_rows_same_order(self, rng):
        # all_colorings returns the oracle's rows in the oracle's
        # (lexicographic) order.
        cases = []
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(2, 9)), 0.4)
            k = int(rng.integers(2, 5))
            cases.append((g, k, {0: 0} if rng.random() < 0.5 else None))
        # Non-zero fixed colors at k=4, on vertices other than 0.
        c5_chord = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        cases.append((c5_chord, 4, {3: 2, 1: 3}))
        for g, k, fixed in cases:
            ref = oracle_colorings(g, fixed, k)
            got = all_colorings(g, fixed, k)
            assert [tuple(int(c) for c in row) for row in got] == ref

    def test_cap_growth_path(self):
        # Thousands of rows: the matrix holds every coloring, not a prefix.
        g = Graph.from_edges(8, [])
        got = all_colorings(g, None, 3)
        assert got.shape == (3**8, 8)

    def test_too_large_guard(self, monkeypatch):
        monkeypatch.setattr(coloring, "MAX_MATERIALIZED", 50)
        g = Graph.from_edges(5, [])
        with pytest.raises(TooLarge):
            all_colorings(g, None, 3)

    @pytest.mark.parametrize("fixed, k", [(None, 3), ({0: 0}, 4)])
    def test_too_large_raised_during_enumeration(self, monkeypatch, fixed, k):
        # 3**30 (or 4**29) colorings: only a bound checked as rows are
        # found, not after enumeration, can end this in time.
        monkeypatch.setattr(coloring, "MAX_MATERIALIZED", 1_000)
        with pytest.raises(TooLarge):
            all_colorings(Graph.from_edges(30, []), fixed, k)

    def test_exactly_at_the_bound(self, monkeypatch):
        monkeypatch.setattr(coloring, "MAX_MATERIALIZED", 3**5)
        assert all_colorings(Graph.from_edges(5, []), None, 3).shape == (3**5, 5)


def restricted_growth(row):
    # Each color is at most one above the largest color before it.
    top = -1
    for c in row:
        if c > top + 1:
            return False
        top = max(top, c)
    return True


COLOR_PERMS = list(itertools.permutations(range(3)))


class TestStackedColorings:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_same_rows_same_order_as_oracle(self, rng, n):
        # Each graph of a stack takes its vertices in descending degree,
        # ties to the lower label, and gets exactly the oracle's rows that
        # are in restricted-growth form along that order, in that order's
        # lexicographic order; their orbits under the six color
        # permutations are disjoint and make up the oracle's rows.  The
        # stacks hold an edgeless graph and, from order 5, K4 plus a
        # pendant (no proper 3-coloring) with isolated vertices.
        k4_pendant = [(u, v) for v in range(4) for u in range(v)] + [(3, 4)]
        for _ in range(3):
            graphs = [random_graph(rng, n, p) for p in (0.2, 0.5, 0.8)]
            graphs.append(Graph.from_edges(n, []))
            if n >= 5:
                graphs.append(Graph.from_edges(n, k4_pendant))
            graphs = [graphs[i] for i in rng.permutation(len(graphs))]
            stack, starts = stacked_colorings(np.array([g.adj for g in graphs]))
            assert stack.dtype == np.uint8 and stack.shape[1] == n
            assert len(starts) == len(graphs) + 1
            assert starts[0] == 0 and starts[-1] == len(stack)
            for i, g in enumerate(graphs):
                order = sorted(range(n), key=lambda v: (-g.adj[v].bit_count(), v))
                C = stack[starts[i] : starts[i + 1]]
                got = [tuple(int(c) for c in row) for row in C]
                ref = oracle_colorings(g, None, 3)
                along = sorted((tuple(row[v] for v in order), row) for row in ref)
                assert got == [row for key, row in along if restricted_growth(key)]
                orbits = [{tuple(p[c] for c in row) for p in COLOR_PERMS}
                          for row in got]
                assert sum(map(len, orbits)) == len(ref)
                assert set().union(*orbits) == set(ref)

    def test_empty_stack(self):
        C, starts = stacked_colorings(np.zeros((0, 4), np.int64))
        assert C.shape == (0, 4) and C.dtype == np.uint8
        assert starts.tolist() == [0]

    def test_too_large_guard(self, monkeypatch):
        # The edgeless order-6 graph has 122 rows, one per partition of its
        # vertices into at most three color classes (order 5 has only 41).
        monkeypatch.setattr(coloring, "MAX_MATERIALIZED", 50)
        with pytest.raises(TooLarge):
            stacked_colorings(np.array([Graph.from_edges(6, []).adj]))


class TestOracle:
    def test_oracle_agrees_on_random_graphs(self, rng):
        # The acceptance suite runs the full 500-case sweep; this is the
        # fast everyday version.
        for _ in range(60):
            n = int(rng.integers(2, 8))
            g = random_graph(rng, n, 0.5)
            k = int(rng.integers(2, 5))
            fixed = {int(rng.integers(0, n)): 0} if rng.random() < 0.5 else None
            # Sorted lists, not sets, so a duplicated row cannot hide.
            fast = sorted(
                tuple(int(c) for c in row) for row in all_colorings(g, fixed, k)
            )
            assert fast == oracle_colorings(g, fixed, k)

    def test_oracle_cap(self, monkeypatch):
        monkeypatch.setattr(oracles, "ORACLE_CAP", 100)
        with pytest.raises(TooLarge):
            oracle_colorings(Graph.from_edges(5, []), None, 3)


class TestColorSymmetry:
    def test_true_colors_interchangeable(self, rng):
        # With the anchor pinned at 0, swapping colors 1 and 2 permutes the
        # solution set onto itself.
        for _ in range(20):
            g = random_connected(int(rng.integers(3, 8)), rng)
            rows = {
                tuple(int(c) for c in row)
                for row in all_colorings(g, {0: 0}, 3)
            }
            swap = {0: 0, 1: 2, 2: 1}
            assert rows == {tuple(swap[c] for c in row) for row in rows}

    def test_proper_and_complete(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            g = random_graph(rng, n, 0.5)
            for row in all_colorings(g, None, 3):
                assert all(row[u] != row[v] for u, v in g.edges())


def test_connected_coloring_count_bound(rng):
    # A connected graph has at most 3 * 2**(n-1) proper 3-colorings; the
    # materialization bound leans on this.
    for _ in range(15):
        n = int(rng.integers(2, 9))
        g = random_connected(n, rng)
        assert all_colorings(g, None, 3).shape[0] <= 3 * 2 ** (n - 1)


def test_stop_after_counts_beyond_buffer():
    # Below the materialization bound every coloring is kept.
    g = Graph.from_edges(7, [])
    assert all_colorings(g, None, 3).shape[0] == 3**7

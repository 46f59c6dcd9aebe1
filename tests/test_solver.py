"""Exact solver checked against the oracle and the staged-search contracts."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brutes import connected_graphs_upto
from maxec import (
    Graph,
    SolveStats,
    sigma_exact,
    sigma_threshold,
    solve_exact,
    verify_coloring,
)
from maxec.solver import _across, _assemble, _Cover, _enum_tau_masks, _top_leaves

K4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
C5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
STAR3 = Graph(4, [(0, 1), (0, 2), (0, 3)])
PATH5 = Graph(5, [(i, i + 1) for i in range(4)])


def _assert_agrees(g, k):
    res = solve_exact(g, k)
    want = sigma_threshold(g, k, edge_limit=None)
    assert res.yes == want, f"n={g.n} edges={g.edges} k={k}"
    if res.yes:
        check = verify_coloring(g, res.witness)
        assert check.valid
        if k >= 1:
            assert check.colors_used == k
    else:
        assert res.witness is None
    assert res.stats.top_branch_max_width <= 2
    assert res.stats.across_branch_max_width <= 10
    return res


class TestKnownInstances:
    def test_cycle_reaches_all_vertices(self):
        assert solve_exact(C5, 5).yes
        assert not solve_exact(C5, 6).yes

    def test_star_caps_at_two(self):
        assert solve_exact(STAR3, 2).yes
        assert not solve_exact(STAR3, 3).yes

    def test_complete_four(self):
        assert solve_exact(K4, 3).yes
        assert not solve_exact(K4, 4).yes

    def test_path_reaches_edge_count(self):
        assert solve_exact(PATH5, 4).yes
        assert not solve_exact(PATH5, 5).yes

    def test_trivial_counts(self):
        g = Graph(3, [(0, 1)])
        assert solve_exact(g, 0).yes
        assert solve_exact(g, 1).yes
        empty = Graph(3, [])
        assert solve_exact(empty, 0).yes
        assert not solve_exact(empty, 1).yes
        with pytest.raises(ValueError):
            solve_exact(g, -1)

    def test_more_colors_than_vertices(self):
        assert not solve_exact(Graph(2, [(0, 1)]), 3).yes


class TestOracleAgreement:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exhaustive_small(self, n):
        for g in connected_graphs_upto(n):
            if g.n != n:
                continue
            for k in range(n + 2):
                _assert_agrees(g, k)

    def test_exhaustive_six_vertices_sparse(self):
        for g in connected_graphs_upto(6):
            if g.n != 6 or g.m > 9:
                continue
            for k in range(8):
                _assert_agrees(g, k)

    def test_disconnected(self):
        g = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
        assert sigma_exact(g).sigma == 5
        for k in range(8):
            _assert_agrees(g, k)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_random_instances(self, data):
        n = data.draw(st.integers(1, 7), label="n")
        pairs = list(itertools.combinations(range(n), 2))
        m_cap = min(len(pairs), 10)
        edges = data.draw(
            st.lists(st.sampled_from(pairs), max_size=m_cap, unique=True)
            if pairs else st.just([]),
            label="edges",
        )
        g = Graph(n, edges)
        k = data.draw(st.integers(0, n + 1), label="k")
        _assert_agrees(g, k)


def _mask(colors):
    return sum(1 << c for c in colors)


def _cover(g, tau, k):
    """Static search tables for a palette map given as color sets."""
    return _Cover(g, tuple(sorted(tau)), {v: _mask(c) for v, c in tau.items()}, k)


def _palettes(g, cover, k):
    """Enumerated palette assignments as {vertex: frozenset of colors}."""
    order = tuple(sorted(cover))
    for masks in _enum_tau_masks(g, order, k):
        yield {
            v: frozenset(c for c in range(k) if m >> c & 1)
            for v, m in zip(order, masks)
        }


def _raw_assignments(order, k):
    opts = [frozenset(c)
            for r in (1, 2)
            for c in itertools.combinations(range(k), r)]
    for combo in itertools.product(opts, repeat=len(order)):
        yield dict(zip(order, combo))


def _sanity(g, order, k, tau):
    union = frozenset().union(*tau.values())
    if union != frozenset(range(k)):
        return False
    inside = set(order)
    return all(
        tau[u] & tau[v]
        for u, v in g.edges
        if u in inside and v in inside
    )


def _orbit_key(order, k, tau):
    best = None
    for perm in itertools.permutations(range(k)):
        key = tuple(tuple(sorted(perm[c] for c in tau[v])) for v in order)
        if best is None or key < best:
            best = key
    return best


class TestPaletteEnumeration:
    @pytest.mark.parametrize("edges,cover,k", [
        ([(0, 1), (1, 2)], (0, 1, 2), 2),
        ([(0, 1), (1, 2)], (0, 1, 2), 3),
        ([(0, 1), (1, 2), (0, 2)], (0, 1, 2), 3),
        ([(0, 1), (0, 2), (0, 3)], (0, 1), 2),
        ([(0, 1), (0, 2), (0, 3)], (0, 1), 3),
        ([(0, 1)], (0,), 2),
    ])
    def test_one_per_relabeling_orbit(self, edges, cover, k):
        n = 1 + max(max(e) for e in edges)
        g = Graph(n, edges)
        got = list(_palettes(g, cover, k))
        order = tuple(sorted(cover))
        keys = [_orbit_key(order, k, tau) for tau in got]
        assert len(keys) == len(set(keys)), "duplicate orbit emitted"
        want = {
            _orbit_key(order, k, tau)
            for tau in _raw_assignments(order, k)
            if _sanity(g, order, k, tau)
        }
        assert set(keys) == want

    def test_yields_sane_assignments(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        for tau in _palettes(g, (0, 1, 2), 3):
            assert all(1 <= len(s) <= 2 for s in tau.values())
            assert _sanity(g, (0, 1, 2), 3, tau)


class TestCheckTop:
    def test_forced_single_color(self):
        g = Graph(2, [(0, 1)])
        cov = _cover(g, {0: {0}, 1: {0, 1}}, 2)
        assert list(_top_leaves(cov, 0b01, SolveStats())) == [([0], 0b01)]

    def test_budget_must_be_consumed(self):
        g = Graph(2, [(0, 1)])
        cov = _cover(g, {0: {0, 1}, 1: {0, 1}}, 2)
        assert list(_top_leaves(cov, 0b11, SolveStats())) == []

    def test_unsupported_budget_color(self):
        g = Graph(2, [(0, 1)])
        cov = _cover(g, {0: {0}, 1: {0}}, 2)
        assert list(_top_leaves(cov, 0b10, SolveStats())) == []

    def test_branch_explores_both_fresh_orders(self):
        # path inside the cover: edges (0,1) and (1,2) share vertex 1
        g = Graph(3, [(0, 1), (1, 2)])
        cov = _cover(g, {0: {0, 1}, 1: {0, 1}, 2: {0, 1}}, 2)
        leaves = list(_top_leaves(cov, 0b11, SolveStats()))
        assert {tuple(assigned) for assigned, _ in leaves} == {(0, 1), (1, 0)}
        assert all(used == 0b11 for _, used in leaves)


def _across_colors(g, tau, k, remaining):
    """Per-edge colors showing every color in ``remaining`` on a cut edge,
    for a cover without inner edges, or None."""
    cov = _cover(g, tau, k)
    assert not cov.dead and not cov.s_edges
    commits = _across(cov, _mask(remaining), SolveStats())
    if commits is None:
        return None
    return _assemble(g, cov, ([], 0), commits)


class TestCheckAcross:
    def test_pendant_forced(self):
        g = Graph(2, [(0, 1)])
        assert _across_colors(g, {1: {2}}, 3, {2}) == [2]

    def test_unreachable_color(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert _across_colors(g, {0: {0, 1}, 2: {2, 3}}, 5, {4}) is None

    def test_nothing_remaining(self):
        g = Graph(3, [(0, 1), (1, 2)])
        colors = _across_colors(g, {0: {0, 1}, 2: {2, 3}}, 4, set())
        assert colors is not None
        assert len(colors) == g.m

    def test_matching_assigns_shared_color_vertices(self):
        # two crossing vertices, each must realize one of two leftovers
        g = Graph(6, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 5)])
        colors = _across_colors(g, {0: {0, 1}, 1: {0, 2}}, 3, {1, 2})
        assert colors is not None
        seen = set(colors)
        assert {1, 2} <= seen


class TestBranchDiscipline:
    def test_stats_populated_on_hard_no(self):
        res = solve_exact(STAR3, 3)
        assert not res.yes
        assert res.stats.palettes > 0

    def test_branch_widths_within_bounds(self):
        seen_across = 0
        for g in connected_graphs_upto(5):
            for k in range(3, g.n + 1):
                res = _assert_agrees(g, k)
                assert res.stats.top_branch_events == 0
                seen_across += res.stats.across_branch_events
        assert seen_across > 0

    def test_cover_branching_exercised(self):
        # sparse 7-vertex instances whose cover stage needs real branching
        cases = [
            Graph(7, [(0, 2), (0, 3), (0, 4), (1, 5), (2, 3), (2, 4), (3, 6)]),
            Graph(7, [(0, 2), (0, 4), (1, 6), (2, 3), (2, 4), (2, 5), (3, 4)]),
        ]
        seen = 0
        for g in cases:
            res = _assert_agrees(g, 5)
            seen += res.stats.top_branch_events
            assert res.stats.top_branch_max_width <= 2
        assert seen > 0

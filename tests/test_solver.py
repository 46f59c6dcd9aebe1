"""Exact solver checked against the oracle and the staged-search contracts."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brutes import (
    brute_min_cover,
    connected_graphs_upto,
    graphs_upto_seven,
    ref_coverable,
    ref_enum_tau_masks,
    ref_palette_feasible,
    ref_palette_search,
    ref_realizable,
)
from maxec import (
    EdgeColoring,
    Graph,
    SolveStats,
    sigma_exact,
    solve_exact,
    verify_coloring,
)
from maxec.generators import gen_random
from maxec.kernels import _twin_deletions
from maxec.matching import Continue, matching_preprocess, maximal_matching
from maxec.solver import _enum_tau_masks, _min_cover, _settle, _Tables

K4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
C5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
STAR3 = Graph(4, [(0, 1), (0, 2), (0, 3)])
PATH5 = Graph(5, [(i, i + 1) for i in range(4)])


def _assert_agrees(g, k):
    res = solve_exact(g, k)
    want = sigma_exact(g, edge_limit=None).sigma >= k
    assert res.yes == want, f"n={g.n} edges={g.edges} k={k}"
    if res.yes:
        check = verify_coloring(g, res.witness)
        assert check.valid
        if k >= 1:
            assert check.colors_used == k
    else:
        assert res.witness is None
    assert res.stats.across_branch_max_width <= 4
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


def _twin_heavy(seed):
    """A 5-vertex random core, two groups of 11-13 leaves, each on a core
    vertex the greedy matching covers, and on odd seeds 11 isolated
    vertices: each leaf class and the isolated class pass the twin rule's
    bound, and pendant folding keeps the oracle fast."""
    rng = random.Random(seed)
    core = gen_random(5, 0.5, seed)
    edges = list(core.edges)
    n = core.n
    for _ in range(2):
        hub = rng.randrange(core.n)
        for _ in range(rng.randint(11, 13)):
            edges.append((hub, n))
            n += 1
    return Graph(n + 11 * (seed % 2), edges)


class TestTwinTrim:
    def test_agrees_with_the_oracle_on_twin_heavy_graphs(self):
        trimmed = 0
        for seed in range(8):
            g = _twin_heavy(seed)
            sigma = sigma_exact(g, edge_limit=None).sigma
            for k in (sigma, sigma + 1):
                pre = matching_preprocess(g, k)
                if isinstance(pre, Continue) and _twin_deletions(g, pre.cover):
                    trimmed += 1
                _assert_agrees(g, k)
        assert trimmed >= 12


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


def _settle_colors(g, tau, k, stats=None):
    """``_settle`` on a palette map given as color sets: per-edge colors
    showing all k colors, or None."""
    order = tuple(sorted(tau))
    masks = tuple(_mask(tau[v]) for v in order)
    return _settle(g, _Tables(g, order), masks, k,
                   SolveStats() if stats is None else stats)


def _palettes(g, cover, k):
    """Enumerated palette assignments as {vertex: frozenset of colors}."""
    order = tuple(sorted(cover))
    for masks in _enum_tau_masks(_Tables(g, order), k):
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


def _live(g, order, k, tau):
    """No cut vertex is left without a candidate color set, and every cover
    vertex can show its whole palette."""
    masks = {v: _mask(tau[v]) for v in order}
    return (ref_coverable(g, order, masks, k)
            and ref_realizable(g, order, masks, k))


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
            if _sanity(g, order, k, tau) and _live(g, order, k, tau)
        }
        assert set(keys) == want

    def test_yields_sane_assignments(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        for tau in _palettes(g, (0, 1, 2), 3):
            assert all(1 <= len(s) <= 2 for s in tau.values())
            assert _sanity(g, (0, 1, 2), 3, tau)
            assert _live(g, (0, 1, 2), 3, tau)

    def test_witness_palettes_survive_the_closing_rule(self):
        # the exact palettes of an optimal coloring, taken from the oracle,
        # must be one of the yielded palettes up to relabeling colors
        checked = 0
        for g in connected_graphs_upto(5):
            res = sigma_exact(g, edge_limit=None)
            k = res.sigma
            if k < 1:
                continue
            label = {}
            colors = [label.setdefault(c, len(label)) for c in res.witness]
            order = _min_cover(g, _matching_cover(g))
            exact = {v: frozenset(colors[eid] for eid, _ in g.adj[v])
                     for v in order}
            keys = {_orbit_key(order, k, tau) for tau in _palettes(g, order, k)}
            assert _orbit_key(order, k, exact) in keys, f"edges={g.edges}"
            checked += 1
        assert checked > 25


class TestCheckTop:
    """Cover edges in ``_settle``: each shows exactly one allowed color, and
    the final matching chooses it."""

    def test_forced_single_color(self):
        # the cover edge allows only color 0; the pendant cut vertex 2 must
        # then show color 1
        g = Graph(3, [(0, 1), (1, 2)])
        assert _settle_colors(g, {0: {0}, 1: {0, 1}}, 2) == [0, 1]

    def test_one_edge_shows_one_color(self):
        g = Graph(2, [(0, 1)])
        assert _settle_colors(g, {0: {0, 1}, 1: {0, 1}}, 2) is None

    def test_unsupported_budget_color_fails_the_final_matching(self):
        # the edge allows only color 0, so nothing offers color 1: the one
        # final matching leaves it unmatched, with no branch before it
        g = Graph(2, [(0, 1)])
        stats = SolveStats()
        assert _settle_colors(g, {0: {0}, 1: {0}}, 2, stats) is None
        assert stats == SolveStats(x_guesses=1)

    def test_path_shows_both_colors(self):
        # path inside the cover: edges (0,1) and (1,2) share vertex 1
        g = Graph(3, [(0, 1), (1, 2)])
        colors = _settle_colors(g, {0: {0, 1}, 1: {0, 1}, 2: {0, 1}}, 2)
        assert sorted(colors) == [0, 1]


class TestCheckAcross:
    def test_pendant_forced(self):
        g = Graph(2, [(0, 1)])
        assert _settle_colors(g, {1: {0}}, 1) == [0]

    def test_unreachable_color(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert _settle_colors(g, {0: {0, 1}, 2: {2, 3}}, 5) is None

    def test_nothing_remaining(self):
        # the middle vertex has the single candidate {0, 1}, which shows
        # both colors before any branch
        g = Graph(3, [(0, 1), (1, 2)])
        stats = SolveStats()
        assert _settle_colors(g, {0: {0}, 2: {1}}, 2, stats) == [0, 1]
        assert stats.across_branch_events == 0

    def test_matching_assigns_shared_color_vertices(self):
        # two crossing vertices, each must realize one of two leftovers
        g = Graph(6, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 5)])
        colors = _settle_colors(g, {0: {0, 1}, 1: {0, 2}}, 3)
        assert colors is not None
        assert set(colors) == {0, 1, 2}
        # vertices 3 and 4 always show the shared color 0 and may add 1 or
        # 2 respectively; only the matching can give each its leftover
        g = Graph(5, [(0, 3), (1, 3), (0, 4), (2, 4)])
        stats = SolveStats()
        colors = _settle_colors(g, {0: {0}, 1: {0, 1}, 2: {0, 2}}, 3, stats)
        assert colors == [0, 1, 0, 2]
        assert (stats.across_branch_events, stats.x_guesses) == (0, 1)


def _reference_palettes():
    """Every palette of the reference enumeration without its realizability
    test, on every connected graph with up to 6 vertices, every k from 2 to
    n, over both the matched and the minimum cover (once when they agree),
    as (g, cover, k, tables, tau), with one ``_Tables`` per cover."""
    for g in connected_graphs_upto(6):
        matched = _matching_cover(g)
        for cover in dict.fromkeys((matched, _min_cover(g, matched))):
            tables = _Tables(g, cover)
            for k in range(2, g.n + 1):
                for tau in ref_enum_tau_masks(g, cover, k, realizable=False):
                    yield g, cover, k, tables, tau


class TestPaletteSearch:
    """``_settle`` decides each palette on its own: it must agree with a
    set-union brute force on every palette of the reference enumeration,
    and every witness it assembles must verify."""

    def test_agrees_with_set_union_reference(self):
        checked = 0
        for g, cover, k, tables, tau in _reference_palettes():
            colors = _settle(g, tables, tau, k, SolveStats())
            want = ref_palette_feasible(g, cover, dict(zip(cover, tau)), k)
            where = f"edges={g.edges} cover={cover} k={k} tau={tau}"
            assert (colors is not None) == want, where
            if colors is not None:
                check = verify_coloring(g, EdgeColoring(colors))
                assert check.valid, where
                assert check.colors_used == k, where
            checked += 1
        assert checked > 10000


class TestBranchDiscipline:
    def test_stats_populated_on_hard_no(self):
        # a NO whose enumeration still yields a palette (PINNED[8])
        res = solve_exact(gen_random(11, 0.3, 1), 7)
        assert not res.yes
        assert res.stats.palettes > 0
        assert res.stats.x_guesses >= res.stats.palettes

    def test_uncoverable_no_enumerates_nothing(self):
        # the center's palette holds at most two colors and every edge
        # meets it, so no palette can show three colors
        res = solve_exact(STAR3, 3)
        assert not res.yes
        assert res.stats.palettes == 0

    def test_branch_widths_within_bounds(self):
        seen_across = 0
        for g in connected_graphs_upto(5):
            for k in range(3, g.n + 1):
                res = _assert_agrees(g, k)
                assert res.stats.top_branch_events == 0
                seen_across += res.stats.across_branch_events
        assert seen_across > 0

    def test_matched_cover_search_agrees(self):
        # sparse 7-vertex instances with many edges inside the matched
        # cover, searched over that cover instead of solve_exact's minimum
        # one: the verdict must not depend on the cover
        cases = [
            Graph(7, [(0, 2), (0, 3), (0, 4), (1, 5), (2, 3), (2, 4), (3, 6)]),
            Graph(7, [(0, 2), (0, 4), (1, 6), (2, 3), (2, 4), (2, 5), (3, 4)]),
        ]
        for g in cases:
            res = _assert_agrees(g, 5)
            colors, _ = ref_palette_search(g, _matching_cover(g), 5)
            assert (colors is not None) == res.yes
            if colors is not None:
                check = verify_coloring(g, EdgeColoring(colors))
                assert check.valid and check.colors_used == 5


def _matching_cover(g):
    return tuple(sorted(maximal_matching(g).saturated))


def _is_cover(g, cover):
    inside = set(cover)
    return all(u in inside or v in inside for u, v in g.edges)


class TestMinCover:
    def test_minimum_on_every_small_graph(self):
        for g in graphs_upto_seven():
            got = _min_cover(g, _matching_cover(g))
            assert list(got) == sorted(set(got)), f"edges={g.edges}"
            assert _is_cover(g, got), f"edges={g.edges}"
            assert len(got) == brute_min_cover(g), f"edges={g.edges}"

    def test_never_larger_than_the_matched_cover(self):
        checked = 0
        for (n, p), seed in itertools.product(
                ((50, 0.06), (60, 0.05), (80, 0.04)), range(4)):
            g = gen_random(n, p, seed)
            matched = _matching_cover(g)
            if not 40 <= len(matched) <= 66:
                continue
            got = _min_cover(g, matched)
            assert list(got) == sorted(set(got))
            assert _is_cover(g, got)
            assert len(got) <= len(matched)
            checked += 1
        assert checked >= 8


class TestMemoizedSearch:
    """The memoized palette search against loop references kept in
    ``brutes``: the verdict, the witness and every counter depend on the
    enumeration order, so it must be identical, and a palette must settle
    the same on the tables the enumeration filled as on fresh ones."""

    def test_palette_order_matches_reference(self):
        checked = 0
        for g in connected_graphs_upto(6):
            cover = _matching_cover(g)
            for k in range(2, g.n + 1):
                pre = matching_preprocess(g, k)
                if isinstance(pre, Continue):
                    assert pre.cover == cover
                tables = _Tables(g, cover)
                got = list(_enum_tau_masks(tables, k))
                want = list(ref_enum_tau_masks(g, cover, k))
                assert got == want, f"edges={g.edges} k={k}"
                checked += len(got)
        assert checked > 1000

    def test_shared_memo_settles_like_a_fresh_one(self):
        sampled = 0
        for g in connected_graphs_upto(6):
            cover = _matching_cover(g)
            for k in range(2, g.n + 1):
                tables = _Tables(g, cover)
                for i, tau in enumerate(_enum_tau_masks(tables, k)):
                    if i % 3:
                        continue
                    shared, fresh = SolveStats(), SolveStats()
                    got = _settle(g, tables, tau, k, shared)
                    want = _settle(g, _Tables(g, cover), tau, k, fresh)
                    where = f"edges={g.edges} k={k} tau={tau}"
                    assert got == want, where
                    assert shared == fresh, where
                    sampled += 1
        assert sampled > 300

    def test_enumeration_never_yields_a_dead_palette(self):
        # _settle assumes every cut vertex has a candidate and relies on
        # every color having somewhere to show; the reference checks each
        # yielded palette for both, over the matched and the minimum cover,
        # on every small graph and on seeded 7-vertex draws
        draws = (gen_random(7, 0.25, seed) for seed in range(60))
        checked = 0
        for g in itertools.chain(connected_graphs_upto(6), (
                g for g in draws if g.m and len(maximal_matching(g)) <= 3)):
            matched = _matching_cover(g)
            for cover in dict.fromkeys((matched, _min_cover(g, matched))):
                tables = _Tables(g, cover)
                for k in range(2, g.n + 1):
                    for tau in _enum_tau_masks(tables, k):
                        masks = dict(zip(cover, tau))
                        where = f"edges={g.edges} cover={cover} k={k} tau={tau}"
                        assert ref_coverable(g, cover, masks, k), where
                        checked += 1
        assert checked > 1000


def _differential_check(g):
    """solve_exact against the loop reference enumeration fed to the same
    per-palette search, at every k the palette search decides."""
    searched = 0
    for k in range(2, g.n):
        pre = matching_preprocess(g, k)
        if not isinstance(pre, Continue):
            continue
        res = solve_exact(g, k)
        colors, ref = ref_palette_search(g, _min_cover(g, pre.cover), k)
        where = f"n={g.n} edges={g.edges} k={k}"
        assert res.yes == (colors is not None), where
        assert (None if res.witness is None else list(res.witness)) == colors, where
        got = res.stats
        assert (got.top_branch_events, got.across_branch_events,
                got.across_branch_max_width) == (
            ref.top_branch_events, ref.across_branch_events,
            ref.across_branch_max_width), where
        assert got.palettes == ref.palettes, where
        assert got.x_guesses == ref.x_guesses, where
        searched += 1
    return searched


class TestPrunedSearch:
    """The memoized search, with its dead-prefix and color-count cuts,
    walks the reference's palettes in the reference's order, so the
    verdict, the witness and every counter equal those of the loop
    reference."""

    def test_small_graphs(self):
        searched = sum(_differential_check(g) for g in connected_graphs_upto(6))
        assert searched > 100

    @pytest.mark.parametrize("n", [7, 8, 9, 10, 11])
    def test_seeded_draws(self, n):
        searched = drawn = 0
        for seed in itertools.count():
            g = gen_random(n, 0.25, seed)
            if g.m and len(maximal_matching(g)) <= 3:
                searched += _differential_check(g)
                drawn += 1
                if drawn == 6:
                    break
        assert searched > 0


# seeded draws whose greedy matching has size 3 (a 6-vertex matched cover;
# the search runs on a minimum cover of 3 to 6 vertices), with SolveStats
# fields and witness colors. The enumeration's closing rule leaves three
# of the NO questions without a single palette
PINNED = [
    ((9, 0.2, 1), 5, (1, 1, 0, 1, 2), [0, 0, 1, 0, 0, 2, 3, 4]),
    ((9, 0.2, 1), 6, (0, 0, 0, 0, 0), None),
    ((9, 0.2, 28), 5, (1, 1, 0, 0, 0),
     [0, 1, 0, 0, 0, 0, 0, 2, 4, 3, 0, 0]),
    ((9, 0.25, 10), 5, (1, 1, 0, 1, 2), [0, 1, 0, 2, 3, 0, 4, 0]),
    ((10, 0.2, 6), 5, (0, 0, 0, 0, 0), None),
    ((10, 0.25, 36), 6, (1, 1, 0, 1, 4), [0, 1, 2, 3, 4, 0, 5, 0]),
    ((10, 0.25, 36), 7, (0, 0, 0, 0, 0), None),
    ((11, 0.25, 3), 7, (1, 1, 0, 3, 2),
     [0, 0, 1, 0, 2, 3, 4, 5, 6, 5]),
    ((11, 0.3, 1), 7, (1, 1, 0, 0, 0), None),
]


def _pinned_check(draw, k, counters, witness):
    g = gen_random(*draw)
    assert len(maximal_matching(g)) == 3
    res = solve_exact(g, k)
    s = res.stats
    assert (s.palettes, s.x_guesses, s.top_branch_events,
            s.across_branch_events, s.across_branch_max_width) == counters
    assert res.yes == (witness is not None)
    assert (None if res.witness is None else list(res.witness)) == witness


class TestPinnedCounters:
    @pytest.mark.parametrize("draw,k,counters,witness", PINNED)
    def test_counters_and_witness(self, draw, k, counters, witness):
        _pinned_check(draw, k, counters, witness)

    def test_no_state_shared_between_solves(self):
        # a NO solve then a YES solve on another graph in one process: the
        # second must not see tables or candidates of the first
        for case in (PINNED[4], PINNED[7], PINNED[0], PINNED[4]):
            _pinned_check(*case)

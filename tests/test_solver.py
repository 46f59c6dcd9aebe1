"""Exact solver checked against the oracle and the staged-search contracts."""

import itertools
import random
from dataclasses import astuple

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
    stalled_decide,
)
from maxec import (
    EdgeColoring,
    Graph,
    SolveStats,
    sigma_exact,
    solve_exact,
    solver,
    verify_coloring,
)
from maxec.generators import gen_random
from maxec.kernels import _compact, _twin_deletions, lift_coloring
from maxec.matching import Continue, matching_preprocess, maximal_matching
from maxec.oracle import decide
from maxec.solver import (
    _FIRST_SLICE,
    _cover_order,
    _enum_tau_masks,
    _min_cover,
    _race,
    _settle,
    _Tables,
)

K4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
C5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
STAR3 = Graph(4, [(0, 1), (0, 2), (0, 3)])
PATH5 = Graph(5, [(i, i + 1) for i in range(4)])


@pytest.fixture
def stalled(monkeypatch):
    """``solve_exact`` with the oracle's decider stalled, so the palette
    search answers every question that reaches the race."""
    monkeypatch.setattr(solver, "decide", stalled_decide)


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
    vertices: each leaf class passes the twin rule's bound of 2, the
    solver keeps the isolated vertices, and pendant folding keeps the
    oracle fast."""
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
                # solve_exact applies only the deletions with a twin
                if isinstance(pre, Continue) and any(
                        twin is not None
                        for _, _, twin in _twin_deletions(g, pre.cover)):
                    trimmed += 1
                _assert_agrees(g, k)
        assert trimmed == 16


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


def _enumerated(tables, k):
    """The palettes the enumeration hands to ``settle``, in order; without
    a node budget it never pauses."""
    got = []
    assert list(_enum_tau_masks(tables, k, got.append)) == []
    return got


def _palettes(g, order, k):
    """Enumerated palette assignments as {vertex: frozenset of colors}, with
    the cover placed in ``order``."""
    for masks in _enumerated(_Tables(g, order), k):
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
        # must be one of the yielded palettes up to relabeling colors, with
        # the cover ascending and in the solver's order; this covers the
        # closing rule and the cap on new colors per position
        checked = 0
        for g in connected_graphs_upto(6):
            res = sigma_exact(g, edge_limit=None)
            k = res.sigma
            if k < 1:
                continue
            label = {}
            colors = [label.setdefault(c, len(label)) for c in res.witness]
            cover = _min_cover(g, _matching_cover(g))
            for order in dict.fromkeys((cover, _cover_order(g, cover))):
                exact = {v: frozenset(colors[eid] for eid, _ in g.adj[v])
                         for v in order}
                keys = {_orbit_key(order, k, tau)
                        for tau in _palettes(g, order, k)}
                where = f"edges={g.edges} order={order}"
                assert _orbit_key(order, k, exact) in keys, where
                checked += 1
        assert checked > 100

    def test_new_color_cap(self):
        # the middle of a path has two cut neighbors
        tables = _Tables(Graph(3, [(0, 1), (1, 2)]), (1,))
        assert (tables.cap, tables.after) == ([2], [0])
        # in a triangle the last position meets only earlier ones
        tables = _Tables(Graph(3, [(0, 1), (1, 2), (0, 2)]), (0, 1, 2))
        assert (tables.cap, tables.after) == ([2, 1, 0], [1, 0, 0])
        # one later cover neighbor and one cut neighbor; the hub has three
        # cut neighbors, but its palette must meet that of its earlier
        # cover neighbor, which holds only colors already in, so it
        # introduces at most one new color
        g = Graph(6, [(0, 1), (1, 2), (0, 3), (0, 4), (0, 5)])
        tables = _Tables(g, (1, 0))
        assert (tables.cap, tables.after) == ([2, 1], [1, 0])


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

    def test_two_color_witness_takes_the_second_b_witness(self):
        # cut vertex 4 shows {1, 2} next to palettes {1, 2} (vertex 2) and
        # {2} (vertex 3): its only 1-witness is also its first 2-witness,
        # so edge (2, 4) must take 1 and edge (3, 4) takes 2
        g = Graph(6, [(0, 1), (0, 5), (1, 5), (2, 3), (2, 4), (3, 4)])
        tables = _Tables(g, (0, 1, 2, 3))
        tau = (1, 3, 6, 4)
        assert tau in _enumerated(tables, 3)
        colors = _settle(g, tables, tau, 3, SolveStats())
        assert colors == [0, 0, 0, 2, 1, 2]
        check = verify_coloring(g, EdgeColoring(colors))
        assert check.valid and check.colors_used == 3


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
    """Counters of the palette search alone (the ``stalled`` fixture): in
    a race the oracle may answer before the search has run."""

    def test_stats_populated_on_hard_no(self, stalled):
        # a NO whose enumeration still hands out a palette (PINNED[8])
        res = solve_exact(gen_random(11, 0.3, 1), 7)
        assert not res.yes
        assert res.stats.palettes > 0
        assert res.stats.x_guesses >= res.stats.palettes

    def test_uncoverable_no_enumerates_nothing(self, stalled):
        # the center's palette holds at most two colors and every edge
        # meets it, so no palette can show three colors
        res = solve_exact(STAR3, 3)
        assert not res.yes
        assert res.stats.palettes == 0

    def test_branch_widths_within_bounds(self, stalled):
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
                got = _enumerated(tables, k)
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
                seen = []

                # settles every third palette while the enumeration is
                # still filling the memo, as the palette search does
                def compare(tau):
                    nonlocal sampled
                    seen.append(tau)
                    if (len(seen) - 1) % 3:
                        return None
                    shared, fresh = SolveStats(), SolveStats()
                    got = _settle(g, tables, tau, k, shared)
                    want = _settle(g, _Tables(g, cover), tau, k, fresh)
                    where = f"edges={g.edges} k={k} tau={tau}"
                    assert got == want, where
                    assert shared == fresh, where
                    sampled += 1
                    return None

                assert list(_enum_tau_masks(tables, k, compare)) == []
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
                    for tau in _enumerated(tables, k):
                        masks = dict(zip(cover, tau))
                        where = f"edges={g.edges} cover={cover} k={k} tau={tau}"
                        assert ref_coverable(g, cover, masks, k), where
                        checked += 1
        assert checked > 1000


def _differential_check(g):
    """``solve_exact`` with the decider stalled against the loop reference
    enumeration fed to the same per-palette search, at every k the palette
    search decides. Where the
    twin trim fires, the reference searches the trimmed graph and its
    witness is lifted back; a trimmed question that the trimmed graph's
    counts settle (k >= n' or m' < k) gets zero counters and the oracle's
    verdict. Returns the questions checked and how many were trimmed."""
    checked = trimmed = 0
    for k in range(2, g.n):
        pre = matching_preprocess(g, k)
        if not isinstance(pre, Continue):
            continue
        res = solve_exact(g, k)
        where = f"n={g.n} edges={g.edges} k={k}"
        checked += 1
        h = g
        if actions := [a for a in _twin_deletions(g, pre.cover)
                       if a[2] is not None]:
            trimmed += 1
            kern = _compact(g, k, actions)
            h = kern.verdict.graph
            if k >= h.n or h.m < k:
                assert astuple(res.stats) == astuple(SolveStats()), where
                want = sigma_exact(g, edge_limit=None).sigma >= k
                assert res.yes == want, where
                continue
        order = _cover_order(h, _min_cover(h, matching_preprocess(h, k).cover))
        colors, ref = ref_palette_search(h, order, k)
        if colors is not None and h is not g:
            lifted = lift_coloring(g, h, kern.lifting, EdgeColoring(colors))
            colors = list(lifted)
        assert res.yes == (colors is not None), where
        assert (None if res.witness is None else list(res.witness)) == colors, where
        assert astuple(res.stats) == astuple(ref), where
    return checked, trimmed


@pytest.mark.usefixtures("stalled")
class TestPrunedSearch:
    """The memoized search, with its dead-prefix and color-count cuts,
    walks the reference's palettes in the reference's order, so the
    verdict, the witness and every counter equal those of the loop
    reference, on the trimmed graph where the twin trim fires."""

    def test_small_graphs(self):
        checked = trimmed = 0
        for g in connected_graphs_upto(6):
            got = _differential_check(g)
            checked += got[0]
            trimmed += got[1]
        assert checked > 100 and trimmed > 0

    @pytest.mark.parametrize("n", [7, 8, 9, 10, 11])
    def test_seeded_draws(self, n):
        searched = drawn = 0
        for seed in itertools.count():
            g = gen_random(n, 0.25, seed)
            if g.m and len(maximal_matching(g)) <= 3:
                searched += _differential_check(g)[0]
                drawn += 1
                if drawn == 6:
                    break
        assert searched > 0


# seeded draws whose greedy matching has size 3 (a 6-vertex matched cover;
# the search runs on a minimum cover of 3 to 6 vertices, in _cover_order),
# with the SolveStats fields and witness colors of the palette search
# alone. The enumeration's closing rule leaves three of the NO questions
# without a single palette
PINNED = [
    ((9, 0.2, 1), 5, (1, 1, 0, 1, 2), [0, 0, 1, 0, 0, 2, 4, 3]),
    ((9, 0.2, 1), 6, (0, 0, 0, 0, 0), None),
    ((9, 0.2, 28), 5, (1, 1, 0, 0, 0),
     [0, 2, 0, 0, 0, 0, 0, 1, 4, 3, 0, 0]),
    ((9, 0.25, 10), 5, (1, 1, 0, 1, 2), [0, 2, 0, 3, 4, 0, 1, 0]),
    ((10, 0.2, 6), 5, (0, 0, 0, 0, 0), None),
    ((10, 0.25, 36), 6, (1, 1, 0, 1, 4), [0, 2, 5, 3, 4, 0, 1, 0]),
    ((10, 0.25, 36), 7, (0, 0, 0, 0, 0), None),
    ((11, 0.25, 3), 7, (1, 1, 0, 3, 2),
     [0, 0, 1, 0, 4, 5, 6, 2, 3, 2]),
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


@pytest.mark.usefixtures("stalled")
class TestPinnedCounters:
    @pytest.mark.parametrize("draw,k,counters,witness", PINNED)
    def test_counters_and_witness(self, draw, k, counters, witness):
        _pinned_check(draw, k, counters, witness)

    def test_no_state_shared_between_solves(self):
        # a NO solve then a YES solve on another graph in one process: the
        # second must not see tables or candidates of the first
        for case in (PINNED[4], PINNED[7], PINNED[0], PINNED[4]):
            _pinned_check(*case)


# the slowest questions of earlier versions (over 40 s together), each a
# YES at sigma and a NO at sigma + 1: sigma from sigma_exact(edge_limit=None);
# the counters are those of the palette search alone
HEAVY = [
    ((20, 0.12, 264274), 12, (2, 3, 0, 2, 2), True),
    ((20, 0.12, 264274), 13, (0, 0, 0, 0, 0), False),
    ((21, 0.15, 131613), 13, (1, 3, 0, 2, 3), True),
    ((21, 0.15, 131613), 14, (0, 0, 0, 0, 0), False),
    ((40, 0.06, 8), 18, (1, 1, 0, 3, 2), True),
    ((40, 0.06, 8), 19, (0, 0, 0, 0, 0), False),
]


@pytest.mark.usefixtures("stalled")
class TestHeavyTail:
    """Draws with 10-14-vertex minimum covers that the cap on new colors
    and the cover order answer after a handful of palettes."""

    @pytest.mark.parametrize("draw,k,counters,yes", HEAVY)
    def test_counters_and_verdict(self, draw, k, counters, yes):
        res = solve_exact(gen_random(*draw), k)
        assert astuple(res.stats) == counters
        assert res.yes == yes


def _fake_engine(log, name, need):
    """An engine of ``_race`` that finishes after ``need`` nodes, logging
    each budget it is sent."""
    left = yield
    while need > left:
        log.append((name, left))
        need -= left
        left = yield
    log.append((name, left))
    return f"{name} done"


class TestRace:
    """``solve_exact`` races the oracle's decider against the palette
    search in node-budgeted slices, the oracle first."""

    def test_slices_alternate_and_double(self):
        f = _FIRST_SLICE
        runs = []
        for _ in range(2):
            log = []
            got = _race({"a": _fake_engine(log, "a", 100 * f),
                         "b": _fake_engine(log, "b", 3 * f)})
            runs.append((got, log))
        # b needs 3f nodes: 2f in its first slice, the rest in its second
        assert runs[0] == (("b", "b done"),
                           [("a", f), ("b", 2 * f), ("a", 4 * f), ("b", 8 * f)])
        assert runs[1] == runs[0]

    def test_first_engine_to_finish_wins(self):
        f = _FIRST_SLICE
        log = []
        # a finishes in its second slice, before b's second
        got = _race({"a": _fake_engine(log, "a", 5 * f),
                     "b": _fake_engine(log, "b", 3 * f)})
        assert got == ("a", "a done")
        assert log == [("a", f), ("b", 2 * f), ("a", 4 * f)]
        log = []
        # one engine alone still runs on doubling slices
        got = _race({"a": _fake_engine(log, "a", 6 * f)})
        assert got == ("a", "a done")
        assert log == [("a", f), ("a", 2 * f), ("a", 4 * f)]

    def test_budgeted_enumeration_hands_out_the_same_palettes(self):
        # one-node slices pause the enumeration at every node; resumed, it
        # hands out the unbudgeted enumeration's palettes in the same order
        g = gen_random(11, 0.3, 1)
        order = _cover_order(g, _min_cover(g, matching_preprocess(g, 6).cover))
        want = _enumerated(_Tables(g, order), 6)
        got = []
        run = _enum_tau_masks(_Tables(g, order), 6, got.append, 1)
        pauses = 0
        with pytest.raises(StopIteration) as stop:
            next(run)
            while True:
                pauses += 1
                run.send(1)
        assert stop.value.value is None
        assert got == want and len(want) > 1
        assert pauses > len(want)

    def test_enumeration_returns_the_first_settled_palette(self):
        # the first result of settle that is not None ends the enumeration
        g = gen_random(11, 0.3, 1)
        order = _cover_order(g, _min_cover(g, matching_preprocess(g, 6).cover))
        every = _enumerated(_Tables(g, order), 6)
        seen = []

        def settle(tau):
            seen.append(tau)
            return "found" if tau == every[1] else None

        with pytest.raises(StopIteration) as stop:
            next(_enum_tau_masks(_Tables(g, order), 6, settle))
        assert stop.value.value == "found"
        assert seen == every[:2] and len(every) > 2

    def test_stalled_decider_leaves_the_race_to_the_palette_search(
            self, stalled):
        # the oracle answers this question in its first slice (see above)
        res = solve_exact(gen_random(20, 0.12, 264274), 12)
        assert res.yes and res.engine == "palettes"

    def test_each_engine_answers_some_question(self):
        # sigma is 10; the oracle's NO at 11 takes about 50,000 nodes, far
        # past the slices in which the palette search finishes
        yes = solve_exact(gen_random(20, 0.12, 761111), 10)
        assert yes.yes and yes.engine == "oracle"
        no = solve_exact(gen_random(20, 0.12, 761111), 11)
        assert not no.yes and no.engine == "palettes"
        # counting and preprocessing answer without an engine
        assert solve_exact(C5, 6).engine is None
        assert solve_exact(C5, 2).engine is None

    def test_oracle_witness_is_cut_to_exactly_k_colors(self, monkeypatch):
        # a 5-cycle at k = 4: the decider's first coloring beating 3
        # classes gives every edge its own class
        g = Graph(5, [(0, 3), (0, 4), (1, 2), (1, 4), (2, 3)])
        _, colors = _race({"oracle": decide(g, 4)})
        assert len(set(colors)) == 5

        # the oracle answers in its first slice, so the palette search
        # never builds its tables
        def untouched(*args):
            raise AssertionError("palette tables built")

        monkeypatch.setattr("maxec.solver._min_cover", untouched)
        res = solve_exact(g, 4)
        assert res.yes and res.engine == "oracle"
        check = verify_coloring(g, res.witness)
        assert check.valid and check.colors_used == 4

    def test_oracle_settles_what_the_palette_search_cannot(self):
        # the enumeration alone ran past 60 s here; the oracle's NO takes
        # about a second
        res = solve_exact(gen_random(28, 0.1, 3), 17)
        assert not res.yes and res.engine == "oracle"

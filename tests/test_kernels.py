"""Kernel rules validated against the oracle, plus lifting round trips."""

import itertools
import random

import pytest

from brutes import graphs, graphs_upto_seven, ref_has_c4, ref_kernelize_dual
from maxec import (
    EdgeColoring,
    ForcedNo,
    ForcedYes,
    Graph,
    gen_two_factor,
    matching_coloring,
    sigma_exact,
    solve_exact,
    verify_coloring,
)
from maxec.kernels import (
    FourCycleError,
    Reduced,
    _twin_deletions,
    has_c4,
    kernelize_c4free,
    kernelize_dual,
    kernelize_standard,
    lift_coloring,
    neighborhood_classes,
)
from maxec.matching import Continue, matching_preprocess, maximal_matching
from maxec.solver import _min_cover

P3 = Graph(3, [(0, 1), (1, 2)])
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
P5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
C3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
C5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])


def _random_graph(rng, n_max=8, m_max=12):
    n = rng.randint(2, n_max)
    pairs = list(itertools.combinations(range(n), 2))
    m = rng.randint(0, min(m_max, len(pairs)))
    return Graph(n, rng.sample(pairs, m))


class TestNeighborhoodClasses:
    def test_partition_and_grouping(self):
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (0, 4), (1, 4)])
        classes = neighborhood_classes(g, (0, 1))
        as_dict = {c.T: c.members for c in classes}
        assert as_dict == {(0,): (3,), (0, 1): (2, 4), (): (5,)}

    def test_rejects_non_cover(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            neighborhood_classes(g, (0,))

    def test_twin_deletions_match_the_classes(self):
        # the trim groups the vertices outside the cover in one pass and
        # never sorts the classes; it must emit what a walk over the sorted
        # classes emits, under the matching cover and under a larger one
        def by_class(g, cover):
            actions = []
            for cls in neighborhood_classes(g, cover):
                twin = cls.members[0] if cls.T else None
                actions += [("del", v, twin) for v in cls.members[_twin_bound(len(cls.T)):]]
            return sorted(actions, key=lambda a: a[1])

        trimmed = 0
        for g in graphs_upto_seven():
            matching = maximal_matching(g)
            cover = tuple(sorted(matching.saturated))
            pre = matching_preprocess(g, len(matching) + 2)
            if isinstance(pre, Continue):
                assert pre.cover == cover
            covers = [cover]
            if len(cover) < g.n:
                extra = min(set(range(g.n)) - set(cover))
                covers.append(tuple(sorted(cover + (extra,))))
            for c in covers:
                got = _twin_deletions(g, c)
                assert got == by_class(g, c), (g.edges, c)
                trimmed += any(twin is not None for _, _, twin in got)
            if matching.edge_ids:
                u, v = g.edges[matching.edge_ids[0]]
                broken = tuple(w for w in cover if w not in (u, v))
                with pytest.raises(ValueError):
                    _twin_deletions(g, broken)
                with pytest.raises(ValueError):
                    neighborhood_classes(g, broken)
        assert trimmed > 0


class TestStandardKernel:
    def test_big_star_truncates(self):
        g = Graph(31, [(0, i) for i in range(1, 31)])
        res = kernelize_standard(g, 4)
        assert isinstance(res.verdict, Reduced)
        reduced = res.verdict.graph
        # the matched cover is {0, 1}, and the 29 other leaves keep two
        assert reduced.n == 4 and reduced.m == 3
        assert res.verdict.k == 4
        assert len(res.lifting.actions) == 27
        lines = res.lifting.sidecar(g.n).splitlines()
        assert lines[0] == "p lift 31 4" and len(lines) == 1 + 4 + 27
        assert all(line.startswith("del ") for line in lines[5:])
        # the answer is unchanged: a star never reaches 4 colors
        assert sigma_exact(reduced).sigma == 2
        assert sigma_exact(reduced).sigma < 4
        assert not solve_exact(g, 4).yes

    def test_forced_yes_passthrough(self):
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        res = kernelize_standard(g, 3)
        assert isinstance(res.verdict, ForcedYes)
        assert res.lifting is None
        check = verify_coloring(g, res.verdict.witness)
        assert check.valid and check.colors_used == 3

    def test_forced_no_passthrough(self):
        res = kernelize_standard(Graph(3, [(0, 1)]), 2)
        assert isinstance(res.verdict, ForcedNo)

    def test_small_instance_unchanged(self):
        res = kernelize_standard(P5, 4)
        assert isinstance(res.verdict, Reduced)
        assert res.verdict.graph == P5
        assert res.lifting.actions == ()
        assert res.lifting.vertex_map == (0, 1, 2, 3, 4)

    def test_rejects_tiny_target(self):
        with pytest.raises(ValueError):
            kernelize_standard(P5, 1)

    def test_lifting_round_trip(self):
        g = Graph(31, [(0, i) for i in range(1, 31)])
        res = kernelize_standard(g, 4)
        reduced = res.verdict.graph
        witness = sigma_exact(reduced).witness
        lifted = lift_coloring(g, reduced, res.lifting, witness)
        check = verify_coloring(g, lifted)
        assert check.valid and check.colors_used == witness.k

    def test_equivalence_and_class_bounds_random(self):
        rng = random.Random(20260816)
        seen_reduced = 0
        for _ in range(40):
            g = _random_graph(rng)
            for k in (3, 4):
                res = kernelize_standard(g, k)
                want = sigma_exact(g, edge_limit=None).sigma >= k
                if isinstance(res.verdict, ForcedYes):
                    assert want
                elif isinstance(res.verdict, ForcedNo):
                    assert not want
                else:
                    seen_reduced += 1
                    reduced = res.verdict.graph
                    assert (sigma_exact(reduced, edge_limit=None).sigma >= k) == want
                    pre = matching_preprocess(g, k)
                    assert isinstance(pre, Continue)
                    inv = {orig: i for i, orig in enumerate(res.lifting.vertex_map)}
                    mapped = tuple(inv[v] for v in pre.cover)
                    for cls in neighborhood_classes(reduced, mapped):
                        assert len(cls.members) <= _twin_bound(len(cls.T))
        assert seen_reduced > 0


def _cut_classes(g, cover, bound):
    """g without the members beyond ``bound(|T|)`` of each neighborhood
    class I_T outside ``cover``, and how many went."""
    doomed = []
    for cls in neighborhood_classes(g, cover):
        doomed += cls.members[bound(len(cls.T)):]
    return g.without_vertices(doomed)[0], len(doomed)


def _twin_bound(size):
    return max(2, size) if size else 0


def _twin_hub_graph(rng):
    """2-3 hubs, each hub pair joined at random, and two twin classes on
    distinct hub sets, each one or two members past the class bound, plus
    up to 2 isolated vertices, relabeled at random."""
    hubs = rng.randint(2, 3)
    edges = [e for e in itertools.combinations(range(hubs), 2)
             if rng.random() < 0.5]
    n = hubs
    sets = [t for size in range(1, hubs + 1)
            for t in itertools.combinations(range(hubs), size)]
    for t in rng.sample(sets, 2):
        for _ in range(_twin_bound(len(t)) + rng.randint(1, 2)):
            edges += [(hub, n) for hub in t]
            n += 1
    n += rng.randint(0, 2)
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[a], label[b]) for a, b in edges])


class TestTwinBound:
    """Cutting every class I_T to max(2, |T|) members, none when T is
    empty, keeps sigma, over the matched cover and a minimum one."""

    def test_cut_keeps_sigma(self):
        small = [g for n in range(7) for g in graphs(n)]
        hubs = (_twin_hub_graph(random.Random(seed)) for seed in itertools.count())
        # hub draws with up to 16 edges keep the oracle fast
        hubs = itertools.islice((g for g in hubs if g.m <= 16), 300)
        cut = 0
        for g in itertools.chain(small, hubs):
            matched = tuple(sorted(maximal_matching(g).saturated))
            sigma = None
            for cover in dict.fromkeys((matched, _min_cover(g, matched))):
                h, gone = _cut_classes(g, cover, _twin_bound)
                if gone:
                    cut += 1
                    if sigma is None:
                        sigma = sigma_exact(g, edge_limit=None).sigma
                    assert sigma_exact(h, edge_limit=None).sigma == sigma, \
                        (g.edges, cover)
        assert cut > 500

    def test_one_twin_fewer_loses_a_color(self):
        # K_{1,3} cut at its center (|T| = 1), and a triangle with three
        # twins joined to all of it (|T| = 3)
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        twins = Graph(6, [(0, 1), (0, 2), (1, 2)]
                      + [(t, v) for t in range(3) for v in (3, 4, 5)])
        for g, cover, kept in ((star, (0,), 2), (twins, (0, 1, 2), 3)):
            sigma = sigma_exact(g).sigma
            h, _ = _cut_classes(g, cover, _twin_bound)
            assert h.n == len(cover) + kept
            assert sigma_exact(h).sigma == sigma
            h, _ = _cut_classes(g, cover, lambda size: _twin_bound(size) - 1)
            assert h.n == len(cover) + kept - 1
            assert sigma_exact(h).sigma == sigma - 1
        assert sigma_exact(twins).sigma == 4


class TestDualKernel:
    def test_path_contracts_to_three_vertices(self):
        res = kernelize_dual(P5, 1)
        assert isinstance(res.verdict, Reduced)
        assert res.verdict.graph == Graph(3, [(0, 1), (1, 2)])
        assert res.lifting.vertex_map == (0, 1, 4)
        assert res.lifting.sidecar(P5.n) == (
            "p lift 5 3\n"
            "m 1 1\nm 2 2\nm 3 5\n"
            "contract 3 into 2 via 4\n"
            "contract 4 into 2 via 5\n"
        )

    def test_single_step_shortens_path_by_one(self):
        # P4 takes exactly the first of P5's two steps
        res = kernelize_dual(P4, P4.n)
        assert res.verdict.graph == P3
        assert res.lifting.vertex_map == (0, 1, 3)
        assert res.lifting.actions == (("contract", 2, 1, 3),)

    def test_no_pair_on_short_path(self):
        res = kernelize_dual(P3, P3.n)
        assert res.verdict.graph == P3
        assert res.lifting.actions == ()

    def test_triangle_is_a_fixpoint(self):
        for k in (0, 1, 2):
            res = kernelize_dual(C3, k)
            assert isinstance(res.verdict, Reduced)
            assert res.verdict.graph == C3
            assert res.lifting.actions == ()

    def test_high_degree_forces_no(self):
        g = Graph(11, [(0, i) for i in range(1, 11)])
        assert isinstance(kernelize_dual(g, 1).verdict, ForcedNo)
        res = kernelize_dual(g, 2)
        assert isinstance(res.verdict, Reduced)

    def test_deficit_thresholds_agree(self):
        # threshold n - k on both sides of the reduction
        res = kernelize_dual(P5, 1)
        reduced = res.verdict.graph
        assert sigma_exact(P5).sigma >= P5.n - 1
        assert sigma_exact(reduced).sigma >= reduced.n - 1
        assert sigma_exact(P5).sigma < P5.n
        assert sigma_exact(reduced).sigma < reduced.n

    def test_cycle_chain_shift(self):
        res = kernelize_dual(C5, 0)
        reduced = res.verdict.graph
        assert reduced == C3
        assert sigma_exact(C5).sigma == sigma_exact(reduced).sigma + len(
            res.lifting.actions
        )

    def test_single_step_shift_random(self):
        # a deficit of n keeps the degree rule silent
        rng = random.Random(7)
        applied = single = 0
        while applied < 100:
            g = _random_graph(rng)
            res = kernelize_dual(g, g.n)
            steps = len(res.lifting.actions)
            if steps == 0:
                continue
            applied += 1
            single += steps == 1
            reduced = res.verdict.graph
            want = sigma_exact(g).sigma
            assert reduced.n == g.n - steps
            witness = sigma_exact(reduced).witness
            assert want == witness.k + steps
            lifted = lift_coloring(g, reduced, res.lifting, witness)
            assert verify_coloring(g, lifted).valid
            assert lifted.k == want
        assert single > 0

    def test_matches_the_restarting_fixpoint(self):
        rng = random.Random(99)
        graphs = [_random_graph(rng, n_max=14, m_max=30) for _ in range(600)]
        for _ in range(200):
            n = rng.randint(3, 60)
            g = gen_two_factor(n, rng.randrange(1 << 30))
            victims = rng.sample(range(n), rng.randint(0, 3))
            g, _ = g.without_vertices(victims)
            pairs = list(itertools.combinations(range(g.n), 2))
            drawn = rng.sample(pairs, min(rng.randint(0, 3), len(pairs)))
            chords = [e for e in drawn if not g.has_edge(*e)]
            graphs.append(Graph(g.n, list(g.edges) + chords))
        for g in graphs:
            res = kernelize_dual(g, g.n)
            reduced, vertex_map, actions = ref_kernelize_dual(g)
            assert res.verdict.graph == reduced, g.edges
            assert res.lifting.vertex_map == vertex_map, g.edges
            assert res.lifting.actions == actions, g.edges

    def test_two_factor_at_scale(self):
        for seed in (1, 2):
            g = gen_two_factor(20000, seed)
            cycles = len(g.connected_components())
            res = kernelize_dual(g, 0)
            reduced = res.verdict.graph
            assert reduced.n == reduced.m == 3 * cycles
            distinct = EdgeColoring(range(reduced.m))
            lifted = lift_coloring(g, reduced, res.lifting, distinct)
            check = verify_coloring(g, lifted)
            assert check.valid and check.colors_used == g.n

    def test_lift_reaches_original_optimum(self):
        res = kernelize_dual(P5, 1)
        reduced = res.verdict.graph
        witness = sigma_exact(reduced).witness
        lifted = lift_coloring(P5, reduced, res.lifting, witness)
        check = verify_coloring(P5, lifted)
        assert check.valid and check.colors_used == 4 == sigma_exact(P5).sigma

    def test_rejects_negative_deficit(self):
        with pytest.raises(ValueError):
            kernelize_dual(P5, -1)


class TestFourCycleDetection:
    def test_finds_plain_square(self):
        cycle = has_c4(C4)
        assert cycle is not None
        a, b, c, d = cycle
        assert len({a, b, c, d}) == 4
        for x, y in ((a, b), (b, c), (c, d), (d, a)):
            assert C4.has_edge(x, y)

    def test_complete_graph_contains_square(self):
        k4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        assert has_c4(k4) is not None

    def test_none_on_square_free(self):
        assert has_c4(C5) is None
        assert has_c4(P5) is None
        assert has_c4(Graph(4, [(0, 1), (0, 2), (0, 3)])) is None

    def test_bipartite_doubled_star(self):
        g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert has_c4(g) is not None

    def test_matches_the_unfiltered_scan_everywhere(self):
        found = 0
        for n in range(7):
            for g in graphs(n):
                cycle = has_c4(g)
                assert cycle == ref_has_c4(g)
                if cycle is not None:
                    found += 1
                    assert len(set(cycle)) == 4
                    for i in range(4):
                        assert g.has_edge(cycle[i], cycle[(i + 1) % 4])
        assert found > 0


class TestC4FreeKernel:
    def test_refuses_on_square(self):
        with pytest.raises(FourCycleError) as err:
            kernelize_c4free(C4, 3)
        assert len(err.value.cycle) == 4

    def test_private_leaves_trimmed(self):
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
        res = kernelize_c4free(g, 3)
        assert isinstance(res.verdict, Reduced)
        reduced = res.verdict.graph
        assert reduced.n == 4 and reduced.m == 3
        assert sigma_exact(g).sigma == sigma_exact(reduced).sigma == 2

    def test_isolated_vertices_dropped(self):
        g = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4)])
        res = kernelize_c4free(g, 3)
        assert isinstance(res.verdict, Reduced)
        # one private leaf trimmed, both isolated vertices gone
        assert res.verdict.graph.n == 4

    def test_fixpoint_when_nothing_to_trim(self):
        res = kernelize_c4free(P5, 4)
        assert isinstance(res.verdict, Reduced)
        assert res.verdict.graph == P5
        assert res.lifting.actions == ()

    def test_optimum_preserved_random(self):
        rng = random.Random(42)
        checked = 0
        while checked < 50:
            g = _random_graph(rng, n_max=8, m_max=12)
            if has_c4(g) is not None:
                continue
            k = rng.choice((3, 4))
            res = kernelize_c4free(g, k)
            if not isinstance(res.verdict, Reduced):
                want = sigma_exact(g, edge_limit=None).sigma >= k
                assert want == isinstance(res.verdict, ForcedYes)
                continue
            checked += 1
            reduced = res.verdict.graph
            assert sigma_exact(g, edge_limit=None).sigma == \
                sigma_exact(reduced, edge_limit=None).sigma
            assert reduced.n <= 2 * k * (2 * k + 2)
            witness = sigma_exact(reduced, edge_limit=None).witness
            lifted = lift_coloring(g, reduced, res.lifting, witness)
            assert verify_coloring(g, lifted).valid

    def test_rejects_tiny_target(self):
        with pytest.raises(ValueError):
            kernelize_c4free(P5, 0)

    def test_tiny_target_is_checked_before_the_square(self):
        with pytest.raises(ValueError) as err:
            kernelize_c4free(C4, 1)
        assert not isinstance(err.value, FourCycleError)
        with pytest.raises(FourCycleError):
            kernelize_c4free(C4, 2)

    @staticmethod
    def _hub_graph(rng):
        """Hubs with private leaves, one connector per hub pair and a few
        isolated vertices, relabeled at random: no two vertices share two
        neighbors, so the graph has no 4-cycle."""
        hubs = rng.randint(3, 5)
        edges = []
        n = hubs
        for a, b in itertools.combinations(range(hubs), 2):
            edges += [(a, n), (b, n)]
            n += 1
        for hub in range(hubs):
            for _ in range(rng.randint(0, 6)):
                edges.append((hub, n))
                n += 1
        n += rng.randint(0, 3)
        label = list(range(n))
        rng.shuffle(label)
        rng.shuffle(edges)
        return hubs, Graph(n, [(label[a], label[b]) for a, b in edges])

    def test_hub_graphs_lose_exactly_the_surplus_twins(self):
        # without a 4-cycle, isolated vertices go, each cover vertex keeps
        # its two lowest private leaves, and deleted leaves copy the lowest
        rng = random.Random(5)
        deleted = 0
        for _ in range(40):
            hubs, g = self._hub_graph(rng)
            assert has_c4(g) is None
            k = hubs + 2  # every edge meets a hub, so r <= hubs = k - 2
            pre = matching_preprocess(g, k)
            assert isinstance(pre, Continue)
            inside = set(pre.cover)
            want = []
            for v in pre.cover:
                leaves = sorted(w for w in g.neighbors(v)
                                if w not in inside and g.degree(w) == 1)
                want += [("del", w, leaves[0]) for w in leaves[2:]]
            want += [("del", v, None) for v in range(g.n) if g.degree(v) == 0]
            res = kernelize_c4free(g, k)
            assert isinstance(res.verdict, Reduced)
            assert res.lifting.actions == tuple(sorted(want, key=lambda a: a[1]))
            deleted += len(want)
            reduced = res.verdict.graph
            assert reduced.n == g.n - len(want)
            # lift_coloring verifies what it returns
            base = matching_coloring(reduced)
            assert lift_coloring(g, reduced, res.lifting, base).k == base.k
            found = solve_exact(reduced, k)
            if found.yes:
                lifted = lift_coloring(g, reduced, res.lifting, found.witness)
                assert verify_coloring(g, lifted).colors_used == k
        assert deleted > 100


class TestLiftingErrors:
    def test_wrong_size_coloring(self):
        res = kernelize_dual(P5, 1)
        from maxec import EdgeColoring
        with pytest.raises(ValueError):
            lift_coloring(P5, res.verdict.graph, res.lifting, EdgeColoring([0]))

    def test_lifting_of_another_graph(self):
        # P5 with a chord is not the graph the lifting came from: the lift
        # never colors the chord
        res = kernelize_dual(P5, 1)
        reduced = res.verdict.graph
        chorded = Graph(5, [*P5.edges, (0, 2)])
        with pytest.raises(ValueError, match="original edge set"):
            lift_coloring(chorded, reduced, res.lifting,
                          sigma_exact(reduced).witness)

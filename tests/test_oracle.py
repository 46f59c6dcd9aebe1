"""Oracle validation against an independent pruning-free enumerator."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brutes import all_capacity_maps, connected_graphs_upto, dumb_sigma
from maxec import (
    EdgeColoring,
    Graph,
    MCISInstance,
    OracleLimitError,
    ValidityProfile,
    gen_random,
    gen_two_factor,
    is_two_factor,
    reduce_mcis,
    sigma_exact,
    solve_exact,
    verify_coloring,
)
from maxec.oracle import _fold_pendants, decide

# expected values computed by the naive enumerator and checked by hand
# where feasible (cycles reach n, paths reach m, stars cap at 2)
FROZEN = {
    "single_edge": (2, [(0, 1)], 1),
    "path3": (3, [(0, 1), (1, 2)], 2),
    "path4": (4, [(0, 1), (1, 2), (2, 3)], 3),
    "path5": (5, [(0, 1), (1, 2), (2, 3), (3, 4)], 4),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)], 3),
    "c4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)], 4),
    "c5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 5),
    "star3": (4, [(0, 1), (0, 2), (0, 3)], 2),
    "star4": (5, [(0, 1), (0, 2), (0, 3), (0, 4)], 2),
    "k4": (4, list(combinations(range(4), 2)), 3),
    "k5": (5, list(combinations(range(5), 2)), 3),
    "k23": (5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)], 4),
    "paw": (4, [(0, 1), (1, 2), (0, 2), (2, 3)], 3),
    "bull": (5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)], 3),
    "butterfly": (5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)], 4),
    "two_triangles": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], 6),
    "cube": (
        8,
        [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7),
         (0, 4), (1, 5), (2, 6), (3, 7)],
        6,
    ),
    "k33": (6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
                (2, 3), (2, 4), (2, 5)], 4),
    "empty": (3, [], 0),
    "path_and_edge": (5, [(0, 1), (1, 2), (3, 4)], 3),
}


# The witness is the first optimum the search meets: the new class first,
# then the old classes in ascending order, and an edge that is the last at
# both its endpoints takes the first of these. The CLI prints this witness.
FROZEN_WITNESSES = {
    "k4": (0, 1, 0, 2, 0, 1),
    "k23": (0, 1, 0, 2, 3, 2),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_values(name):
    n, edges, expected = FROZEN[name]
    g = Graph(n, edges)
    res = sigma_exact(g, edge_limit=None)
    assert res.sigma == expected
    check = verify_coloring(g, res.witness)
    assert check.valid
    assert check.colors_used == expected
    if name in FROZEN_WITNESSES:
        assert res.witness.colors == FROZEN_WITNESSES[name]


def test_matches_naive_enumeration_exhaustively():
    for g in connected_graphs_upto(5):
        res = sigma_exact(g, edge_limit=None)
        assert res.sigma == dumb_sigma(g), g.edges
        assert verify_coloring(g, res.witness).valid
    for g in connected_graphs_upto(6):
        if g.n == 6 and g.m <= 9:
            res = sigma_exact(g, edge_limit=None)
            assert res.sigma == dumb_sigma(g), g.edges
            assert verify_coloring(g, res.witness).valid


def test_threshold_agrees_with_exact():
    # every threshold k, against the pruning-free enumerator
    for g in connected_graphs_upto(5):
        s = dumb_sigma(g)
        for k in range(-1, g.n + 2):
            got = sigma_exact(g, edge_limit=None).sigma
            assert (got >= k) == (s >= k), (g.edges, k)


def test_threshold_on_disconnected_graphs():
    g = Graph(9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7)])
    assert sigma_exact(g, edge_limit=None).sigma == 7
    for k in range(0, 10):
        assert (sigma_exact(g, edge_limit=None).sigma >= k) == (7 >= k)


def test_capacity_profiles_exhaustively():
    # capacity-1 vertices are where the owed-room rule and the dead-edge
    # cut fire most, so this reaches 6 vertices
    graphs = [g for g in connected_graphs_upto(6) if g.n < 6 or g.m <= 9]
    for g in graphs:
        for caps in all_capacity_maps(g.n):
            profile = ValidityProfile(f=caps)
            res = sigma_exact(g, profile=profile, edge_limit=None)
            assert res.sigma == dumb_sigma(g, list(caps)), (g.edges, caps)
            check = verify_coloring(g, res.witness, profile)
            assert check.valid
            assert check.colors_used == res.sigma


def test_larger_draws_keep_their_optimum():
    # sigma values recorded before the owed-room rule, on draws where that
    # rule cuts most of the search
    for (n, p, seed), sigma in {(30, .08, 4): 16, (28, .1, 3): 16, (30, .1, 5): 20}.items():
        g = gen_random(n, p, seed)
        res = sigma_exact(g, edge_limit=None)
        assert res.sigma == sigma, (n, p, seed)
        check = verify_coloring(g, res.witness)
        assert check.valid and check.colors_used == sigma
    g = gen_random(24, .1, 1)
    res = sigma_exact(g, edge_limit=None)
    assert res.sigma == 14
    assert verify_coloring(g, res.witness).colors_used == 14
    assert solve_exact(g, 14).yes and not solve_exact(g, 15).yes


def test_all_capacity_one_forces_single_color_per_component():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
    profile = ValidityProfile(f=(1,) * 6)
    assert sigma_exact(g, profile=profile, edge_limit=None).sigma == 2


def test_two_factors_reach_vertex_count():
    cycles = Graph(7, [(0, 1), (1, 2), (0, 2),
                       (3, 4), (4, 5), (5, 6), (3, 6)])
    assert is_two_factor(cycles)
    assert sigma_exact(cycles, edge_limit=None).sigma == 7


def test_component_additivity():
    left = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    right = Graph(4, list(combinations(range(4), 2)))
    both = Graph(8, list(left.edges) + [(u + 4, v + 4) for u, v in right.edges])
    s = sigma_exact(both, edge_limit=None).sigma
    assert s == sigma_exact(left).sigma + sigma_exact(right).sigma


def test_edge_limit_refusal():
    g = Graph(14, [(i, i + 1) for i in range(13)])
    with pytest.raises(OracleLimitError):
        sigma_exact(g)
    with pytest.raises(OracleLimitError):
        sigma_exact(g, edge_limit=5)
    assert sigma_exact(g, edge_limit=None).sigma == 13
    assert sigma_exact(g, edge_limit=13).sigma == 13


def test_trivial_thresholds():
    g = Graph(2, [(0, 1)])
    assert sigma_exact(g).sigma >= 0
    assert sigma_exact(g).sigma >= -3
    assert sigma_exact(Graph(1, [])).sigma >= 0
    assert sigma_exact(Graph(1, [])).sigma < 1
    assert sigma_exact(g).sigma < 2


@st.composite
def random_graphs(draw, max_n=7, max_m=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return Graph(n, [])
    edges = draw(
        st.sets(st.sampled_from(pairs), max_size=min(max_m, len(pairs)))
    )
    return Graph(n, sorted(edges))


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_oracle_matches_naive_on_random_graphs(g):
    res = sigma_exact(g, edge_limit=None)
    assert res.sigma == dumb_sigma(g)
    assert verify_coloring(g, res.witness).valid
    assert sigma_exact(g, edge_limit=None).sigma >= res.sigma
    assert sigma_exact(g, edge_limit=None).sigma < res.sigma + 1


@settings(max_examples=40, deadline=None)
@given(random_graphs(max_n=5, max_m=7), st.data())
def test_oracle_matches_naive_under_capacities(g, data):
    caps = tuple(
        data.draw(st.integers(min_value=1, max_value=2)) for _ in range(g.n)
    )
    profile = ValidityProfile(f=caps)
    res = sigma_exact(g, profile=profile, edge_limit=None)
    assert res.sigma == dumb_sigma(g, list(caps))
    assert verify_coloring(g, res.witness, profile).valid


def test_pendant_folding_matches_plain_search():
    # folding always runs, so both entry points are checked against the
    # pruning-free enumerator, under every {1, 2} capacity map and under
    # uniform capacities 3 and 4, where a pendant's neighbor keeps room
    for n in range(1, 5):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            profiles = [ValidityProfile(f=caps) for caps in all_capacity_maps(n)]
            profiles += [ValidityProfile(q=3), ValidityProfile(q=4)]
            for profile in profiles:
                want = dumb_sigma(g, list(profile.capacities(n)))
                res = sigma_exact(g, profile=profile, edge_limit=None)
                assert res.sigma == want, (g.edges, profile)
                check = verify_coloring(g, res.witness, profile)
                assert check.valid and check.colors_used == want
                for k in (want, want + 1):
                    got = sigma_exact(g, profile, edge_limit=None).sigma
                    assert (got >= k) == (want >= k), (g.edges, profile, k)


def test_pendant_folding_keeps_room_above_capacity_two():
    # a pendant's neighbor with capacity 3 still has room after one fold;
    # the keyword that names folding is still accepted with True
    claw = Graph(4, [(0, 1), (0, 2), (0, 3)])
    profile = ValidityProfile(q=3)
    res = sigma_exact(claw, profile, fold_pendants=True)
    assert res.sigma == 3 == dumb_sigma(claw, [3] * 4)
    assert verify_coloring(claw, res.witness, profile).colors_used == 3
    assert sigma_exact(claw, profile).sigma >= 3
    assert sigma_exact(claw, profile).sigma < 4


def test_capacity_one_chain_collapses_to_one_edge():
    # two triangles joined by the chain 0-6-7-3 whose inner vertices have
    # capacity 1: 6 and then 7 are contracted, leaving the core edge (0, 3)
    g = Graph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                  (0, 6), (6, 7), (3, 7)])
    caps = (2, 2, 2, 2, 2, 2, 1, 1)
    core, _, actions, origin = _fold_pendants(g, list(caps))
    chain = [g.edge_id(0, 6), g.edge_id(6, 7), g.edge_id(3, 7)]
    assert not actions
    assert core.edges == g.edges[:6] + ((0, 3),)
    assert sorted(origin[-1]) == chain
    profile = ValidityProfile(f=caps)
    res = sigma_exact(g, profile)
    assert res.sigma == 5 == dumb_sigma(g, list(caps))
    assert len({res.witness.colors[e] for e in chain}) == 1
    check = verify_coloring(g, res.witness, profile)
    assert check.valid and check.colors_used == 5


def test_series_rule_skips_adjacent_neighbors():
    # in a triangle a-x-b the contraction would double the edge (a, b)
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    caps = (2, 1, 2)
    core, _, _, origin = _fold_pendants(g, list(caps))
    assert core.edges == g.edges and origin == [[0], [1], [2]]
    profile = ValidityProfile(f=caps)
    res = sigma_exact(g, profile)
    assert res.sigma == 2 == dumb_sigma(g, list(caps))
    assert verify_coloring(g, res.witness, profile).colors_used == 2


@pytest.mark.parametrize("base, parts, yes", [
    (Graph(3, [(0, 1), (1, 2), (0, 2)]), ((0, 1), (2,)), False),
    (Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), ((0, 1), (2, 3)), True),
])
def test_gadget_arms_collapse_to_three_edges_per_base_edge(base, parts, yes):
    # every base vertex keeps degree 3, so only the arms contract: each
    # arm u-e_u-e_u2-e_3 becomes (u, e_3), and e_3 keeps its apex edge
    ann = reduce_mcis(MCISInstance(base, parts))
    g = ann.graph
    core, _, actions, origin = _fold_pendants(g, list(ann.f))
    assert not actions
    assert core.m == g.m - 4 * base.m
    apex = base.n + len(parts)
    for eid, (u, v) in enumerate(base.edges):
        e3 = apex + 3 + 5 * eid
        assert sorted(w for _, w in core.adj[e3]) == [u, v, apex]
        assert all(core.degree(w) == 0 for w in range(e3 - 2, e3 + 3) if w != e3)
    arms = 2 * base.m
    assert sorted(map(len, origin)) == [1] * (core.m - arms) + [3] * arms
    res = sigma_exact(g, ann.profile, edge_limit=None)
    assert (res.sigma >= ann.threshold) == yes
    check = verify_coloring(g, res.witness, ann.profile)
    assert check.valid and check.colors_used == res.sigma


def test_color_count_may_exceed_vertex_count():
    # K4 at capacity 3 takes one color per edge: 6 colors on 4 vertices
    k4 = Graph(4, list(combinations(range(4), 2)))
    for q in (3, 4):
        profile = ValidityProfile(q=q)
        res = sigma_exact(k4, profile)
        assert res.sigma == 6 == dumb_sigma(k4, [q] * 4)
        assert verify_coloring(k4, res.witness, profile).colors_used == 6


def test_unfolded_search_is_refused():
    with pytest.raises(ValueError):
        sigma_exact(Graph(2, [(0, 1)]), fold_pendants=False)


def test_pendant_folding_collapses_trees():
    # trees always keep a degree-1 vertex, so folding alone finishes them
    star = Graph(5, [(0, i) for i in range(1, 5)])
    assert sigma_exact(star).sigma == 2
    path6 = Graph(6, [(i, i + 1) for i in range(5)])
    assert sigma_exact(path6).sigma == 5
    pinned_path3 = Graph(3, [(0, 1), (1, 2)])
    profile = ValidityProfile(f=(1, 1, 1))
    assert sigma_exact(pinned_path3, profile).sigma == 1


def test_pendant_folding_scales_to_a_big_tree():
    tree = Graph(60, [((i * 7 + 3) % i, i) for i in range(1, 60)])
    res = sigma_exact(tree, edge_limit=None)
    check = verify_coloring(tree, res.witness)
    assert check.valid and check.colors_used == res.sigma
    assert sigma_exact(tree, edge_limit=None).sigma >= res.sigma
    assert sigma_exact(tree, edge_limit=None).sigma < res.sigma + 1


def test_many_components_and_a_wide_star():
    # a thousand components, and a star center whose folded leaves after
    # the first all repeat its one remaining color
    triangles = [
        e for i in range(1000)
        for e in ((3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2), (3 * i, 3 * i + 2))
    ]
    star = [(3000, 3001 + i) for i in range(4000)]
    g = Graph(7001, triangles + star)
    res = sigma_exact(g, edge_limit=None)
    assert res.sigma == 3002
    check = verify_coloring(g, res.witness)
    assert check.valid and check.colors_used == 3002


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_long_cycle_covers_search_without_recursion(seed):
    # a cycle cover has no pendant to fold: the search walks 3000 positions
    g = gen_two_factor(3000, seed)
    res = sigma_exact(g, edge_limit=None)
    assert res.sigma == 3000
    check = verify_coloring(g, res.witness)
    assert check.valid and check.colors_used == 3000


def test_chorded_cycles_match_naive():
    # chords leave no pendant, so every edge goes through the search; the
    # naive enumerator is too slow for capacity 3 beyond ten edges
    rng = random.Random(3)
    for n in range(4, 10):
        ring = [(i, (i + 1) % n) for i in range(n)]
        chords = [(u, v) for u, v in combinations(range(n), 2) if 1 < v - u < n - 1]
        for _ in range(3):
            extra = rng.sample(chords, min(len(chords), rng.randint(1, 12 - n)))
            g = Graph(n, ring + extra)
            profiles = [ValidityProfile(q=2)]
            if g.m <= 10:
                profiles.append(ValidityProfile(q=3))
            profiles += [
                ValidityProfile(f=caps)
                for caps in rng.sample(list(all_capacity_maps(n)), 8)
            ]
            for profile in profiles:
                want = dumb_sigma(g, list(profile.capacities(n)))
                res = sigma_exact(g, profile, edge_limit=None)
                assert res.sigma == want, (g.edges, profile)
                check = verify_coloring(g, res.witness, profile)
                assert check.valid and check.colors_used == want


def _decided(g, k, budget):
    """Run ``decide`` on slices of ``budget`` nodes; its answer and the
    number of slices it took."""
    run = decide(g, k)
    next(run)
    slices = 0
    try:
        while True:
            slices += 1
            run.send(budget)
    except StopIteration as stop:
        return stop.value, slices


def test_decide_matches_sigma_at_every_k():
    # every graph with up to 5 vertices, components and pendants included,
    # run without a budget and on one-node slices, which must agree
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            sigma = sigma_exact(g, edge_limit=None).sigma
            for k in range(n + 2):
                colors, _ = _decided(g, k, -1)
                assert (colors is not None) == (sigma >= k), (g.edges, k)
                assert _decided(g, k, 1)[0] == colors, (g.edges, k)
                if colors is not None and g.m:
                    check = verify_coloring(g, EdgeColoring(colors))
                    assert check.valid and check.colors_used >= k


def test_decide_resumes_across_slices():
    # a long NO: one-node slices pause at every node and give the same
    # answer as one unbudgeted run
    g = gen_random(12, 0.35, 1)
    sigma = sigma_exact(g, edge_limit=None).sigma
    assert _decided(g, sigma + 1, -1) == (None, 1)
    colors, slices = _decided(g, sigma + 1, 1)
    assert colors is None and slices > 100
    colors, _ = _decided(g, sigma, 7)
    assert verify_coloring(g, EdgeColoring(colors)).colors_used >= sigma

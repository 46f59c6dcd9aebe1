"""Acceptance sweep: one checkmark per shipped guarantee.

Each test is a self-contained property check at desk scale, pitting the
fast components against the exhaustive oracle or against structural
bounds, ordered from core solver guarantees out to the tooling. They are
deliberately heavier than the unit tests; run them with -v to get one
pass or fail line per guarantee.
"""

import functools
import itertools
import random

from brutes import connected_graphs_upto
from maxec.generators import (
    MCISInstance,
    gen_random,
    gen_two_factor,
    has_multicolored_independent_set,
    pendant_transform,
    reduce_mcis,
)
from maxec.graphs import Graph, ValidityProfile, is_two_factor, verify_coloring
from maxec.kernels import (
    Reduced,
    has_c4,
    kernelize_c4free,
    kernelize_dual,
    kernelize_standard,
    lift_coloring,
    neighborhood_classes,
)
from maxec.matching import (
    Continue,
    ForcedNo,
    ForcedYes,
    matching_coloring,
    matching_preprocess,
    maximal_matching,
)
from maxec.oracle import sigma_exact
from maxec.solver import solve_exact


@functools.lru_cache(maxsize=None)
def _connected_family() -> tuple[Graph, ...]:
    """Every connected graph on up to six vertices, one per isomorphism class."""
    graphs = tuple(connected_graphs_upto(6))
    assert len(graphs) == 143
    return graphs


@functools.lru_cache(maxsize=None)
def _random_suite() -> tuple[Graph, ...]:
    rng = random.Random(101)
    graphs = []
    while len(graphs) < 200:
        g = gen_random(rng.randint(1, 9), rng.uniform(0.1, 0.9), rng.randrange(1 << 30))
        if g.m <= 12:
            graphs.append(g)
    return tuple(graphs)


@functools.lru_cache(maxsize=None)
def _kernel_suite() -> tuple[Graph, ...]:
    """Half plain sparse randoms, half double stars with oversize classes."""
    rng = random.Random(404)
    graphs = []
    while len(graphs) < 25:
        g = gen_random(rng.randint(5, 9), rng.uniform(0.15, 0.4), rng.randrange(1 << 30))
        if 1 <= g.m <= 12:
            graphs.append(g)
    for i in range(25):
        leaves = rng.randint(11, 14)
        n = 2 + leaves
        # odd rounds pile every leaf on one hub so a class overflows the cap
        hubs = [0] * leaves if i % 2 else [rng.choice((0, 1)) for _ in range(leaves)]
        edges = [(0, 1)] + [(hubs[j], 2 + j) for j in range(leaves)]
        if rng.random() < 0.5:
            a, b = rng.sample(range(2, n), 2)
            edges.append((min(a, b), max(a, b)))
        graphs.append(Graph(n, edges))
    return tuple(graphs)


def test_01_solver_agrees_with_the_oracle_everywhere():
    for g in _connected_family():
        sigma = sigma_exact(g, edge_limit=None).sigma
        for k in range(g.n + 1):
            assert solve_exact(g, k).yes == (sigma >= k), (g.edges, k)
    for g in _random_suite():
        sigma = sigma_exact(g, edge_limit=None).sigma
        for k in range(g.n + 1):
            assert solve_exact(g, k).yes == (sigma >= k), (g.n, g.edges, k)


def test_02_full_color_spread_characterizes_cycle_covers():
    for g in _connected_family():
        spread = sigma_exact(g, edge_limit=None).sigma == g.n
        assert spread == is_two_factor(g), g.edges


def test_03_matching_size_bounds_the_optimum_from_below():
    rng = random.Random(303)
    done = 0
    while done < 100:
        g = gen_random(rng.randint(4, 9), rng.uniform(0.15, 0.6), rng.randrange(1 << 30))
        if not 1 <= g.m <= 12:
            continue
        r = len(maximal_matching(g))
        s = sigma_exact(g).sigma
        assert s >= r, g.edges
        if g.m > r:
            assert s >= r + 1, g.edges
        check = verify_coloring(g, matching_coloring(g))
        assert check.valid
        assert check.colors_used == (r if g.m == r else r + 1)
        done += 1


def test_04_standard_kernel_keeps_the_verdict_and_its_promised_shape():
    for g in _kernel_suite():
        sigma = sigma_exact(g, edge_limit=None).sigma
        for k in (3, 4):
            res = kernelize_standard(g, k)
            verdict = res.verdict
            if isinstance(verdict, ForcedYes):
                assert sigma >= k, (g.edges, k)
                check = verify_coloring(g, verdict.witness)
                assert check.valid and check.colors_used == k
                continue
            if isinstance(verdict, ForcedNo):
                assert sigma < k, (g.edges, k)
                continue
            assert isinstance(verdict, Reduced)
            after = sigma_exact(verdict.graph, edge_limit=None).sigma >= verdict.k
            assert (sigma >= k) == after, (g.edges, k)
            pre = matching_preprocess(g, k)
            assert isinstance(pre, Continue)
            cover = set(pre.cover)
            inner = [
                i for i, orig in enumerate(res.lifting.vertex_map) if orig in cover
            ]
            assert len(inner) == len(cover)
            for cls in neighborhood_classes(verdict.graph, inner):
                keep = max(2, len(cls.T)) if cls.T else 0
                assert len(cls.members) <= keep, (g.edges, k)
            s = len(cover)
            assert verdict.graph.n <= s + 2 ** s * max(2, s), (g.edges, k)


def test_05_one_contraction_lowers_the_optimum_by_exactly_one():
    # a deficit of n keeps the degree rule silent, so only contractions act
    rng = random.Random(505)
    done = single = 0
    while done < 100:
        g = gen_random(rng.randint(5, 9), rng.uniform(0.15, 0.4), rng.randrange(1 << 30))
        if not 1 <= g.m <= 12:
            continue
        res = kernelize_dual(g, g.n)
        steps = len(res.lifting.actions)
        if steps == 0:
            continue
        single += steps == 1
        reduced = res.verdict.graph
        witness = sigma_exact(reduced).witness
        assert sigma_exact(g).sigma == witness.k + steps, g.edges
        lifted = lift_coloring(g, reduced, res.lifting, witness)
        check = verify_coloring(g, lifted)
        assert check.valid and check.colors_used == witness.k + steps, g.edges
        done += 1
    assert single > 0
    # a blown-up vertex forces a negative answer at deficit zero, and the
    # oracle can still confirm it on eight vertices
    for seed in range(3):
        base = gen_two_factor(8, seed)
        extra = [(0, v) for v in range(1, 8) if not base.has_edge(0, v)]
        g = Graph(8, list(base.edges) + extra)
        res = kernelize_dual(g, 0)
        assert isinstance(res.verdict, ForcedNo)
        assert sigma_exact(g, edge_limit=None).sigma < 8
    # larger deficits fire the same degree rule; these are too big to
    # cross-check exhaustively, so only the verdict is asserted
    for k, n in ((1, 12), (2, 15)):
        base = gen_two_factor(n, 41)
        extra = [(0, v) for v in range(1, n) if not base.has_edge(0, v)]
        g = Graph(n, list(base.edges) + extra[: 3 * k + 5])
        res = kernelize_dual(g, k)
        assert isinstance(res.verdict, ForcedNo)


def test_06_damaged_cycle_covers_shrink_linearly_in_the_deficit():
    # a cycle cover minus d <= k vertices keeps sigma >= n' - k: each
    # deletion turns one cycle into paths, losing at most two colors
    # while n drops by one, so these are positive instances by build
    rng = random.Random(606)
    for k in (1, 2, 3, 4):
        for _ in range(3):
            n = rng.randint(80, 200)
            g = gen_two_factor(n, rng.randrange(1 << 30))
            victims = set(rng.sample(range(n), rng.randint(1, k)))
            damaged, _ = g.without_vertices(victims)
            res = kernelize_dual(damaged, k)
            assert isinstance(res.verdict, Reduced)
            assert res.verdict.graph.n <= 150 * k, (n, k, res.verdict.graph.n)


def _without_four_cycles(g: Graph) -> Graph:
    while (cyc := has_c4(g)) is not None:
        gone = {cyc[0], cyc[1]}
        g = Graph(g.n, [e for e in g.edges if set(e) != gone])
    return g


def test_07_c4free_kernel_preserves_the_optimum_within_its_size_bound():
    rng = random.Random(707)
    done = 0
    while done < 50:
        g = _without_four_cycles(
            gen_random(rng.randint(5, 9), rng.uniform(0.2, 0.45), rng.randrange(1 << 30))
        )
        if g.m > 12:
            continue
        k = 3 + done % 2
        res = kernelize_c4free(g, k)
        verdict = res.verdict
        if isinstance(verdict, ForcedYes):
            assert sigma_exact(g).sigma >= k, (g.edges, k)
        elif isinstance(verdict, ForcedNo):
            assert sigma_exact(g).sigma < k, (g.edges, k)
        else:
            assert isinstance(verdict, Reduced)
            assert verdict.graph.n <= 2 * k * (2 * k + 2), (g.edges, k)
            assert sigma_exact(verdict.graph).sigma == sigma_exact(g).sigma, (g.edges, k)
        done += 1


def _partitions_upto_two(n: int):
    """All ways to split range(n) into one or two labeled-canonical classes."""
    out = []
    for labels in itertools.product((0, 1), repeat=n):
        if labels[0] != 0:
            continue
        blocks = max(labels) + 1
        out.append(
            [tuple(v for v in range(n) if labels[v] == b) for b in range(blocks)]
        )
    return out


def test_08_reduction_chain_agrees_with_brute_force():
    for n in range(1, 5):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            for parts in _partitions_upto_two(n):
                inst = MCISInstance(g, parts)
                want = has_multicolored_independent_set(inst)
                ann = reduce_mcis(inst)
                assert has_c4(ann.graph) is None
                mid = sigma_exact(
                    ann.graph, ValidityProfile(f=ann.f), edge_limit=None
                ).sigma >= ann.threshold
                plain, target = pendant_transform(ann)
                last = sigma_exact(plain, edge_limit=None).sigma >= target
                assert want == mid == last, (g.edges, parts)


def test_09_branching_never_exceeds_its_advertised_widths():
    def audited(g: Graph, k: int) -> None:
        stats = solve_exact(g, k).stats
        assert stats.across_branch_max_width <= 4, (g.edges, k)

    for g in _connected_family():
        for k in range(g.n + 1):
            audited(g, k)
    for g in _random_suite():
        for k in range(g.n + 1):
            audited(g, k)
    for g in _kernel_suite():
        for k in (3, 4):
            audited(g, k)

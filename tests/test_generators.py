"""Reductions and seeded generators validated against the oracle."""

import itertools
import random

import pytest

from maxec import (
    AnnotatedInstance,
    FormatError,
    Graph,
    MCISInstance,
    ValidityProfile,
    gen_random,
    gen_two_factor,
    has_c4,
    has_multicolored_independent_set,
    is_two_factor,
    load_mcis,
    pendant_transform,
    reduce_mcis,
    render_mcis,
    sigma_exact,
)

K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def _labeled_partitions(n, k):
    """All ways to split range(n) into k labeled nonempty classes."""
    for labels in itertools.product(range(k), repeat=n):
        if set(labels) == set(range(k)):
            yield tuple(
                tuple(v for v in range(n) if labels[v] == i) for i in range(k)
            )


def _all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def _random_instance(rng, n_max=6):
    n = rng.randint(1, n_max)
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
    k = rng.randint(1, n)
    while True:
        labels = [rng.randrange(k) for _ in range(n)]
        if set(labels) == set(range(k)):
            break
    parts = tuple(
        tuple(v for v in range(n) if labels[v] == i) for i in range(k)
    )
    return MCISInstance(g, parts)


class TestMCISInstance:
    def test_parts_are_sorted_and_counted(self):
        inst = MCISInstance(Graph(3, []), ((2, 0), (1,)))
        assert inst.parts == ((0, 2), (1,))
        assert inst.k == 2

    def test_rejects_overlapping_classes(self):
        with pytest.raises(ValueError):
            MCISInstance(Graph(2, []), ((0, 1), (1,)))

    def test_rejects_empty_class(self):
        with pytest.raises(ValueError):
            MCISInstance(Graph(2, []), ((0, 1), ()))

    def test_rejects_uncovered_vertex(self):
        with pytest.raises(ValueError):
            MCISInstance(Graph(3, []), ((0, 1),))

    def test_rejects_zero_classes(self):
        with pytest.raises(ValueError):
            MCISInstance(Graph(0, []), ())

    def test_rejects_out_of_range_member(self):
        with pytest.raises(ValueError):
            MCISInstance(Graph(2, []), ((0, 1, 2),))


class TestAnnotatedInstance:
    def test_rejects_wrong_length_table(self):
        with pytest.raises(ValueError):
            AnnotatedInstance(Graph(2, []), (1,), 1)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            AnnotatedInstance(Graph(1, []), (3,), 1)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            AnnotatedInstance(Graph(1, []), (2,), -1)

    def test_profile_round_trip(self):
        inst = AnnotatedInstance(Graph(2, [(0, 1)]), (1, 2), 1)
        assert inst.profile == ValidityProfile(f=(1, 2))


class TestReduceMCIS:
    def test_single_edge_layout(self):
        # originals 0..1, gates 2..3, apex 4, gadget arm 5..9
        inst = MCISInstance(Graph(2, [(0, 1)]), ((0,), (1,)))
        ann = reduce_mcis(inst)
        assert ann.graph.n == 10
        assert ann.graph.edges == (
            (0, 2), (1, 3), (2, 4), (3, 4),
            (0, 5), (4, 7), (1, 9), (5, 6), (6, 7), (7, 8), (8, 9),
        )
        assert ann.f == (1, 1, 2, 2, 1, 1, 1, 2, 1, 1)
        assert ann.threshold == 3

    def test_adjacent_singletons_are_a_no(self):
        inst = MCISInstance(Graph(2, [(0, 1)]), ((0,), (1,)))
        ann = reduce_mcis(inst)
        assert not has_multicolored_independent_set(inst)
        assert sigma_exact(ann.graph, ann.profile).sigma < ann.threshold

    def test_nonadjacent_singletons_are_a_yes(self):
        inst = MCISInstance(Graph(2, []), ((0,), (1,)))
        ann = reduce_mcis(inst)
        assert has_multicolored_independent_set(inst)
        assert sigma_exact(ann.graph, ann.profile).sigma >= ann.threshold

    def test_outputs_are_c4_free(self):
        rng = random.Random(7)
        for _ in range(40):
            ann = reduce_mcis(_random_instance(rng))
            assert has_c4(ann.graph) is None

    def test_threshold_is_class_count_plus_one(self):
        rng = random.Random(8)
        for _ in range(10):
            inst = _random_instance(rng)
            assert reduce_mcis(inst).threshold == inst.k + 1

    def test_three_way_equivalence_small(self):
        # acceptance widens this sweep to four vertices
        for n in range(1, 4):
            for g in _all_graphs(n):
                for k in (1, 2):
                    for parts in _labeled_partitions(n, k):
                        inst = MCISInstance(g, parts)
                        ann = reduce_mcis(inst)
                        plain, target = pendant_transform(ann)
                        expect = has_multicolored_independent_set(inst)
                        mid = sigma_exact(ann.graph, ann.profile, edge_limit=None)
                        assert expect == (mid.sigma >= ann.threshold)
                        last = sigma_exact(plain, edge_limit=None)
                        assert expect == (last.sigma >= target)


class TestPendantTransform:
    def test_all_capacity_two_is_identity(self):
        tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
        out, target = pendant_transform(AnnotatedInstance(tri, (2, 2, 2), 3))
        assert out == tri and target == 3

    def test_single_vertex_gains_one_pendant(self):
        out, target = pendant_transform(AnnotatedInstance(Graph(1, []), (1,), 0))
        assert out == Graph(2, [(0, 1)])
        assert target == 1

    def test_triangle_all_pinned(self):
        tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
        inst = AnnotatedInstance(tri, (1, 1, 1), 1)
        out, target = pendant_transform(inst)
        assert out.n == 6 and out.m == 6
        assert target == 4
        # pinned triangle keeps one color; each pendant adds one
        assert sigma_exact(tri, ValidityProfile(f=(1, 1, 1))).sigma == 1
        assert sigma_exact(out).sigma == 4

    def test_shift_law_exhaustively(self):
        # the plain search on both sides keeps this independent of the
        # oracle's own pendant folding, which relies on the same law
        for n in range(1, 5):
            for g in _all_graphs(n):
                for fbits in range(1 << n):
                    f = tuple(1 + (fbits >> v & 1) for v in range(n))
                    inst = AnnotatedInstance(g, f, 0)
                    out, target = pendant_transform(inst)
                    added = sum(1 for cap in f if cap == 1)
                    assert target == added
                    annotated = sigma_exact(g, ValidityProfile(f=f)).sigma
                    assert sigma_exact(out, edge_limit=None).sigma == annotated + added

    def test_threshold_equivalence_on_random_graphs(self):
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randint(1, 5)
            pairs = list(itertools.combinations(range(n), 2))
            g = Graph(n, rng.sample(pairs, rng.randint(0, min(8, len(pairs)))))
            f = tuple(rng.choice((1, 2)) for _ in range(n))
            out, shift = pendant_transform(AnnotatedInstance(g, f, 0))
            for t in range(n + 2):
                before = sigma_exact(g, ValidityProfile(f=f)).sigma >= t
                after = sigma_exact(out, edge_limit=None).sigma >= t + shift
                assert before == after


class TestGenRandom:
    def test_extreme_probabilities(self):
        assert gen_random(5, 0.0, 3).m == 0
        assert gen_random(4, 1.0, 3) == K4

    def test_same_seed_same_graph(self):
        assert gen_random(9, 0.3, 42) == gen_random(9, 0.3, 42)

    def test_different_seeds_differ(self):
        assert gen_random(9, 0.3, 1) != gen_random(9, 0.3, 2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_random(-1, 0.5, 0)
        with pytest.raises(ValueError):
            gen_random(5, 1.5, 0)


class TestGenTwoFactor:
    def test_smallest_cases_are_forced(self):
        assert set(gen_two_factor(3, 0).edges) == {(0, 1), (0, 2), (1, 2)}
        for seed in range(5):
            g4 = gen_two_factor(4, seed)
            g5 = gen_two_factor(5, seed)
            assert g4.m == 4 and is_two_factor(g4)
            assert g5.m == 5 and is_two_factor(g5)
            assert len(g5.connected_components()) == 1

    def test_outputs_are_cycle_covers(self):
        for n in range(3, 13):
            for seed in (0, 1, 7):
                g = gen_two_factor(n, seed)
                assert g.n == n and g.m == n
                assert is_two_factor(g)

    def test_sigma_equals_vertex_count(self):
        for n in range(3, 13):
            g = gen_two_factor(n, seed=n)
            assert sigma_exact(g).sigma == n

    def test_same_seed_same_graph(self):
        assert gen_two_factor(11, 4) == gen_two_factor(11, 4)

    def test_rejects_tiny_instances(self):
        with pytest.raises(ValueError):
            gen_two_factor(2, 0)


class TestMCISChecker:
    def test_complete_graph_has_none(self):
        assert not has_multicolored_independent_set(
            MCISInstance(K4, ((0, 1), (2, 3)))
        )

    def test_edgeless_graph_has_one(self):
        assert has_multicolored_independent_set(
            MCISInstance(Graph(3, []), ((0,), (1,), (2,)))
        )

    def test_within_class_edges_are_harmless(self):
        g = Graph(3, [(0, 1)])
        assert has_multicolored_independent_set(
            MCISInstance(g, ((0, 1), (2,)))
        )

    def test_agrees_with_reduction_on_randoms(self):
        rng = random.Random(5)
        for _ in range(15):
            inst = _random_instance(rng, n_max=4)
            ann = reduce_mcis(inst)
            want = has_multicolored_independent_set(inst)
            res = sigma_exact(ann.graph, ann.profile, edge_limit=None)
            assert want == (res.sigma >= ann.threshold)


class TestMCISFormat:
    def test_golden_document(self):
        text = "c example\np mcis 3 1 2\nv 1 1\nv 2 2\nv 3 1\ne 1 2\n"
        inst = load_mcis(text)
        assert inst.graph == Graph(3, [(0, 1)])
        assert inst.parts == ((0, 2), (1,))

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(20):
            inst = _random_instance(rng)
            assert load_mcis(render_mcis(inst)) == inst

    def test_render_is_one_based(self):
        text = render_mcis(MCISInstance(Graph(2, [(0, 1)]), ((0,), (1,))))
        assert text == "p mcis 2 1 2\nv 1 1\nv 2 2\ne 1 2\n"

    def test_edge_endpoints_may_come_swapped(self):
        inst = load_mcis("p mcis 2 1 1\nv 1 1\nv 2 1\ne 2 1\n")
        assert inst.graph == Graph(2, [(0, 1)])

    @pytest.mark.parametrize(
        "text",
        [
            "v 1 1\n",
            "p mcis 1 0\n",
            "p edge 1 0 1\n",
            "p mcis 1 0 1\np mcis 1 0 1\nv 1 1\n",
            "p mcis 1 0 1\nv 1 2\n",
            "p mcis 1 0 1\nv 2 1\n",
            "p mcis 1 0 1\nv 1 1\nv 1 1\n",
            "p mcis 2 0 1\nv 1 1\n",
            "p mcis 2 1 1\nv 1 1\nv 2 1\n",
            "p mcis 2 0 1\nv 1 1\nv 2 1\ne 1 2\n",
            "p mcis 2 1 1\nv 1 1\nv 2 1\ne 1 1\n",
            "p mcis 2 2 1\nv 1 1\nv 2 1\ne 1 2\ne 2 1\n",
            "p mcis 2 0 2\nv 1 1\nv 2 1\n",
            "p mcis 1 0 1\nv 1 1\nq extra\n",
            "p mcis 1 0 1\nv 1 x\n",
        ],
    )
    def test_rejects_malformed_documents(self, text):
        with pytest.raises(FormatError):
            load_mcis(text)

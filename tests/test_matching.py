"""Matching-based preprocessing and the solver's final matching."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brutes import dumb_sigma, ref_max_bipartite_matching
from maxec import (
    Continue,
    ForcedNo,
    ForcedYes,
    Graph,
    matching_coloring,
    matching_preprocess,
    maximal_matching,
    verify_coloring,
)
from maxec.solver import _bits, _saturate


def test_greedy_matching_is_maximal():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    m = maximal_matching(g)
    assert m.edge_ids == (0, 2, 4)
    assert m.saturated == frozenset(range(6))
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert maximal_matching(star).edge_ids == (0,)


def test_matching_coloring_uses_background_class():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    col = matching_coloring(g)
    assert col.k == 4
    assert verify_coloring(g, col).valid
    assert col.colors == (1, 0, 2, 0, 3)


def test_matching_coloring_on_perfect_matching():
    g = Graph(4, [(0, 1), (2, 3)])
    col = matching_coloring(g)
    assert col.k == 2
    assert col.colors == (0, 1)
    assert matching_coloring(Graph(3, [])).colors == ()


def test_preprocess_settles_small_questions():
    path = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert isinstance(matching_preprocess(path, 5), ForcedNo)
    res = matching_preprocess(path, 3)
    assert isinstance(res, ForcedYes)
    check = verify_coloring(path, res.witness)
    assert check.valid and check.colors_used == 3
    assert isinstance(matching_preprocess(path, 0), ForcedYes)
    with pytest.raises(ValueError):
        matching_preprocess(path, -1)


def test_preprocess_handles_edgeless_graphs():
    empty = Graph(3, [])
    res = matching_preprocess(empty, 0)
    assert isinstance(res, ForcedYes)
    assert res.witness.k == 0
    assert isinstance(matching_preprocess(empty, 1), ForcedNo)


def test_preprocess_returns_cover_when_undecided():
    star = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
    res = matching_preprocess(star, 3)
    assert isinstance(res, Continue)
    assert res.cover == (0, 1)
    assert dumb_sigma(star) == 2


def test_forced_yes_matches_ground_truth_on_small_graphs():
    # whenever the matching rule fires, the instance really is positive
    gs = [
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        Graph(4, list(combinations(range(4), 2))),
        Graph(6, [(0, 1), (2, 3), (4, 5)]),
    ]
    for g in gs:
        s = dumb_sigma(g)
        for k in range(0, g.m + 2):
            res = matching_preprocess(g, k)
            if isinstance(res, ForcedYes):
                assert s >= k
            elif isinstance(res, ForcedNo):
                assert s < k


def test_saturate_on_known_instances():
    assert _saturate(0, [0b1]) == {}
    assert _saturate(0b11, [0b01, 0b11]) == {0: 0, 1: 1}
    # color 1 reaches only provider 0, so color 0 moves on to provider 1
    assert _saturate(0b11, [0b11, 0b01]) == {0: 1, 1: 0}
    # colors outside r are never matched
    assert _saturate(0b10, [0b11, 0b01]) == {0: 1}
    # colors 1 and 2 share their one provider
    assert _saturate(0b111, [0b001, 0b001, 0b110]) is None
    assert _saturate(0b100, [0b011]) is None


def test_saturate_pairs_like_the_recursive_search():
    rng = random.Random(12)
    saturated = 0
    for _ in range(400):
        colors = rng.randint(1, 7)
        offers = [rng.getrandbits(colors) for _ in range(rng.randint(1, 7))]
        r = rng.getrandbits(colors)
        left = tuple(_bits(r))
        ref = ref_max_bipartite_matching(left, [
            (c, p) for c in left for p, offer in enumerate(offers) if offer >> c & 1
        ])
        got = _saturate(r, offers)
        if len(ref) < len(left):
            assert got is None
        else:
            assert list(got.items()) == [(p, c) for c, p in ref.items()]
            saturated += 1
    # both outcomes occur often
    assert min(saturated, 400 - saturated) > 100


@st.composite
def saturate_instances(draw):
    colors = draw(st.integers(min_value=1, max_value=6))
    masks = st.integers(min_value=0, max_value=(1 << colors) - 1)
    return draw(masks), draw(st.lists(masks, min_size=1, max_size=6))


@settings(max_examples=80, deadline=None)
@given(saturate_instances())
def test_saturate_fails_exactly_when_hall_fails(instance):
    r, offers = instance
    got = _saturate(r, offers)
    left = list(_bits(r))
    # Hall: every set of colors of r has at least as many providers
    hall = all(
        sum(1 for offer in offers if offer & sum(1 << c for c in subset))
        >= size
        for size in range(1, len(left) + 1)
        for subset in combinations(left, size)
    )
    assert (got is not None) == hall
    if got is not None:
        assert sorted(got.values()) == left
        for p, c in got.items():
            assert offers[p] >> c & 1


def test_saturate_follows_a_long_augmenting_chain():
    # color 0 sees provider 0 and color i sees providers i-1 and i: color i
    # first walks the alternating path down to color 0 before it takes
    # provider i, a path of length about 2i
    n = 3000
    offers = [1 << p | 1 << (p + 1) for p in range(n)]
    got = _saturate((1 << n) - 1, offers)
    assert got == {p: p for p in range(n)}

"""Core graph, coloring, and verification primitives."""

import pytest

from maxec import (
    EdgeColoring,
    Graph,
    GraphError,
    ValidityProfile,
    character_subgraph,
    compress_colors,
    is_two_factor,
    palettes,
    verify_coloring,
)


def test_edges_normalize_and_keep_input_order():
    g = Graph(4, [(2, 1), (0, 3), (3, 1)])
    assert g.edges == ((1, 2), (0, 3), (1, 3))
    assert g.edge_id(3, 1) == 2
    assert g.edge_id(1, 3) == 2
    assert g.endpoints(0) == (1, 2)
    assert g.has_edge(3, 0) and not g.has_edge(0, 1)
    with pytest.raises(GraphError, match="no edge"):
        g.edge_id(0, 1)


def test_construction_rejects_bad_input():
    with pytest.raises(GraphError):
        Graph(-1, [])
    with pytest.raises(GraphError):
        Graph(2, [(0, 2)])
    with pytest.raises(GraphError):
        Graph(2, [(1, 1)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])


def test_degree_and_adjacency():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
    assert [g.degree(v) for v in range(4)] == [3, 1, 2, 2]
    assert g.max_degree() == 3
    assert g.neighbors(0) == (1, 2, 3)
    assert g.incident(2) == ((1, 0), (3, 3))


def test_components_are_sorted():
    g = Graph(6, [(4, 5), (0, 2), (2, 1)])
    assert g.connected_components() == [[0, 1, 2], [3], [4, 5]]


def test_without_vertices_keeps_edge_order():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    h, keep = g.without_vertices({1})
    assert keep == (0, 2, 3, 4)
    assert h.n == 4
    assert h.edges == ((1, 2), (2, 3), (0, 3))


def test_graph_equality_and_hash():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 0), (2, 1)])
    c = Graph(3, [(1, 2), (0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_coloring_must_be_surjective():
    EdgeColoring([0, 2, 1, 0])
    with pytest.raises(ValueError):
        EdgeColoring([0, 2, 2])
    with pytest.raises(ValueError):
        EdgeColoring([-1, 0])
    assert EdgeColoring([]).k == 0


def test_coloring_from_labels_compacts():
    col = EdgeColoring.from_labels(["x", "y", "x", "z"])
    assert col.colors == (0, 1, 0, 2)
    assert col.k == 3
    assert col[3] == 2
    assert len(col) == 4


def test_profile_validation():
    with pytest.raises(ValueError):
        ValidityProfile(q=1)
    with pytest.raises(ValueError):
        ValidityProfile(f=(1, 3))
    p = ValidityProfile(f=(1, 2, 1))
    assert p.capacity(0) == 1 and p.capacity(1) == 2
    assert p.capacities(3) == (1, 2, 1)
    with pytest.raises(ValueError):
        p.capacities(4)
    assert ValidityProfile(q=3).capacities(2) == (3, 3)


def test_palettes_and_verify():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
    col = EdgeColoring([0, 1, 2, 1])
    assert palettes(g, col) == (
        frozenset({0, 1, 2}),
        frozenset({0}),
        frozenset({1}),
        frozenset({1, 2}),
    )
    res = verify_coloring(g, col)
    assert not res.valid
    assert res.violations == (0,)
    assert res.colors_used == 3
    ok = verify_coloring(g, EdgeColoring([0, 1, 1, 1]))
    assert ok.valid and ok.colors_used == 2 and ok.violations == ()


def test_verify_respects_capacities():
    g = Graph(3, [(0, 1), (1, 2)])
    col = EdgeColoring([0, 1])
    assert verify_coloring(g, col).valid
    res = verify_coloring(g, col, ValidityProfile(f=(1, 1, 1)))
    assert not res.valid and res.violations == (1,)
    with pytest.raises(ValueError):
        verify_coloring(g, EdgeColoring([0]))


def test_character_subgraph_picks_lowest_representatives():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    col = EdgeColoring([0, 1, 0, 1, 2])
    h = character_subgraph(g, col)
    assert h.n == g.n
    assert h.edges == ((0, 1), (1, 2), (0, 4))
    assert h.m == col.k
    assert h.max_degree() <= 2
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(ValueError):
        character_subgraph(star, EdgeColoring([0, 1, 2]))


def test_two_factor_detection():
    assert is_two_factor(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert not is_two_factor(Graph(3, [(0, 1), (1, 2)]))
    assert not is_two_factor(Graph(0, []))
    assert not is_two_factor(Graph(4, [(0, 1), (1, 2), (0, 2)]))


def test_compress_colors():
    col = EdgeColoring([0, 1, 2, 3, 1])
    assert compress_colors(col, 2).colors == (0, 1, 1, 1, 1)
    assert compress_colors(col, 4).colors == (0, 1, 2, 3, 1)
    with pytest.raises(ValueError):
        compress_colors(col, 5)
    with pytest.raises(ValueError):
        compress_colors(col, 0)


def test_compress_preserves_validity():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    col = EdgeColoring([0, 1, 2, 3, 4])
    assert verify_coloring(g, col).valid
    for k in range(1, 6):
        small = compress_colors(col, k)
        res = verify_coloring(g, small)
        assert res.valid and res.colors_used == k

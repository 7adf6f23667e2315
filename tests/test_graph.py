import random

import pytest

from mcf.catalog import build
from mcf.graph import (
    GraphError,
    SimplicialSystem,
    check_non_degenerating,
    degenerate_subgraph,
    find_positive_path,
    strongly_connected_components,
)


def gauss():
    return SimplicialSystem(("1", "2"), ["v"], [("v", "v", "1"), ("v", "v", "2")])


def test_construction_and_shape():
    s = gauss()
    assert s.dim == 2
    assert s.out_labels("v") == ("1", "2")
    assert not s.is_hole("v")


def test_duplicate_out_label_rejected():
    with pytest.raises(GraphError):
        SimplicialSystem(("1", "2"), ["v"], [("v", "v", "1"), ("v", "v", "1")])


def test_unknown_label_rejected():
    with pytest.raises(GraphError):
        SimplicialSystem(("1", "2"), ["v"], [("v", "v", "3")])


def test_unknown_vertex_rejected():
    with pytest.raises(GraphError):
        SimplicialSystem(("1", "2"), ["v"], [("v", "w", "1")])


def test_hole_detection():
    s = SimplicialSystem(("1", "2"), ["v", "h"], [("v", "h", "1"), ("v", "v", "2")])
    assert s.is_hole("h")
    assert "h" in s.holes


def test_edge_matrix_unipotent():
    s = gauss()
    m = s.edge_matrix(0)  # label 1 loses, label 2 wins
    assert m == ((1, 0), (1, 1))
    m2 = s.edge_matrix(1)
    assert m2 == ((1, 1), (0, 1))


def test_path_matrix_multiplicative():
    s = gauss()
    assert s.path_matrix([0, 1]) == ((1, 1), (1, 2))
    with pytest.raises(GraphError):
        broken = SimplicialSystem(
            ("1", "2"), ["a", "b"], [("a", "b", "1"), ("a", "b", "2")]
        )
        broken.path_matrix([0, 1])


def test_json_round_trip():
    s = gauss()
    t = SimplicialSystem.from_json(s.to_json())
    assert t.alphabet == s.alphabet
    assert t.vertices == s.vertices
    assert [(e.src, e.dst, e.label) for e in t.edges] == [
        (e.src, e.dst, e.label) for e in s.edges
    ]


def test_dot_output_mentions_every_edge():
    s = gauss()
    dot = s.to_dot()
    assert dot.count("->") == len(s.edges)


def test_scc_single_component():
    recs = strongly_connected_components(gauss())
    assert len(recs) == 1
    assert recs[0]["edge_bearing"]


def test_scc_condensation_heights():
    s = SimplicialSystem(
        ("1", "2"),
        ["a", "b", "h"],
        [("a", "a", "1"), ("a", "b", "2"), ("b", "b", "1"), ("b", "h", "2")],
    )
    recs = strongly_connected_components(s)
    heights = {tuple(r["vertices"]): r["height"] for r in recs}
    assert heights[("h",)] == 0
    assert heights[("a",)] > heights[("b",)]


def test_degenerate_subgraph_drops_unmarked_edges():
    s = gauss()
    g = degenerate_subgraph(s, ["1"])
    assert len(g.edges) == 1
    assert g.edges[0].label == "1"
    with pytest.raises(GraphError):
        degenerate_subgraph(s, ["9"])


def test_degenerate_subgraph_keeps_vertices_without_marked_edges():
    s = SimplicialSystem(
        ("1", "2"), ["a", "b"],
        [("a", "a", "1"), ("a", "b", "2"), ("b", "a", "2")],
    )
    g = degenerate_subgraph(s, ["1"])
    # b has no edge labeled 1, so its out-edges survive untouched
    assert [e.label for e in g.edges if e.src == "b"] == ["2"]
    assert [e.label for e in g.edges if e.src == "a"] == ["1"]


def test_criterion_gauss_passes():
    rep = check_non_degenerating(gauss())
    assert rep.passes
    assert not rep.scc_failures and not rep.reachability_failures


def test_criterion_single_vertex_three_loops_fails():
    s = SimplicialSystem(
        ("1", "2", "3"), ["v"],
        [("v", "v", "1"), ("v", "v", "2"), ("v", "v", "3")],
    )
    rep = check_non_degenerating(s)
    assert not rep.passes
    # the witness is replayable: it names a label set and a component
    assert rep.scc_failures
    w = rep.scc_failures[0]
    assert set(w["labels"]) < {"1", "2", "3"}
    assert w["component"] == ["v"]


def test_positive_path_is_positive():
    s = gauss()
    p = find_positive_path(s)
    m = s.path_matrix(p)
    assert all(x > 0 for row in m for x in row)
    assert s.edges[p[0]].src == s.edges[p[-1]].dst


def test_positive_path_respects_edge_restriction():
    s = gauss()
    assert find_positive_path(s, allowed_edges=[0]) is None


MATRIX_SYSTEMS = [("brun", 4), ("selmer-restricted", 4), ("arnoux-rauzy", 3),
                  ("cassaigne", 3)]


def unipotent(s, i):
    """Edge matrix from its definition: the identity plus a 1 at
    (winner, loser) for every other out-label of the source vertex."""
    e = s.edges[i]
    loser = s.label_index[e.label]
    m = [[int(r == c) for c in range(s.dim)] for r in range(s.dim)]
    for j in s.out_edges(e.src):
        w = s.label_index[s.edges[j].label]
        if w != loser:
            m[w][loser] = 1
    return tuple(map(tuple, m))


def product(a, b):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a
    )


@pytest.mark.parametrize("name,dim", MATRIX_SYSTEMS)
def test_edge_matrix_is_identity_plus_winner_entries(name, dim):
    s = build(name, dim).system
    for i in range(len(s.edges)):
        assert s.edge_matrix(i) == unipotent(s, i)


@pytest.mark.parametrize("name,dim", MATRIX_SYSTEMS)
def test_path_matrix_is_the_product_of_edge_matrices(name, dim):
    s = build(name, dim).system
    rng = random.Random(f"{name}{dim}")
    for _ in range(40):
        v = rng.choice(s.vertices)
        path = []
        expected = tuple(tuple(int(r == c) for c in range(s.dim))
                         for r in range(s.dim))
        for _ in range(rng.randint(0, 12)):
            if s.is_hole(v):
                break
            i = rng.choice(s.out_edges(v))
            path.append(i)
            expected = product(expected, unipotent(s, i))
            v = s.edges[i].dst
        assert s.path_matrix(path) == expected


def test_act_is_right_multiplication_by_the_edge_matrix():
    s = build("brun", 3).system
    rows = [[3, 5, 7], [1, 0, 2]]
    for i in range(len(s.edges)):
        m = s.edge_matrix(i)
        expected = [list(r) for r in product(tuple(map(tuple, rows)), m)]
        assert s.act(i, [list(r) for r in rows]) == expected


def test_table_lists_out_edges_in_label_order():
    s = build("arnoux-rauzy", 3).system
    for v in s.vertices:
        assert [entry[0] for entry in s.table[v]] == list(s.out_edges(v))
        for i, li, dst, label in s.table[v]:
            e = s.edges[i]
            assert (li, dst, label) == (s.label_index[e.label], e.dst, e.label)


def test_positive_loops_are_unchanged():
    # The loop fixes the induced alphabet, and so kappa.
    assert find_positive_path(build("gauss").system) == [0, 1]
    assert find_positive_path(build("brun", 3).system) == [2, 10, 11, 12, 15]
    gasket = build("arnoux-rauzy", 2)
    exits = set(gasket.meta["exit_edges"])
    allowed = [i for i in range(len(gasket.system.edges)) if i not in exits]
    assert find_positive_path(gasket.system, allowed_edges=allowed) == [
        2, 22, 20, 28, 26, 4]

import contextlib
import hashlib
import json
import random
import re
from dataclasses import asdict

import pytest

from mcf.catalog import NAMES, build
from mcf.graph import (
    CriterionReport,
    GraphError,
    SimplicialSystem,
    check_non_degenerating,
    degenerate_subgraph,
    find_positive_path,
    strongly_connected_components,
)
from mcf.induction import in_cylinder
from mcf.stochastic import cylinder_measure


def gauss():
    return SimplicialSystem(("1", "2"), ["v"], [("v", "v", "1"), ("v", "v", "2")])


def test_construction_and_shape():
    s = gauss()
    assert s.dim == 2
    assert [entry[3] for entry in s.table["v"]] == ["1", "2"]
    assert not s.is_hole("v")


@pytest.mark.parametrize("alphabet, vertices, edges, message", [
    ((), ["v", "v"], [], "empty alphabet"),
    (("1", "1"), ["v", "v"], [], "duplicate letters in alphabet"),
    (("1", "2"), ["v", "v"], [("w", "v", "1")], "duplicate vertex names"),
    (("1", "2"), ["v"], [("w", "x", "3")], "edge source 'w' is not a vertex"),
    (("1", "2"), ["v"], [("v", "w", "3")], "edge target 'w' is not a vertex"),
    (("1", "2"), ["v"], [("v", "v", "3"), ("v", "v", "1"), ("v", "v", "1")],
     "edge label '3' is not in the alphabet"),
    (("1", "2"), ["v"], [("v", "v", "1"), ("v", "v", "1"), ("v", "w", "2")],
     "vertex 'v' has two out-edges labeled '1'"),
], ids=["empty-alphabet", "duplicate-letter", "duplicate-vertex", "unknown-source",
        "unknown-target", "unknown-label", "duplicate-out-label"])
def test_constructor_rejects_a_malformed_system(alphabet, vertices, edges, message):
    # Each input also breaks a later check, so the first failing check wins:
    # the alphabet, then the vertices, then each edge in turn (its source,
    # target, label and then its label's uniqueness at the source).
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        SimplicialSystem(alphabet, vertices, edges)


def test_vertex_lookups_reject_an_unknown_vertex():
    s = gauss()
    lookups = (s.out_edges, s.is_hole, lambda v: s.edge_by_label(v, "1"))
    for lookup in lookups:
        with pytest.raises(GraphError, match="unknown vertex 'nowhere'"):
            lookup("nowhere")


def test_hole_detection():
    s = SimplicialSystem(("1", "2"), ["v", "h"], [("v", "h", "1"), ("v", "v", "2")])
    assert s.is_hole("h")
    assert "h" in s.holes


def test_edge_matrix_unipotent():
    s = gauss()
    m = s.path_matrix([0])  # label 1 loses, label 2 wins
    assert m == ((1, 0), (1, 1))
    m2 = s.path_matrix([1])
    assert m2 == ((1, 1), (0, 1))


def test_path_matrix_multiplicative():
    s = gauss()
    assert s.path_matrix([0, 1]) == ((1, 1), (1, 2))
    with pytest.raises(GraphError):
        broken = SimplicialSystem(
            ("1", "2"), ["a", "b"], [("a", "b", "1"), ("a", "b", "2")]
        )
        broken.path_matrix([0, 1])


@pytest.mark.parametrize("index", [-1, "len"])
def test_paths_reject_an_out_of_range_edge_index(index):
    s = build("brun", 3).system
    path = [len(s.edges) if index == "len" else index]
    calls = (s.check_path, s.path_matrix,
             lambda p: s.act(p[0], [[1, 1, 1]]),
             lambda p: cylinder_measure(s, p, (1, 1, 1)),
             lambda p: in_cylinder(s, p, (1, 1, 1)))
    for call in calls:
        with pytest.raises(GraphError, match="out of range"):
            call(path)


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


def reference_criterion(system):
    """The criterion rebuilt from its definition: a marked subgraph per label
    subset, and a forward search per vertex for each clause."""
    def reaches_every_letter(start):
        full = (1 << system.dim) - 1
        seen, frontier = set(), [(start, 0)]
        while frontier:
            v, mask = frontier.pop()
            for i in system.out_edges(v):
                e = system.edges[i]
                state = (e.dst, mask | 1 << system.label_index[e.label])
                if state[1] == full:
                    return True
                if state not in seen:
                    seen.add(state)
                    frontier.append(state)
        return False

    def escapes(start, comp, labels):
        seen, frontier = {start}, [start]
        while frontier:
            for i in system.out_edges(frontier.pop()):
                e = system.edges[i]
                if e.label not in labels:
                    continue
                if e.dst not in comp:
                    return True
                if e.dst not in seen:
                    seen.add(e.dst)
                    frontier.append(e.dst)
        return False

    unreached = [v for v in system.vertices
                 if not system.is_hole(v) and not reaches_every_letter(v)]
    failures = []
    n = system.dim
    for mask in range(1, (1 << n) - 1):
        labels = {system.alphabet[i] for i in range(n) if mask >> i & 1}
        for rec in strongly_connected_components(degenerate_subgraph(system, labels)):
            comp = rec["vertices"]
            branching = [v for v in comp
                         if len(labels & {system.edges[i].label
                                          for i in system.out_edges(v)}) > 1]
            if (rec["edge_bearing"] and branching
                    and not all(escapes(v, set(comp), labels) for v in comp)):
                failures.append({"labels": sorted(labels),
                                 "component": sorted(comp),
                                 "branching_vertices": sorted(branching)})
    return CriterionReport(not (system.holes or unreached or failures),
                           unreached, failures, list(system.holes))


def random_system(rng):
    n = rng.randint(2, 4)
    alphabet = [str(a) for a in range(1, n + 1)]
    vertices = [f"v{k}" for k in range(rng.randint(1, 7))]
    edges = [(v, rng.choice(vertices), a)
             for v in vertices if rng.random() > 0.15  # else a hole
             for a in alphabet if rng.random() < 0.6]
    rng.shuffle(edges)
    return SimplicialSystem(alphabet, vertices, edges)


def oracle_systems():
    for name in NAMES:
        for dim in (2, 3, 4, 5):
            try:
                yield build(name, dim).system
            except GraphError:
                pass  # not listed at this size
    # ten letters: alphabet order is not sorted order
    yield build("fully-subtractive", 10).system
    rng = random.Random(2024)
    for _ in range(240):
        yield random_system(rng)


def test_criterion_matches_its_definition_without_building_graphs(monkeypatch):
    systems = list(oracle_systems())
    expected = [asdict(reference_criterion(s)) for s in systems]
    # Tarjan visits vertices in order and out-edges in label order, which
    # fixes the order of the witnesses; the digest pins it.
    digest = hashlib.sha256(json.dumps(expected).encode()).hexdigest()
    assert digest == ("6ca86e251812a21293dc8425c06e2056"
                      "08a058c9b91848809db82eca4d371cfa")
    assert any(e["scc_failures"] for e in expected)
    assert any(e["reachability_failures"] for e in expected)
    assert any(e["holes"] for e in expected)
    built = []
    init = SimplicialSystem.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimplicialSystem, "__init__", counting_init)
    for s, e in zip(systems, expected):
        assert asdict(check_non_degenerating(s)) == e
    assert built == []


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
        assert s.path_matrix([i]) == unipotent(s, i)


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
        m = unipotent(s, i)
        expected = [list(r) for r in product(tuple(map(tuple, rows)), m)]
        assert s.act(i, [list(r) for r in rows]) == expected


def test_table_lists_out_edges_in_label_order():
    s = build("arnoux-rauzy", 3).system
    for v in s.vertices:
        assert [entry[0] for entry in s.table[v]] == list(s.out_edges(v))
        for i, li, dst, label in s.table[v]:
            e = s.edges[i]
            assert (li, dst, label) == (s.label_index[e.label], e.dst, e.label)


def test_out_edges_returns_a_copy():
    s = gauss()
    with contextlib.suppress(AttributeError):  # a tuple cannot be reordered
        s.out_edges("v").reverse()
    assert s.table["v"] == ((0, 0, "v", "1"), (1, 1, "v", "2"))
    assert s.out_edges("v") == (0, 1)


def test_positive_loops_are_unchanged():
    # The loop fixes the induced alphabet, and so kappa.
    assert find_positive_path(build("gauss").system) == [0, 1]
    assert find_positive_path(build("brun", 3).system) == [2, 10, 11, 12, 15]
    gasket = build("arnoux-rauzy", 2)
    exits = set(gasket.meta["exit_edges"])
    allowed = [i for i in range(len(gasket.system.edges)) if i not in exits]
    assert find_positive_path(gasket.system, allowed_edges=allowed) == [
        2, 22, 20, 28, 26, 4]

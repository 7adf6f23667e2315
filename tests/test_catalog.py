from fractions import Fraction

import pytest

from mcf.catalog import (
    NAMES,
    DomainEscape,
    _projectively_equal,
    _section_return,
    build,
    catalog_entries,
    conjugacy_check,
    sample_domain_point,
)
from mcf.graph import GraphError
from mcf.induction import BoundaryTieError
from mcf.stochastic import make_rng


def test_catalog_lists_every_name():
    assert {e["name"] for e in catalog_entries()} == set(NAMES)


def test_build_rejects_unknown_name_and_bad_dims():
    with pytest.raises(GraphError):
        build("nope")
    with pytest.raises(GraphError):
        build("gauss", 3)
    with pytest.raises(GraphError):
        build("cassaigne", 4)
    with pytest.raises(GraphError):
        build("brun", 2)
    for name in ("brun", "selmer-restricted", "arnoux-rauzy", "arp"):
        with pytest.raises(GraphError, match="limited to 7 letters"):
            build(name, 8)
    with pytest.raises(GraphError, match="limited to 14 letters, got 15"):
        build("poincare", 15)
    with pytest.raises(GraphError, match="limited to 16 letters, got 17"):
        build("fully-subtractive", 17)


def test_gasket_family_accepts_simplex_dimension():
    assert build("arnoux-rauzy", 2).dim == 3
    assert build("arp", 2).dim == 3


def test_graph_shapes():
    assert len(build("gauss").system.vertices) == 1
    assert len(build("cassaigne").system.vertices) == 3
    assert len(build("cassaigne").system.edges) == 6
    assert len(build("selmer-restricted", 3).system.vertices) == 6
    b = build("brun", 3).system
    assert all(len(b.out_edges(v)) in (2, 3) for v in b.vertices)


def test_arnoux_rauzy_has_holes_and_arp_does_not():
    assert build("arnoux-rauzy", 3).system.holes
    assert not build("arp", 3).system.holes


def test_describe_reports_section():
    d = build("brun", 3).describe()
    assert d["vertices"] == len(build("brun", 3).system.vertices)
    assert set(d["section"]) <= set(build("brun", 3).system.vertices)


def test_gauss_reference_step():
    g = build("gauss")
    assert g.reference_step((7, 3)) == (4, 3)
    assert g.reference_step((3, 7)) == (3, 4)
    with pytest.raises(BoundaryTieError):
        g.reference_step((2, 2))


def test_cassaigne_reference_step_worked_example():
    c = build("cassaigne")
    x = (Fraction(3, 6), Fraction(2, 6), Fraction(1, 6))
    y = c.reference_step(x)
    total = sum(y)
    assert tuple(v / total for v in y) == (
        Fraction(2, 5), Fraction(1, 5), Fraction(2, 5)
    )
    # other branch swaps the roles of the outer coordinates
    assert c.reference_step((1, 5, 3)) == (5, 1, 2)
    with pytest.raises(BoundaryTieError):
        c.reference_step((1, 2, 1))


def test_cassaigne_step_commutes_with_reversal():
    c = build("cassaigne")
    rng = make_rng(12)
    for _ in range(50):
        x, _, _ = sample_domain_point(c, rng, bits=24)
        fx = c.reference_step(x)
        fr = c.reference_step(tuple(reversed(x)))
        assert tuple(reversed(fx)) == fr


@pytest.mark.parametrize("name,dim", [
    ("gauss", 2),
    ("fully-subtractive", 3),
    ("poincare", 3),
    ("brun", 3),
    ("brun", 4),
    ("selmer-restricted", 3),
    ("selmer-restricted", 4),
    ("cassaigne", 3),
    ("arnoux-rauzy", 3),
    ("arp", 3),
])
def test_embed_project_round_trip(name, dim):
    named = build(name, dim)
    rng = make_rng(3)
    for _ in range(20):
        x, v, y = sample_domain_point(named, rng, bits=24)
        assert (v, y) == named.embed(x)
        assert v in named.section
        assert all(k > 0 for k in y)
        px = named.project(v, y)
        s, sx = sum(px), sum(x)
        cx = named.canonical(x)
        assert tuple(Fraction(k, s) for k in px) == tuple(Fraction(k, sx) for k in cx)


def test_selmer_reference_and_domain():
    s = build("selmer-restricted", 3)
    assert s.in_domain((4, 3, 2))
    assert not s.in_domain((6, 2, 1))  # largest exceeds sum of two smallest
    assert s.reference_step((4, 3, 2)) == (2, 3, 2)


def test_brun_reference_step():
    b = build("brun", 3)
    assert b.reference_step((5, 3, 2)) == (2, 3, 2)


def test_arnoux_rauzy_escape():
    ar = build("arnoux-rauzy", 3)
    assert ar.reference_step((7, 2, 1)) == (4, 2, 1)
    with pytest.raises(DomainEscape):
        ar.reference_step((3, 2, 2.5))


def test_section_return_into_a_hole_is_a_domain_escape():
    ar = build("arnoux-rauzy", 3)
    v, y = ar.embed((5, 4, 3))
    with pytest.raises(DomainEscape, match="walk entered hole 'X:1,2,3:0'"):
        _section_return(ar, v, y)


def test_arp_falls_back_instead_of_escaping():
    arp = build("arp", 3)
    assert arp.reference_step((4, 3, 2)) == (1, 1, 2)


@pytest.mark.parametrize(
    "name,dim",
    [
        ("gauss", 2),
        ("fully-subtractive", 3),
        ("poincare", 3),
        ("brun", 3),
        ("brun", 4),
        ("selmer-restricted", 3),
        ("selmer-restricted", 4),
        ("cassaigne", 3),
        ("arp", 3),
    ],
)
def test_conjugacy_exact(name, dim):
    named = build(name, dim)
    r = conjugacy_check(named, trials=25, steps=25, seed=17)
    assert r["failures"] == []
    assert r["agreements"] + r["ties"] + r["escapes"] == 25
    assert r["tie_rate"] < 0.2


def test_sample_domain_point_rejects_points_beyond_int64_cuts():
    with pytest.raises(GraphError, match="bits must be in 1..63"):
        sample_domain_point(build("brun", 3), make_rng(0), bits=80)


@pytest.mark.parametrize("a, b, equal", [
    ((1, 2, 3), (2, 4, 6), True),
    ((0, 1, 2), (0, 3, 6), True),
    ((1, 2, 3), (-1, -2, -3), False),
    ((1, 2, 3), (1, 2, 4), False),
    ((0, 1, 2), (1, 1, 2), False),
    ((1, 2, 3), (0, 0, 0), False),
])
def test_projectively_equal_needs_a_positive_multiple(a, b, equal):
    assert _projectively_equal(a, b) is equal


def test_conjugacy_survives_escapes_for_holed_system():
    named = build("arnoux-rauzy", 3)
    r = conjugacy_check(named, trials=10, steps=10, seed=1)
    assert r["failures"] == []

import hashlib
import json
from fractions import Fraction

import pytest

from mcf.catalog import (
    FAMILIES,
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
    with pytest.raises(GraphError, match="^gauss is limited to 2 letters, got 3: "):
        build("gauss", 3)
    with pytest.raises(GraphError, match="^gauss needs at least 2 letters$"):
        build("gauss", 1)
    with pytest.raises(GraphError, match="^cassaigne is limited to 3 letters, got 4: "):
        build("cassaigne", 4)
    with pytest.raises(GraphError, match="^brun needs at least 3 letters$"):
        build("brun", 2)
    for name in ("brun", "selmer-restricted", "arnoux-rauzy"):
        with pytest.raises(GraphError, match="limited to 7 letters"):
            build(name, 8)
    with pytest.raises(GraphError, match="limited to 14 letters, got 15"):
        build("poincare", 15)
    with pytest.raises(GraphError, match="limited to 16 letters, got 17"):
        build("fully-subtractive", 17)


@pytest.mark.parametrize("dim", [4, 5, 7])
def test_arp_is_three_letter_only(dim):
    with pytest.raises(GraphError, match=f"^arp is limited to 3 letters, got {dim}: "):
        build("arp", dim)


def test_catalog_lists_each_letter_range():
    dims = {e["name"]: e["dims"] for e in catalog_entries()}
    assert dims == {
        "gauss": "2",
        "fully-subtractive": "3-16",
        "poincare": "3-14",
        "brun": "3-7",
        "selmer-restricted": "3-7",
        "cassaigne": "3",
        "arnoux-rauzy": "3-7 (or 2)",
        "arp": "3 (or 2)",
    }


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
    ("fully-subtractive", 4),
    ("brun", 3),
    ("brun", 4),
    ("brun", 5),
    ("selmer-restricted", 3),
    ("selmer-restricted", 4),
    ("selmer-restricted", 5),
    ("cassaigne", 3),
    ("arnoux-rauzy", 3),
    ("arnoux-rauzy", 4),
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


def _family_sizes():
    for name, family in FAMILIES.items():
        lo, hi = family.letters
        for dim in range(lo, min(hi, 5) + 1):
            yield name, dim


# SHA-256 of each family's graph JSON, sorted section and seeded conjugacy
# check, at every letter count from the fewest to five.
CATALOG_PINNED = {
    ("gauss", 2): "3c9dde35595b01c4f800223fe7406f89b785cc28d56fd126c39bcd4d81e26be1",
    ("fully-subtractive", 3): "9c41ac83acfb11043388b1033d59b62b34b514bae4f31b6d9cd4d288c2bc1818",
    ("fully-subtractive", 4): "af0cf41c0c6702328099491f5c1b8f19121b5ca5f891d68456b4629063e42839",
    ("fully-subtractive", 5): "d8db0210c84ee0b5eb194741ac9b35064d0d613bde9d4679b4a7aa0925166f8c",
    ("poincare", 3): "2e706e80c206e57fed61a7e4897af3f0d1b35131df81c9a549177863a381ab47",
    ("poincare", 4): "34f7ffe3a6bc54d54ed321c02d431c902eb1c6d8f335b8db0d693545c7eb53d3",
    ("poincare", 5): "03747f890a864424c72b2799127dcdd9d7c766a254b2c5b48082b1a0e48a1e26",
    ("brun", 3): "3bc526ffd98311df2c751144184267d532e77cef92f493e0aa429e5a9b5fcf2b",
    ("brun", 4): "5ead805db4fc2fe588b12794f64ef66fda514bdc196337f44b60e468f473448a",
    ("brun", 5): "baf22c72a87af4aecb2f7aa3ff1b576230490400823b88f54d2883d05924a12a",
    ("selmer-restricted", 3): "a2e5f1caf941463999616858bb8ba8f5349e743a3ba7875dc6da5a67bce7e487",
    ("selmer-restricted", 4): "a773e2e47de60a1575508fd4f5464ff1d9dd9292ae5176318d25218393d4e9fe",
    ("selmer-restricted", 5): "b4702f7f9c2fd9ed913de58e79fa1bd030763c835fb38df254fce03135d4841a",
    ("cassaigne", 3): "58711c7f6fd6287315618169165fa1f66e8c98cff9e1762d63ce96c4e84c4e14",
    ("arnoux-rauzy", 3): "436563b65aaf965cf1b65a1e62b6a8cae49a1d1e60245f6e6b366bf90b118941",
    ("arnoux-rauzy", 4): "a9d3a9aa76060a5aed923c8feb9555223a6e1926852f23413c342be6d673257f",
    ("arnoux-rauzy", 5): "f96832c9da169895c202bda9360a445f39cc346a3370603e70b2e0bac0007965",
    ("arp", 3): "c0a1bcb7208c0a63cd15233e23e0e9adb0ab48f121dfa4747c19e3880e2598dd",
}


@pytest.mark.parametrize("name, dim", list(_family_sizes()))
def test_catalog_systems_are_pinned(name, dim):
    named = build(name, dim)
    result = conjugacy_check(named, trials=20, steps=20, seed=3)
    doc = [named.system.to_json(), sorted(named.section), result]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == CATALOG_PINNED[name, dim]

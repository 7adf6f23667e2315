import hashlib
import json
from fractions import Fraction

import pytest

from mcf.catalog import (
    FAMILIES,
    NAMES,
    Brun,
    DomainEscape,
    NamedSystem,
    _projectively_equal,
    _section_return,
    build,
    catalog_entries,
    conjugacy_check,
    sample_domain_point,
)
from mcf.graph import GraphError, SimplicialSystem
from mcf.induction import BoundaryTieError
from mcf.stochastic import make_rng, sample_simplex_integers


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
    assert not s.in_domain((0, 3, 2))
    assert not s.in_domain((4, -3, 2))
    assert s.reference_step((4, 3, 2)) == (2, 3, 2)


def test_brun_reference_step():
    b = build("brun", 3)
    assert b.reference_step((5, 3, 2)) == (2, 3, 2)


def test_arnoux_rauzy_escape():
    ar = build("arnoux-rauzy", 3)
    assert ar.reference_step((7, 2, 1)) == (4, 2, 1)
    with pytest.raises(DomainEscape):
        ar.reference_step((3, 2, 2.5))
    with pytest.raises(BoundaryTieError, match="point on the critical wall"):
        ar.reference_step((5, 3, 2))


def test_section_return_into_a_hole_is_a_domain_escape():
    ar = build("arnoux-rauzy", 3)
    v, y = ar.embed((5, 4, 3))
    with pytest.raises(DomainEscape, match="walk entered hole 'X:1,2,3:0'"):
        _section_return(ar, v, y)


def test_section_return_gives_up_after_its_step_guard():
    # the walk loops at v, and the section vertex w is never reached
    graph = SimplicialSystem("12", ["v", "w"], [("v", "v", "1"), ("v", "v", "2")])
    named = NamedSystem("loop", 2, graph, {"w": None})
    with pytest.raises(GraphError, match="no section return within the step guard"):
        _section_return(named, "v", (1, 100))


def _as(cls, named):
    return cls(named.name, named.dim, named.system, named.section, named.meta)


def test_sample_domain_point_redraws_and_gives_up():
    class TiedOnce(Brun):
        ties = 1

        def embed(self, x):
            if self.ties:
                self.ties -= 1
                raise BoundaryTieError("tie")
            return super().embed(x)

    class Nowhere(Brun):
        def in_domain(self, x):
            return False

    brun = build("brun", 3)
    rng = make_rng(5)
    sample_simplex_integers(rng, 3)
    second = sample_simplex_integers(rng, 3)
    assert sample_domain_point(_as(TiedOnce, brun), make_rng(5)) == (
        second, *brun.embed(second))
    with pytest.raises(GraphError, match="could not sample a domain point"):
        sample_domain_point(_as(Nowhere, brun), make_rng(5))


class _WrongBrun(Brun):
    def reference_step(self, x):
        return x


class _TiedBrun(Brun):
    def reference_step(self, x):
        raise BoundaryTieError("tie")


@pytest.mark.parametrize("cls, failed, tied", [(_WrongBrun, 12, 0), (_TiedBrun, 0, 12)])
def test_conjugacy_check_counts_failures_and_ties(cls, failed, tied):
    r = conjugacy_check(_as(cls, build("brun", 3)), trials=12, steps=5, seed=2)
    assert len(r["failures"]) == failed and r["ties"] == tied
    assert r["agreements"] == r["escapes"] == 0
    assert r["tie_rate"] == tied / 12
    assert all(f["step"] == 0 and len(f["point"]) == 3 for f in r["failures"])


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


# SHA-256 of the graph JSON of the largest brun and poincare graphs.
LARGE_PINNED = {
    ("brun", 6): "0b672144c287feed52c4f07d9939f2b317d30b862384a569d5d4e6e1cda7e342",
    ("brun", 7): "0fd45bacd1f5a73dc0ab666b14b9d60c1330c893bf9769dad55dd57b59c9f8ef",
    ("poincare", 6): "66e7d23f90e179079d2b79e0030f12bee9eb2727500c471805529255385302bd",
    ("poincare", 7): "15a0d7ee2a5a6defcea0e2846b7dc620b6af918714eda04e286b7a4e6feeedb9",
    ("poincare", 8): "d1d27bc214ef2e8875b32e9ed72a706f59eb65eb735a4fb504f8b2b9391a8b9c",
    ("poincare", 9): "d3706dfcb59b4f6dd9e2f13a0142fb78cff8901cda4348504d1e57ef90429765",
    ("poincare", 10): "9d9a9fb7c3a84129493d864d5abbeb6316f499e344a0f1a0b7ec38e6989a5f9a",
    ("poincare", 11): "41b4245f304416479c5c0e94d839000bd78ff3398378bc23a710e55c463e80aa",
    ("poincare", 12): "625090f50714520f3891a7ab7f34a10673e25c75482315ecf4e295b69a0bb6ae",
    ("poincare", 13): "512f03d13c7ee492f297213f3e898526596fb84e4d0b7e0bbbcfda786d4cf357",
    ("poincare", 14): "8e7991a381a8ba7024bd1ba2e96222dcc8a6be2745f9489ca12f4c1fa836f87c",
}


@pytest.mark.parametrize("name, dim", list(LARGE_PINNED))
def test_large_graphs_are_pinned(name, dim):
    text = build(name, dim).system.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_PINNED[name, dim]

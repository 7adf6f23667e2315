import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcf.catalog import build
from mcf.graph import SimplicialSystem, find_positive_path, mat_vec
from mcf.induction import (
    BoundaryTieError,
    birkhoff_contraction,
    code_point,
    hilbert_distance,
    in_cylinder,
    induced_step,
    normalize,
    orbit,
    path_norm_ratio,
    step,
)


def gauss():
    return build("gauss").system


def test_normalize_reject_nonpositive_mass():
    from mcf.graph import GraphError

    with pytest.raises(GraphError):
        normalize((0, 0))


def test_step_is_subtract_smaller_from_larger():
    s = gauss()
    v, p, rec = step(s, "v", (Fraction(7), Fraction(3)))
    assert p == (Fraction(4, 7), Fraction(3, 7))
    assert rec.edge_label == "2"
    assert rec.norm_ratio == Fraction(7, 10)


def test_step_tie_raises():
    s = gauss()
    with pytest.raises(BoundaryTieError):
        step(s, "v", (1, 1))


def test_orbit_three_letter_example():
    # at vertex a only labels 2 and 3 compete; 3 holds the smaller mass
    named = build("cassaigne")
    v, p, records = orbit(named.system, "a", (Fraction(3), Fraction(2), Fraction(1)), 1)
    assert [r.edge_label for r in records] == ["3"]
    assert v == "c"
    assert p == (Fraction(3, 5), Fraction(1, 5), Fraction(1, 5))


def test_roof_is_minus_log_mass_ratio():
    s = gauss()
    _, _, records = orbit(s, "v", (2, 5), 3)
    for r in records:
        assert math.isclose(r.roof, -math.log(r.norm_ratio))
        assert 0 < r.norm_ratio < 1


def test_code_point_matches_orbit_labels():
    s = gauss()
    assert code_point(s, "v", (2, 7), 4) == ("1", "1", "1", "2")


def test_in_cylinder_consistent_with_coding():
    s = gauss()
    x = (Fraction(2), Fraction(7))
    path = []
    v = "v"
    for lab in code_point(s, v, x, 4):
        i = s.edge_by_label(v, lab)
        path.append(i)
        v = s.edges[i].dst
    assert in_cylinder(s, path, x)
    other = [1 - (path[0]), ] + path[1:]
    assert not in_cylinder(s, other, x)


def test_path_norm_ratio_telescopes():
    s = gauss()
    x = (Fraction(2), Fraction(7))
    _, _, records = orbit(s, "v", x, 4)
    path = [r.edge for r in records]
    prod = Fraction(1)
    for r in records:
        prod *= r.norm_ratio
    assert path_norm_ratio(s, path, x) == prod


def test_induced_step_greedy_parse_round_trip():
    s = gauss()
    gamma = find_positive_path(s)
    star = tuple(s.edges[i].label for i in gamma)
    x = (Fraction(5), Fraction(8))
    assert in_cylinder(s, gamma, x)
    p2, word, ratio = induced_step(s, "v", x, gamma)
    # the return word never contains the inducing loop as a factor
    joined = star + word
    for k in range(1, len(joined) - len(star) + 1):
        assert joined[k:k + len(star)] != star
    # the consumed path is an actual orbit prefix of the original point
    full = code_point(s, "v", x, len(star) + len(word) + len(star))
    assert full == star + word + star
    assert 0 < ratio < 1


def _orbit_or_tie(system, vertex, point, n):
    try:
        return orbit(system, vertex, point, n)
    except BoundaryTieError as exc:
        return str(exc)


@given(st.lists(st.integers(1, 10**6), min_size=4, max_size=4),
       st.integers(1, 10**4), st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_orbit_is_projective(x, k, n):
    # the same projective point, as integers or as rationals, has one orbit
    s = build("brun", 4).system
    v = s.vertices[0]
    whole = _orbit_or_tie(s, v, tuple(x), n)
    assert _orbit_or_tie(s, v, tuple(Fraction(c, k) for c in x), n) == whole


@pytest.mark.parametrize("name,dim", [("gauss", None), ("brun", 3)])
def test_induced_step_equals_a_replay(name, dim):
    s = build(name, dim).system
    gamma = find_positive_path(s)
    base = s.edges[gamma[0]].src
    m_gamma = s.path_matrix(gamma)
    rng = random.Random(11)
    checked = 0
    for _ in range(12):
        x = tuple(rng.randint(1, 2**1000) for _ in range(s.dim))
        y = mat_vec(m_gamma, x)
        try:
            point, word, ratio = induced_step(s, base, y, gamma)
        except BoundaryTieError:
            continue
        # returns are detected on labels, so the walk need not be back at base
        _, p, records = orbit(s, base, y, len(gamma) + len(word))
        assert p == point
        assert ratio == path_norm_ratio(s, [r.edge for r in records], y)
        assert ratio == math.prod(r.norm_ratio for r in records)
        checked += 1
    assert checked >= 10


def test_tie_message_names_the_normalised_value():
    s = build("brun", 3).system
    with pytest.raises(BoundaryTieError, match="tied minimum 1/3 among out-labels"):
        orbit(s, s.vertices[0], (1, 1, 2), 3)
    # a single step reports the coordinate of the point it was given
    with pytest.raises(BoundaryTieError, match="tied minimum 3 among out-labels of 'v'"):
        step(gauss(), "v", (3, 3))


def test_hilbert_distance_projective_and_positive():
    assert hilbert_distance((1, 2), (2, 4)) == 0
    assert hilbert_distance((1, 0), (1, 1)) == math.inf
    d = hilbert_distance((1, 3), (2, 1))
    assert math.isclose(d, math.log(6))


def test_birkhoff_oracle_values():
    # diameter of the image cone of [[1,1],[1,2]]: log cross-ratio of columns
    m = ((1, 1), (1, 2))
    d = hilbert_distance((1, 1), (1, 2))
    assert math.isclose(birkhoff_contraction(m), math.tanh(d / 4))
    assert birkhoff_contraction(((1, 0), (0, 1))) == 1.0


@given(st.integers(1, 50), st.integers(1, 50), st.integers(1, 50),
       st.integers(1, 50))
@settings(max_examples=30, deadline=None)
def test_birkhoff_contracts_hilbert_distance(a, b, c, d):
    m = ((a, b), (c, d))
    k = birkhoff_contraction(m)
    v, w = (3, 11), (9, 2)
    mv = tuple(m[i][0] * v[0] + m[i][1] * v[1] for i in range(2))
    mw = tuple(m[i][0] * w[0] + m[i][1] * w[1] for i in range(2))
    d0 = hilbert_distance(v, w)
    d1 = hilbert_distance(mv, mw)
    assert d1 <= k * d0 + 1e-9


@given(st.integers(1, 10**6), st.integers(1, 10**6))
@settings(max_examples=50, deadline=None)
def test_gauss_orbit_is_subtractive_euclid(p, q):
    if p == q:
        return
    s = gauss()
    v, pt, rec = step(s, "v", (p, q))
    expect = (p - q, q) if p > q else (p, q - p)
    total = sum(expect)
    assert pt == (Fraction(expect[0], total), Fraction(expect[1], total))

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcf.catalog import build
from mcf.graph import GraphError, find_positive_path, mat_vec
from mcf.induction import (
    BoundaryTieError,
    MaxStepsExceeded,
    in_cylinder,
    induced_step,
    orbit,
)
from mcf.thermo import build_induced_alphabet


def gauss():
    return build("gauss").system


def orbit_labels(system, vertex, point, n):
    """Label sequence of the first n induction steps."""
    return tuple(r.edge_label for r in orbit(system, vertex, point, n)[2])


def test_normalize_reject_nonpositive_mass():
    with pytest.raises(GraphError, match="point must be positive"):
        orbit(gauss(), "v", (0, 0), 1)


def test_step_is_subtract_smaller_from_larger():
    s = gauss()
    v, p, (rec,) = orbit(s, "v", (Fraction(7), Fraction(3)), 1)
    assert p == (Fraction(4, 7), Fraction(3, 7))
    assert rec.edge_label == "2"
    assert rec.norm_ratio == Fraction(7, 10)


def test_step_tie_raises():
    s = gauss()
    with pytest.raises(BoundaryTieError):
        orbit(s, "v", (1, 1), 1)


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
    assert orbit_labels(s, "v", (2, 7), 4) == ("1", "1", "1", "2")


def test_in_cylinder_consistent_with_coding():
    s = gauss()
    x = (Fraction(2), Fraction(7))
    path = []
    v = "v"
    for lab in orbit_labels(s, v, x, 4):
        i = s.edge_by_label(v, lab)
        path.append(i)
        v = s.edges[i].dst
    assert in_cylinder(s, path, x)
    other = [1 - (path[0]), ] + path[1:]
    assert not in_cylinder(s, other, x)


def test_in_cylinder_holds_only_positive_points():
    # the empty path's cylinder is the open positive cone; a point with a
    # zero or negative coordinate was once in it; it is rejected, as by
    # every other entry
    s = build("brun", 3).system
    assert in_cylinder(s, [], (1, 1, 1))
    for x in ((-1, 1, 1), (0, 1, 1)):
        with pytest.raises(GraphError, match="point must be positive and finite"):
            in_cylinder(s, [], x)


def test_path_norm_ratio_telescopes():
    # the end point p of a unit-mass x satisfies x = M p / |M p| for the
    # path matrix M, so the steps' mass ratios multiply to 1 / |M p|
    s = gauss()
    x = (Fraction(2, 9), Fraction(7, 9))
    _, p, records = orbit(s, "v", x, 4)
    pulled = mat_vec(s.path_matrix([r.edge for r in records]), p)
    assert pulled == tuple(c * sum(pulled) for c in x)
    assert math.prod(r.norm_ratio for r in records) == 1 / sum(pulled)


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
    full = orbit_labels(s, "v", x, len(star) + len(word) + len(star))
    assert full == star + word + star
    assert 0 < ratio < 1


def test_induced_step_needs_the_cylinder_and_a_return_within_max_steps():
    s = gauss()
    gamma = find_positive_path(s)
    outside = (Fraction(8), Fraction(5))
    assert not in_cylinder(s, gamma, outside)
    with pytest.raises(GraphError, match="point is not in the inducing cylinder"):
        induced_step(s, "v", outside, gamma)
    with pytest.raises(MaxStepsExceeded, match="no return within 3 steps"):
        induced_step(s, "v", (Fraction(5), Fraction(8)), gamma, max_steps=3)


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
        # returns are detected on edges, so the walk is back at base
        v, p, records = orbit(s, base, y, len(gamma) + len(word))
        assert (v, p) == (base, point)
        assert ratio == math.prod(r.norm_ratio for r in records)
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("name", ["brun", "selmer-restricted"])
def test_every_short_return_word_is_a_letter(name):
    # the induced step and the induced alphabet agree on what a return is
    s = build(name, 3).system
    gamma = find_positive_path(s)
    base = s.edges[gamma[0]].src
    m_gamma = s.path_matrix(gamma)
    max_length = 12
    letters = {s.path_labels(l.word_edges)
               for l in build_induced_alphabet(s, gamma, max_length)}
    # deep points: at 62 bits most returns end in a tie
    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        y = mat_vec(m_gamma, tuple(rng.getrandbits(400) + 1 for _ in range(3)))
        try:
            _, word, _ = induced_step(s, base, y, gamma)
        except BoundaryTieError:
            continue
        if len(word) <= max_length:
            assert word in letters
            checked += 1
    assert checked >= 10


def test_tie_message_names_the_normalised_value():
    s = build("brun", 3).system
    with pytest.raises(BoundaryTieError, match="tied minimum 1/3 among out-labels"):
        orbit(s, s.vertices[0], (1, 1, 2), 3)
    with pytest.raises(BoundaryTieError, match="tied minimum 1/2 among out-labels of 'v'"):
        orbit(gauss(), "v", (3, 3), 1)


@given(st.integers(1, 10**6), st.integers(1, 10**6))
@settings(max_examples=50, deadline=None)
def test_gauss_orbit_is_subtractive_euclid(p, q):
    if p == q:
        return
    s = gauss()
    v, pt, rec = orbit(s, "v", (p, q), 1)
    expect = (p - q, q) if p > q else (p, q - p)
    total = sum(expect)
    assert pt == (Fraction(expect[0], total), Fraction(expect[1], total))


def test_induction_rejects_a_bad_point_or_start_vertex():
    # a short point once ended in an IndexError, a long one was read as if
    # its extra coordinates were not there, an infinite or NaN one ended in
    # an OverflowError or ValueError, a zero one failed only once it
    # competed, and an unknown vertex ended in a KeyError
    s = build("brun", 3).system
    v = s.vertices[0]
    gamma = find_positive_path(s)
    base = s.edges[gamma[0]].src
    for point in ((1, 2), (1, 2, 3, 4), (1, math.inf, 3), (math.nan, 2, 3),
                  (1, 2, 0), (1, -1, 3)):
        problem = (f"has {len(point)} coordinates, the system 3 letters"
                   if len(point) != 3 else "must be positive and finite")
        calls = (lambda: orbit(s, v, point, 3),
                 lambda: orbit(s, v, point, 0),
                 lambda: in_cylinder(s, [s.out_edges(v)[0]], point),
                 lambda: induced_step(s, base, point, gamma))
        for call in calls:
            with pytest.raises(GraphError, match=f"point {problem}"):
                call()
    with pytest.raises(GraphError, match="unknown vertex 'nowhere'"):
        orbit(s, "nowhere", (1, 2, 3), 3)
    with pytest.raises(GraphError, match="unknown vertex 'nowhere'"):
        induced_step(s, "nowhere", (1, 2, 3), gamma)


def test_induced_step_rejects_a_vertex_that_is_not_the_loop_base():
    # every other vertex once walked off and returned a "return word"
    s = build("brun", 3).system
    gamma = find_positive_path(s)
    base = s.edges[gamma[0]].src
    rng = random.Random(0)  # a point whose return has no tie
    point = mat_vec(s.path_matrix(gamma), tuple(rng.getrandbits(400) + 1
                                                for _ in range(3)))
    induced_step(s, base, point, gamma)
    for v in s.vertices:
        if v != base:
            with pytest.raises(GraphError, match=f"gamma_star must be a loop at {v!r}"):
                induced_step(s, v, point, gamma)
    with pytest.raises(GraphError, match="gamma_star must be a loop"):
        induced_step(s, base, point, [])

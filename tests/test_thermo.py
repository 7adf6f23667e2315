import itertools
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mcf.catalog import build
from mcf.graph import GraphError, SimplicialSystem, find_positive_path
from mcf.thermo import (
    Letter,
    _power_log_radius,
    _pressure,
    asymptotic_gasket_bound,
    build_induced_alphabet,
    hausdorff_bound,
    pressure_analysis,
    solve_kappa,
    tuple_log_radii,
)


def gauss():
    return build("gauss").system


def gauss_star():
    s = gauss()
    g = find_positive_path(s)
    assert s.path_labels(g) == ("1", "2")
    return s, g


def expand(records):
    """The log radius of every tuple, one class record after another."""
    return np.repeat(records["log_radius"], records["size"])


def log_radius(matrix):
    """log spectral radius of one matrix, as the radius of a one-letter
    alphabet."""
    return float(expand(tuple_log_radii([Letter((), matrix)], 1))[0])


def test_perron_oracle_fibonacci_square():
    lam = (3 + math.sqrt(5)) / 2
    assert math.isclose(log_radius(((1, 1), (1, 2))), math.log(lam), rel_tol=1e-9)


def test_perron_rank_one():
    assert math.isclose(log_radius(((1, 1), (1, 1))), math.log(2), rel_tol=1e-9)


def test_perron_permutation_similarity_invariant():
    m = ((2, 3, 1), (1, 5, 2), (4, 1, 1))
    # conjugate by the cyclic permutation of coordinates
    p = ((m[1][1], m[1][2], m[1][0]),
         (m[2][1], m[2][2], m[2][0]),
         (m[0][1], m[0][2], m[0][0]))
    assert math.isclose(log_radius(m), log_radius(p), rel_tol=1e-9)


def test_perron_rejects_zero_matrix():
    with pytest.raises(GraphError, match="not primitive"):
        _power_log_radius(np.zeros((2, 2, 1)))


def test_perron_raises_when_the_iteration_cap_is_reached():
    stack = np.array([[1.0, 1.0], [1.0, 2.0]])[:, :, None]
    with pytest.raises(GraphError, match="did not converge"):
        _power_log_radius(stack, max_iter=1)


def restricted_gasket():
    """The arnoux-rauzy(2) gasket without its exit edges."""
    named = build("arnoux-rauzy", 2)
    exits = set(named.meta["exit_edges"])
    allowed = [i for i in range(len(named.system.edges)) if i not in exits]
    return named.system, allowed


@pytest.mark.parametrize("name, dim, L, kappa", [
    ("arnoux-rauzy", 2, 12, 0.99312), ("arp", 3, 10, 0.83519)])
def test_allowed_edges_may_be_any_iterable(name, dim, L, kappa):
    # a one-shot iterator is read once, not once per edge or per search
    named = build(name, dim)
    exits = set(named.meta["exit_edges"])
    allowed = [i for i in range(len(named.system.edges)) if i not in exits]
    loop = find_positive_path(named.system, allowed_edges=allowed)
    est = pressure_analysis(named.system, L, 1, allowed_edges=allowed)
    assert loop == [2, 22, 20, 28, 26, 4]
    assert est.kappa == pytest.approx(kappa, abs=1e-5)
    for again in (tuple, lambda edges: (i for i in edges)):
        assert find_positive_path(named.system, allowed_edges=again(allowed)) == loop
        assert pressure_analysis(named.system, L, 1,
                                 allowed_edges=again(allowed)).kappa == est.kappa


def system_and_edges(name, dim=None):
    """A catalog system with no edge restriction, the restricted gasket for
    ``"gasket"``, or ``dead_end()`` for ``"dead-end"``."""
    if name == "gasket":
        return restricted_gasket()
    if name == "dead-end":
        return dead_end(), None
    return build(name, dim).system, None


def check_class_records(letters, n):
    """The records of ``tuple_log_radii`` against brute force over every
    n-tuple: one record per rotation class, in increasing order of the
    class's smallest tuple, holding the class size and the log radius of
    every tuple in the class."""
    k = len(letters)
    mats = np.array([l.matrix for l in letters], dtype=np.float64)
    tuples = list(itertools.product(range(k), repeat=n))  # a1 most significant
    smallest = [min(t[s:] + t[:s] for s in range(n)) for t in tuples]
    reps = sorted(set(smallest))
    sizes = Counter(smallest)
    records = tuple_log_radii(letters, n)
    assert records.size == len(reps)
    assert records["size"].tolist() == [sizes[r] for r in reps]
    assert int(records["size"].sum()) == k**n
    index = {r: i for i, r in enumerate(reps)}
    expected = []
    for t in tuples:
        prod = mats[t[0]]
        for a in t[1:]:
            prod = prod @ mats[a]
        expected.append(math.log(np.abs(np.linalg.eigvals(prod)).max()))
    got = records["log_radius"][[index[r] for r in smallest]]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    return records


@pytest.mark.parametrize("name, dim, L", [
    ("gauss", None, 4), ("brun", 3, 3), ("brun", 4, 8), ("gasket", None, 10),
])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tuple_log_radii_match_eigenvalues_in_tuple_order(name, dim, L, n):
    s, allowed = system_and_edges(name, dim)
    g = find_positive_path(s, allowed_edges=allowed)
    check_class_records(build_induced_alphabet(s, g, L, allowed), n)


@pytest.mark.parametrize("name, dim, L, n", [
    ("gauss", None, 2, 4), ("brun", 3, 4, 4), ("gauss", None, 1, 6), ("brun", 3, 3, 6),
])
def test_class_records_of_periodic_tuples(name, dim, L, n):
    s = build(name, dim).system
    records = check_class_records(build_induced_alphabet(s, find_positive_path(s), L), n)
    # with two letters or more, every divisor of n is the period of a tuple
    assert set(records["size"].tolist()) == {p for p in range(1, n + 1) if n % p == 0}


def test_pressure_analysis_allocates_no_array_per_tuple():
    # brun(3) at L=12 has 836 letters: 698896 pairs in 349866 classes.  A
    # float array over the pairs, as a gather of the radii into tuple order
    # and a buffer for the sum over them, takes the peak to about 20 MB.
    s = build("brun", 3).system
    tracemalloc.start()
    try:
        est = pressure_analysis(s, 12, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (est.letters, est.products) == (836, 349866)
    assert peak < 12 * 2**20


def test_tuple_guard_raises_before_allocating():
    s, g = gauss_star()
    letters = build_induced_alphabet(s, g, 1)
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match=r"3\^30 tuple products exceed the memory guard"):
            tuple_log_radii(letters, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_tuple_guard_at_a_huge_n_needs_no_power_of_k():
    # 836**(10**7) has 97 million bits: the guard must not compute it
    s = build("brun", 3).system
    letters = build_induced_alphabet(s, find_positive_path(s), 12)
    start = time.process_time()
    with pytest.raises(GraphError, match=r"836\^10000000 tuple products exceed"):
        tuple_log_radii(letters, 10**7)
    assert time.process_time() - start < 1.0


def test_pressure_inputs_out_of_range_raise():
    s, g = gauss_star()
    with pytest.raises(GraphError, match="nonnegative"):
        build_induced_alphabet(s, g, -1)
    with pytest.raises(GraphError):
        tuple_log_radii(build_induced_alphabet(s, g, 4), 0)


def test_thermo_inputs_raise_graph_errors_for_an_empty_gamma_star():
    s, _ = gauss_star()
    with pytest.raises(GraphError, match="nonempty loop"):
        build_induced_alphabet(s, (), 4)
    with pytest.raises(GraphError, match="nonempty loop"):
        pressure_analysis(s, 4, 1, gamma_star=())


def test_hausdorff_bound_rejects_an_empty_alphabet():
    with pytest.raises(GraphError, match="alphabet size must be positive"):
        hausdorff_bound(2.0, 0)


def brute_force_loops(s, base, L, avoid, allowed):
    """Oracle for the letters of ``build_induced_alphabet``: every label
    word of length <= L, followed from ``base`` (a vertex's out-labels are
    distinct, so the labels fix the path), kept when it is a loop in
    ``allowed`` without the factor ``avoid``.  Ordered as documented: the
    empty loop, then the loops grouped by their prefix in depth-first edge
    order, each group in reverse edge order."""
    loops = []
    for length in range(1, L + 1):
        for labels in itertools.product(s.alphabet, repeat=length):
            w, v = [], base
            for a in labels:
                i = next((i for i in s.out_edges(v) if s.edges[i].label == a), None)
                if i is None or (allowed is not None and i not in allowed):
                    break
                w.append(i)
                v = s.edges[i].dst
            else:
                w = tuple(w)
                m = len(avoid)
                if v == base and all(w[j:j + m] != avoid for j in range(length - m + 1)):
                    loops.append(w)

    def rank(i):
        return s.label_index[s.edges[i].label]

    loops.sort(key=lambda w: (tuple(map(rank, w[:-1])), -rank(w[-1])))
    return [()] + loops


def dead_end():
    """Vertex c cannot reach the base a; a has the positive loop 2 3 1."""
    return SimplicialSystem(("1", "2", "3"), ["a", "b", "c"], [
        ("a", "a", "1"), ("a", "b", "2"), ("a", "c", "3"), ("b", "a", "1"),
        ("b", "c", "2"), ("b", "b", "3"), ("c", "c", "1"), ("c", "c", "2"),
    ])


@pytest.mark.parametrize("name, dim, L", [
    ("gauss", None, 9), ("brun", 3, 7), ("gasket", None, 10), ("dead-end", None, 7),
])
def test_loop_words_match_a_brute_force_oracle(name, dim, L):
    s, allowed = system_and_edges(name, dim)
    g = tuple(find_positive_path(s, allowed_edges=allowed))
    if name == "dead-end":
        assert g == (1, 5, 3)
    base = s.edges[g[0]].src
    for length in (0, 1, L):
        got = [l.word_edges for l in build_induced_alphabet(s, g, length, allowed)]
        assert got == brute_force_loops(s, base, length, g, allowed)
        if length == L:
            assert len(got) > 3


def test_loop_words_exclude_forbidden_factor():
    s, g = gauss_star()
    letters = build_induced_alphabet(s, g, 2)
    labeled = {s.path_labels(l.word_edges) for l in letters}
    assert labeled == {(), ("1",), ("2",), ("1", "1"), ("2", "1"), ("2", "2")}


@pytest.mark.parametrize("name,dim,L,restricted", [
    ("brun", 3, 8, False),
    ("arnoux-rauzy", 2, 10, True),
    ("gauss", None, 20, False),
    ("brun", 3, 12, False),
])
def test_letter_matrix_is_the_path_matrix_of_its_loop(name, dim, L, restricted):
    named = build(name, dim)
    s = named.system
    allowed = None
    if restricted:
        exits = set(named.meta["exit_edges"])
        allowed = [i for i in range(len(s.edges)) if i not in exits]
    g = find_positive_path(s, allowed_edges=allowed)
    letters = build_induced_alphabet(s, g, L, allowed)
    assert len(letters) > 10
    for letter in letters:
        assert letter.matrix == s.path_matrix(list(g) + list(letter.word_edges))


def test_alphabet_guard_raises():
    s, g = gauss_star()
    assert len(build_induced_alphabet(s, g, 4)) > 10
    with pytest.raises(GraphError, match="guard of 10 letters"):
        build_induced_alphabet(s, g, 4, max_letters=10)


def test_alphabet_guard_boundary_is_the_exact_letter_count():
    s = build("brun", 3).system
    g = find_positive_path(s)
    assert len(build_induced_alphabet(s, g, 8)) == 54
    assert len(build_induced_alphabet(s, g, 8, max_letters=54)) == 54
    with pytest.raises(GraphError, match="guard of 53 letters"):
        build_induced_alphabet(s, g, 8, max_letters=53)


@pytest.mark.parametrize("name, dim", [("brun", 3), ("gauss", None)])
def test_alphabet_guard_holds_at_a_huge_length(name, dim):
    s = build(name, dim).system
    with pytest.raises(GraphError, match="guard of 200000 letters"):
        build_induced_alphabet(s, find_positive_path(s), 10**6)


def test_letter_count_nondecreasing_in_length():
    s, g = gauss_star()
    counts = [len(build_induced_alphabet(s, g, L)) for L in (2, 4, 6)]
    assert counts == sorted(counts)
    assert counts[0] == 6


def test_letters_are_positive_matrices():
    s, g = gauss_star()
    for letter in build_induced_alphabet(s, g, 4):
        assert all(x > 0 for row in letter.matrix for x in row)


def pressure_at(letters, n, kappa):
    """(1/n) log Z_n at inverse dimension parameter kappa."""
    return _pressure(tuple_log_radii(letters, n), n)(kappa)[0]


def test_partition_sum_at_zero_counts_tuples():
    s, g = gauss_star()
    letters = build_induced_alphabet(s, g, 2)
    for n in (1, 2):
        assert math.isclose(
            pressure_at(letters, n, 0.0), math.log(len(letters) ** n) / n
        )


def test_partition_sum_single_letter_oracle():
    s, g = gauss_star()
    letters = [build_induced_alphabet(s, g, 0)[0]]  # just gamma_star
    assert letters[0].word_edges == ()
    assert letters[0].matrix == ((1, 1), (1, 2))
    lam = math.log((3 + math.sqrt(5)) / 2)
    # rho(M^n) = rho(M)^n, so P(1) = -lam at every n
    for n in (1, 3, 10**6):
        assert math.isclose(pressure_at(letters, n, 1.0), -lam, rel_tol=1e-9)


def test_partition_sum_decreasing_in_kappa():
    s, g = gauss_star()
    letters = build_induced_alphabet(s, g, 4)
    vals = [pressure_at(letters, 1, k) for k in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_solve_kappa_root_property_and_bad_bracket():
    s, g = gauss_star()
    letters = build_induced_alphabet(s, g, 8)
    records = tuple_log_radii(letters, 2)
    kappa, residual = solve_kappa(records, 2)
    assert abs(residual) < 1e-6
    assert 1.5 < kappa < 2.0
    # the root lies below the first bracket and above the second
    for bracket in ((8.0, 16.0), (0.25, 1.0)):
        with pytest.raises(GraphError, match="no pressure sign change"):
            solve_kappa(records, 2, bracket=bracket)


def bisection_kappa(records, n, lo=0.25, hi=16.0):
    """Oracle: bisect the log-sum-exp pressure over every tuple to a width
    of 1e-14."""
    radii = expand(records)

    def pressure(kappa):
        x = -kappa * radii
        m = x.max()
        return (m + math.log(np.exp(x - m).sum())) / n

    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if pressure(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("name,dim,L,n,restricted", [
    ("gauss", None, 8, 2, False),
    ("brun", 3, 8, 1, False),
    ("arnoux-rauzy", 2, 10, 2, True),
])
def test_solve_kappa_matches_a_bisection_oracle(name, dim, L, n, restricted):
    named = build(name, dim)
    s = named.system
    allowed = None
    if restricted:
        exits = set(named.meta["exit_edges"])
        allowed = [i for i in range(len(s.edges)) if i not in exits]
    g = find_positive_path(s, allowed_edges=allowed)
    letters = build_induced_alphabet(s, g, L, allowed)
    records = tuple_log_radii(letters, n)
    kappa, residual = solve_kappa(records, n)
    assert abs(kappa - bisection_kappa(records, n)) < 1e-9
    assert abs(residual) < 1e-9
    assert type(kappa) is float and type(residual) is float


def test_solve_kappa_raises_when_it_does_not_converge():
    s, g = gauss_star()
    letters = build_induced_alphabet(s, g, 8)
    with pytest.raises(GraphError, match=r"did not converge.*\|P\|"):
        solve_kappa(tuple_log_radii(letters, 2), 2, tol=0.0)


def test_pressure_monotone_in_truncation_length():
    s = gauss()
    ks = [pressure_analysis(s, L, 1).kappa for L in (4, 8, 12)]
    assert ks == sorted(ks)
    assert ks[-1] < 2.0  # truncation always underestimates the letter count


def test_restricted_mode_lowers_kappa():
    named = build("arnoux-rauzy", 3)
    s = named.system
    exits = set(named.meta["exit_edges"])
    allowed = [i for i in range(len(s.edges)) if i not in exits]
    g = find_positive_path(s, allowed_edges=allowed)
    full = build("arp", 3).system
    k_sub = pressure_analysis(s, 12, 2, gamma_star=g, allowed_edges=allowed).kappa
    k_full = pressure_analysis(full, 12, 2, gamma_star=g).kappa
    assert k_sub < k_full


def test_hausdorff_bound_values():
    assert hausdorff_bound(3, 3) == 2
    assert math.isclose(hausdorff_bound(3 * 0.825, 3), 1.825, abs_tol=1e-9)
    assert math.isclose(hausdorff_bound(2.8, 4), 2.7)


def test_asymptotic_gasket_bound_values():
    assert math.isclose(asymptotic_gasket_bound(2), 4 / 3)
    assert math.isclose(asymptotic_gasket_bound(4), 3.4)
    gaps = [asymptotic_gasket_bound(d) - (d - 1) for d in (4, 8, 16, 32)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcf import stochastic
from mcf.catalog import build
from mcf.graph import GraphError, SimplicialSystem
from mcf.stochastic import (
    Jump,
    JumpCoord,
    Lose,
    StepCount,
    StoppingTime,
    Win,
    batch_code_points,
    batch_fire_steps,
    batch_record_paths,
    cylinder_measure,
    edge_law,
    estimate_order_prob,
    make_rng,
    sample_simplex_integers,
    sample_walk,
)


def gauss():
    return build("gauss").system


def brun3():
    return build("brun", 3).system


def trap():
    # letters 1 and 2 are self-loops at v; letter 3 leaves v
    return SimplicialSystem(
        ("1", "2", "3"), ["v", "w"],
        [("v", "v", "1"), ("v", "v", "2"), ("v", "w", "3"),
         ("w", "v", "1"), ("w", "v", "2"), ("w", "v", "3")],
    )


class FirstOf(StoppingTime):
    """Fires once A or B has, and keeps which of them fired last time."""

    def __init__(self, a, b):
        self.stops, self.fired = (a, b), (False, False)

    def fires(self, walks, index):
        self.fired = tuple(bool(s.fires(walks, index)[0]) for s in self.stops)
        return np.array([any(self.fired)])


def exact_order_prob(system, vertex, q0, stop_a, stop_b, trials, seed,
                     max_steps=10**4, strict=False):
    """The reference of ``estimate_order_prob``: exact walks on the
    substreams (seed, trial), each ending on the step where A or B first
    fires, so the last state FirstOf saw decides the order."""
    count = truncated = 0
    for t in range(trials):
        first = FirstOf(stop_a, stop_b)
        out = sample_walk(system, vertex, q0, [first], make_rng(seed, t),
                          max_steps)
        a, b = first.fired
        truncated += out.truncated
        count += a and not (strict and b)
    freq = count / trials
    stderr = math.sqrt(max(freq * (1 - freq), 1e-300) / trials)
    return {"frequency": freq, "stderr": stderr, "truncated": truncated}


def test_rng_reproducible_and_stream_separated():
    a = make_rng(7).integers(0, 1 << 30, size=4)
    b = make_rng(7).integers(0, 1 << 30, size=4)
    c = make_rng(7, stream=1).integers(0, 1 << 30, size=4)
    assert (a == b).all()
    assert (a != c).any()


def test_rng_takes_every_64_bit_seed_and_no_other():
    draws = {s: tuple(make_rng(s).integers(0, 1 << 62, size=2))
             for s in (0, 2**63, 2**63 + 1, 2**64 - 1)}
    # from 2**63 on, seeds once collapsed through float64 (2**64 - 1 onto 0)
    assert len(set(draws.values())) == len(draws)
    for seed in (-1, 2**64):
        with pytest.raises(GraphError, match="seed must be in 0..2"):
            make_rng(seed)


def test_simplex_integers_sum_and_positivity():
    rng = make_rng(0)
    for _ in range(20):
        parts = sample_simplex_integers(rng, 4, bits=20)
        assert sum(parts) == 1 << 20
        assert all(p > 0 for p in parts)


def test_simplex_integers_bits_stay_in_int64_cuts():
    rng = make_rng(0)
    assert sum(sample_simplex_integers(rng, 3, bits=63)) == 1 << 63
    for bits in (0, 64, 80):
        with pytest.raises(GraphError, match="bits must be in 1..63"):
            sample_simplex_integers(rng, 3, bits=bits)
    # one part is 2**bits itself, which int64 holds up to 2**62
    assert sample_simplex_integers(rng, 1, bits=62) == (1 << 62,)
    with pytest.raises(GraphError, match="bits must be in 1..62"):
        sample_simplex_integers(rng, 1, bits=63)


def test_compositions_need_as_many_units_as_parts():
    # 2**1 has no three positive parts: the sampler once gave up after 1000
    # draws and the coder redrew forever
    match = "2\\*\\*1 has no composition into 3 positive parts"
    with pytest.raises(GraphError, match=match):
        sample_simplex_integers(make_rng(0), 3, bits=1)
    with pytest.raises(GraphError, match=match):
        batch_code_points(brun3(), brun3().vertices[0], 2, 3, 1, bits=1)
    assert sample_simplex_integers(make_rng(0), 2, bits=1) == (1, 1)
    assert (batch_code_points(gauss(), "v", 2, 3, 1, bits=1) == -2).all()
    # 2**4 has one composition into 16 parts, which 15 cuts in 1..15 hit with
    # chance 15!/15**15: both give up after 1000 draws, where the coder once
    # redrew for seconds
    s = build("fully-subtractive", 16).system
    match = "failed to sample distinct cut points"
    with pytest.raises(GraphError, match=match):
        sample_simplex_integers(make_rng(0), 16, bits=4)
    with pytest.raises(GraphError, match=match):
        batch_code_points(s, s.vertices[0], 2, 1, 1, bits=4)


def test_edge_law_exact():
    law = edge_law(gauss(), "v", (2, 3))
    assert law == {0: Fraction(2, 5), 1: Fraction(3, 5)}
    with pytest.raises(GraphError):
        edge_law(gauss(), "v", (0, 1))
    ar = build("arnoux-rauzy", 3).system
    with pytest.raises(GraphError, match="vertex 'X:1,2,3:0' is a hole"):
        edge_law(ar, "X:1,2,3:0", (1, 1, 1))


def test_cylinder_measure_base_value():
    s = gauss()
    assert cylinder_measure(s, [], (1, 1)) == Fraction(1, 2)
    # one-step cylinders partition the simplex
    assert (
        cylinder_measure(s, [0], (1, 1)) + cylinder_measure(s, [1], (1, 1))
        == Fraction(1, 2)
    )


def path_probability(system, path, q):
    """Chance that a q-walk follows the given path: N(q)/N(q M_gamma)."""
    return cylinder_measure(system, path, q) / cylinder_measure(system, (), q)


def test_path_probability_matches_measure_ratio():
    # the product of the walk's edge laws along the path
    s = brun3()
    v = s.vertices[0]
    path = []
    cur = v
    q = [Fraction(c) for c in (1, 2, 3)]
    chance = Fraction(1)
    for _ in range(3):
        i = s.out_edges(cur)[0]
        chance *= edge_law(s, cur, q)[i]
        s.act(i, [q])
        path.append(i)
        cur = s.edges[i].dst
    assert path_probability(s, path, (1, 2, 3)) == chance


@given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_chain_rule_exact(qa, qb, walk_seed):
    s = gauss()
    rng = make_rng(walk_seed)
    path = []
    cur = "v"
    for _ in range(4):
        i = int(rng.choice(s.out_edges(cur)))
        path.append(i)
        cur = s.edges[i].dst
    q = (qa, qb)
    for cut in range(len(path) + 1):
        g1, g2 = path[:cut], path[cut:]
        q1 = list(q)
        for i in g1:
            s.act(i, [q1])
        lhs = path_probability(s, path, q)
        rhs = path_probability(s, g1, q) * path_probability(s, g2, q1)
        assert lhs == rhs


def test_measure_monotone_under_extension():
    s = gauss()
    q = (1, 1)
    assert cylinder_measure(s, [0, 1], q) < cylinder_measure(s, [0], q)


def test_sample_walk_deterministic_given_seed():
    s = brun3()
    v = s.vertices[0]
    o1 = sample_walk(s, v, (1, 1, 1), [StepCount(50)], make_rng(3))
    o2 = sample_walk(s, v, (1, 1, 1), [StepCount(50)], make_rng(3))
    assert o1.path == o2.path
    assert o1.final_q == o2.final_q
    assert o1.fired_at == {0: 50}
    assert not o1.truncated


def test_sample_walk_q_update_is_exact_and_monotone():
    s = gauss()
    out = sample_walk(s, "v", (1, 1), [StepCount(30)], make_rng(9))
    assert all(isinstance(c, int) for c in out.final_q)
    assert min(out.final_q) >= 1


def test_jump_and_win_fire_reasonably():
    s = brun3()
    v = s.vertices[0]
    out = sample_walk(s, v, (1, 1, 1), [Jump(2), Win("1"), Lose("1")], make_rng(4),
                      max_steps=10**4)
    assert not out.truncated
    assert all(k >= 1 for k in out.fired_at.values())


@pytest.mark.parametrize(
    "system, q0, stop_a, stop_b, strict",
    [
        pytest.param(gauss, (1, 1), Jump(2), Win("1"), False, id="jump-win"),
        pytest.param(brun3, (1, 1, 1), JumpCoord("1", 2), Win("1"), True,
                     id="jumpcoord-win"),
        pytest.param(brun3, (2, 1, 1), Lose("3"), Win("2"), False,
                     id="lose-win"),
        pytest.param(brun3, (1, 1, 1), Win("2"), StepCount(3), True,
                     id="win-stepcount"),
        # stops that hold at step 0: both engines decide them before a step
        pytest.param(gauss, (1, 1), Jump(1), Win("1"), True, id="jump1-win"),
        pytest.param(brun3, (1, 1, 1), Lose("1"), StepCount(0), False,
                     id="lose-stepcount0"),
    ],
)
def test_estimate_order_prob_engines_agree_in_distribution(
    system, q0, stop_a, stop_b, strict
):
    s = system()
    v = s.vertices[0]
    a = estimate_order_prob(s, v, q0, stop_a, stop_b, 4000, 11, strict=strict)
    b = exact_order_prob(s, v, q0, stop_a, stop_b, 4000, 11, strict=strict)
    tol = 3 * math.sqrt(a["stderr"] ** 2 + b["stderr"] ** 2) + 1e-9
    assert abs(a["frequency"] - b["frequency"]) <= tol


def test_jump_coord_alike_at_every_scale_of_q0():
    # (3, 1, 1) and (9, 3, 3) are one projective point; walks that reach
    # exactly tau * q0 must fire at both scales
    s = brun3()
    r = [
        estimate_order_prob(s, s.vertices[0], q0, JumpCoord("1", 2), Win("1"),
                            20000, 1, strict=True)
        for q0 in ((3, 1, 1), (9, 3, 3))
    ]
    tol = 3 * math.sqrt(r[0]["stderr"] ** 2 + r[1]["stderr"] ** 2)
    assert abs(r[0]["frequency"] - r[1]["frequency"]) <= tol


def test_jump_probability_bounded_by_inverse_tau():
    s = gauss()
    r = estimate_order_prob(
        s, "v", (1, 1), JumpCoord("1", 2), Win("1"), 20000, 5, strict=True
    )
    assert r["frequency"] <= 0.5 + 3 * r["stderr"]


def test_batch_record_paths_shape_and_validity():
    s = brun3()
    v = s.vertices[0]
    rec = batch_record_paths(s, v, (1, 1, 1), 10, 100, seed=2)
    assert rec.shape == (100, 10)
    assert ((rec >= 0) & (rec < 3)).all()


def test_batch_record_paths_long_walks_stay_in_float_range():
    # q grows geometrically along a walk; unscaled it overflows within a few
    # thousand steps
    s = brun3()
    rec = batch_record_paths(s, s.vertices[0], (1, 1, 1), 4000, 20, seed=1)
    assert ((rec >= 0) & (rec < 3)).all()
    assert all((rec[:, -500:] == a).any() for a in range(3))


class Seen(StoppingTime):
    """Fires from step n on, as StepCount(n) does, and keeps the step and q
    of every state the engine shows it."""

    def __init__(self, n):
        self.n, self.steps, self.q = n, [], []

    def fires(self, walks, index):
        self.steps.append(walks.step.copy())
        self.q.append(walks.q.copy())
        return StepCount(self.n).fires(walks, index)


def _ks(x, y):
    """Two-sample Kolmogorov-Smirnov distance of two integer samples."""
    grid = np.union1d(x, y)
    fx = np.searchsorted(np.sort(x), grid, side="right") / len(x)
    fy = np.searchsorted(np.sort(y), grid, side="right") / len(y)
    return np.abs(fx - fy).max()


def test_fire_engine_agrees_with_the_exact_walk_on_self_loops():
    # every gauss step is a self-loop, so the batch engine draws whole runs
    # while the exact walk takes single steps.  KS at level 0.001 per stop;
    # on integer-valued samples the test is conservative, so five stops
    # raise a false alarm on at most 0.5% of seeds.
    s = gauss()
    stops = [JumpCoord("1", 3), Win("1"), Lose("2"), Jump(5), StepCount(6)]
    cap, n, m = 40, 2000, 20000
    exact = np.full((len(stops), n), cap + 1)
    for t in range(n):
        out = sample_walk(s, "v", (2, 3), stops, make_rng(31, t), max_steps=cap)
        for j, step in out.fired_at.items():
            exact[j, t] = step
    batch = batch_fire_steps(s, "v", (2, 3), stops, m, 32, cap)
    batch[batch < 0] = cap + 1
    crit = math.sqrt(-math.log(0.001 / 2) / 2) * math.sqrt((n + m) / (n * m))
    for stop, x, y in zip(stops, exact, batch):
        assert _ks(x, y) <= crit, stop


def test_trap_escape_agrees_with_the_exact_engine():
    # letter 3 loses only after the self-loop runs of 1 and 2 at v end;
    # 3 standard errors of the difference, a 0.27% false-alarm rate
    s = trap()
    cap = 40
    fired = batch_fire_steps(s, "v", (4, 4, 1), [Lose("3")], 20000, 41, cap)[0]
    freq = float((fired >= 0).mean())
    r = exact_order_prob(s, "v", (4, 4, 1), Lose("3"), StepCount(cap), 1000,
                         42, max_steps=cap)
    se = math.sqrt(freq * (1 - freq) / 20000 + r["stderr"] ** 2)
    assert abs(freq - r["frequency"]) <= 3 * se


def test_step_counts_are_exact_inside_runs():
    s = gauss()
    seen = Seen(10**9)
    fired = batch_fire_steps(s, "v", (1, 1), [StepCount(37), seen], 2000, 5, 100)
    assert (fired[0] == 37).all()
    steps = np.concatenate(seen.steps)
    # some runs straddle step 37: those lanes never show the engine step 37
    assert (steps == 37).sum() < 2000
    # a lane cut at max_steps ends exactly there, and is shown that state once
    assert (fired[1] == -1).all()
    assert steps.max() == 100
    assert (steps == 100).sum() == 2000


def test_fire_engine_long_walks_stay_in_float_range():
    # with max_steps = 10**7 a single draw may add millions of steps, and
    # q grows without bound: the rescaling keeps it finite and positive,
    # and Jump(3) from (1, 1) fires at step 2 in every lane, whatever the run
    s = gauss()
    seen = Seen(10**5)
    fired = batch_fire_steps(s, "v", (1, 1), [Jump(3), seen], 4, 7, 10**7)
    assert (fired[0] == 2).all()
    assert (fired[1] == 10**5).all()
    q = np.concatenate(seen.q)[:, :2]
    assert np.isfinite(q).all()
    assert (q > 0).all()
    assert max(k.max() for k in seen.steps) >= 10**5
    # a cap past the int64 step counts is no cap
    assert (batch_fire_steps(s, "v", (1, 1), [Jump(3)], 4, 7, 10**30) == 2).all()


def test_first_fires_do_not_depend_on_the_rescale_schedule(monkeypatch):
    # a larger max_steps lets a run grow q more, so q is rescaled more often
    # (every 39 engine steps at 10**7, every 17 past 2**53), on a graph with
    # self-loops or, like brun(3), without; q stays an exact integer below
    # 2**53 up to the thresholds, so the stops fire alike
    stops = [Jump(2**45), JumpCoord("1", 2**45)]
    calls = {"_step": 0, "_halvings": 0}
    for name in calls:
        def counted(*args, name=name, f=getattr(stochastic, name)):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(stochastic, name, counted)
    for s in (gauss(), brun3()):
        calls.update(_step=0, _halvings=0)
        v, q0 = s.vertices[0], (1,) * s.dim
        fired = batch_fire_steps(s, v, q0, stops, 2000, 3, 10**7)
        assert calls["_halvings"] == calls["_step"] // 39 + 1
        # the walk outlasts a rescale at either cap
        assert calls["_step"] > 39
        assert (fired == batch_fire_steps(s, v, q0, stops, 2000, 3, 10**30)).all()
        assert (fired > 0).all()


def test_coding_stops_a_block_once_every_lane_has_tied(monkeypatch):
    # a tie writes -2 to every later step, so steps over a block without
    # live lanes would change nothing; brun(5) ties every row of 2000 points
    # at bits=8 well within 200 steps
    s = build("brun", 5).system
    v = s.vertices[0]
    short = batch_code_points(s, v, 200, 2000, 4, bits=8)
    assert (short[:, -1] == -2).all()
    calls, blocks = [0], []

    def counted_step(*args, f=stochastic._step):
        calls[0] += 1
        return f(*args)

    def counted_blocks(*args, f=stochastic._code_blocks):
        for pts, rows in f(*args):
            blocks.append(rows)
            yield pts, rows

    monkeypatch.setattr(stochastic, "_step", counted_step)
    monkeypatch.setattr(stochastic, "_code_blocks", counted_blocks)
    long = batch_code_points(s, v, 2000, 2000, 4, bits=8)
    assert (long[:, :200] == short).all() and (long[:, 200:] == -2).all()
    # each block steps until its last lane ties: the first -2 of the row
    tied_at = (short == -2).argmax(axis=1)
    assert len(blocks) > 1  # the redrawn rows make a block of their own
    assert calls[0] == sum(tied_at[rows].max() + 1 for rows in blocks)


def test_batch_code_points_marks_ties_not_codes():
    s = gauss()
    rec = batch_code_points(s, "v", 8, 500, seed=6, bits=16)
    assert rec.shape == (500, 8)
    assert ((rec == -2) | ((rec >= 0) & (rec < 2))).all()
    # ties stay ties once marked
    for row in rec:
        seen = False
        for c in row:
            if c == -2:
                seen = True
            assert not (seen and c != -2)


def test_batch_code_points_bits_stay_in_int64():
    # 2**63 itself does not fit in int64: the points would turn float64
    s = brun3()
    assert batch_code_points(s, s.vertices[0], 3, 4, 1, bits=62).dtype == np.int8
    for bits in (0, 63, 64):
        with pytest.raises(GraphError, match="bits must be in 1..62"):
            batch_code_points(s, s.vertices[0], 3, 4, 1, bits=bits)


def test_batch_code_points_matches_exact_coding():
    from mcf.induction import orbit

    s = gauss()
    rec = batch_code_points(s, "v", 6, 50, seed=8, bits=16)
    # regenerate the same points from the same stream
    rng = make_rng(8)
    cuts = rng.integers(1, 1 << 16, size=(50, 1))
    for t in range(50):
        p = int(cuts[t, 0])
        pt = (p, (1 << 16) - p)
        if 0 in pt:
            continue
        row = rec[t]
        if (row == -2).any():
            continue
        labels = tuple(s.alphabet[int(c)] for c in row)
        assert tuple(r.edge_label for r in orbit(s, "v", pt, 6)[2]) == labels
    # 4 cuts in 1..31 repeat in about a fifth of the rows: the redrawn rows
    # code as the sampler's redraw rounds draw them
    s = build("brun", 5).system
    v = s.vertices[0]
    rec = batch_code_points(s, v, 6, 200, seed=8, bits=5)
    rng = make_rng(8)
    pts = stochastic._gaps(rng, 200, 5, 5)
    redrawn = stochastic._zero_rows(pts)
    stochastic._redraw(rng, pts, 5)
    untied = ~(rec == -2).any(axis=1)
    assert (redrawn & untied).sum() >= 10
    for t in np.flatnonzero(untied):
        labels = [r.edge_label for r in orbit(s, v, tuple(pts[t].tolist()), 6)[2]]
        assert [s.alphabet[c] for c in rec[t]] == labels


def test_records_widen_past_128_letters():
    # an int8 record would wrap labels 128 and 129 to -128 and -127
    from mcf.induction import orbit

    letters = [str(a) for a in range(130)]
    s = SimplicialSystem(letters, ["v"], [("v", "v", a) for a in letters])
    q0 = [1] * 130
    q0[128] = 2**40  # letter 128 all but surely loses at every step
    rec = batch_record_paths(s, "v", q0, 5, 50, 1)
    assert rec.dtype == np.int16
    assert (rec == 128).all()
    code = batch_code_points(s, "v", 3, 200, 2, bits=40)
    assert code.dtype == np.int16
    assert (code >= 128).any()
    # regenerate the same points from the same stream: 129 distinct cuts
    cuts = np.sort(make_rng(2).integers(1, 1 << 40, size=(200, 129)), axis=1)
    assert (np.diff(cuts, axis=1) > 0).all()
    for row, c in zip(code, cuts):
        pt = np.diff(c, prepend=0, append=1 << 40).tolist()
        labels = [s.label_index[r.edge_label] for r in orbit(s, "v", pt, 3)[2]]
        assert row.tolist() == labels


def _peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_path_records_take_one_byte_per_label():
    # an int64 record of 100 steps x 2e4 walks alone takes 16 MB, int8 2 MB
    s = brun3()
    v = s.vertices[0]
    assert _peak_mb(lambda: batch_record_paths(s, v, (1, 1, 1), 100,
                                               2 * 10**4, 1)) < 10


def test_coded_points_are_built_column_by_column():
    # The coder draws and walks one block of 2**14 points at a time: at 3
    # parts, 0.4 MB of int64 parts, 0.3 MB of cuts and 0.5 MB of lane values
    # with their spare column, whatever the trial count.  An int8 record of 4
    # steps takes 0.4 MB per 1e5 points; all 1e6 points of 5 parts at once
    # would take 40 MB, their cuts 32 MB.
    s = brun3()
    assert _peak_mb(lambda: batch_code_points(s, s.vertices[0], 4, 10**5, 1)) < 6
    for dim in (3, 5):
        s = build("brun", dim).system
        out = []
        peak = _peak_mb(lambda: out.append(
            batch_code_points(s, s.vertices[0], 4, 10**6, 1)))
        assert peak - out[0].nbytes / 2**20 < 4


def _replay_until_hole(s, vertex, row):
    """Follow a recorded row; a -1 must come at a hole and last to the end."""
    cur = vertex
    for k, c in enumerate(row):
        if c == -2:
            return False
        if c == -1:
            assert s.is_hole(cur)
            assert (row[k:] == -1).all()
            return True
        cur = s.edges[s.edge_by_label(cur, s.alphabet[c])].dst
    return False


def test_batch_engines_retire_lanes_in_holes():
    s = build("arnoux-rauzy", 3).system
    v = s.vertices[0]
    n, trials = 12, 2000
    rec = batch_record_paths(s, v, (1, 1, 1), n, trials, seed=5)
    code = batch_code_points(s, v, n, trials, seed=5)
    for rows in (rec, code):
        holed = [_replay_until_hole(s, v, row) for row in rows]
        assert 0 < sum(holed) < trials
    fired = batch_fire_steps(s, v, (1, 1, 1), [StepCount(n)], trials, seed=5,
                             max_steps=n)[0]
    # the same draws as the recorder: a lane misses its stop exactly when
    # its recorded walk sat in a hole
    assert ((fired == -1) == (rec == -1).any(axis=1)).all()
    assert ((fired == -1) | (fired == n)).all()


def test_fire_steps_without_stops_take_no_step(monkeypatch):
    # no lane has a stop left to wait for: none walks to the cap
    def no_step(*args):
        raise AssertionError("a walk without stops took a step")

    monkeypatch.setattr(stochastic, "_step", no_step)
    s = brun3()
    fired = batch_fire_steps(s, s.vertices[0], (1, 1, 1), [], 1000, 1, 20000)
    assert fired.shape == (0, 1000)


@pytest.mark.parametrize("q0", [(0, 1, 1), (-1, 2, 3), (0, 0, 0)])
def test_batch_engines_reject_a_non_positive_q0(q0):
    s = brun3()
    v = s.vertices[0]
    with pytest.raises(GraphError, match="q0 must be positive"):
        batch_fire_steps(s, v, q0, [StepCount(5)], 10, 1, 5)
    with pytest.raises(GraphError, match="q0 must be positive"):
        batch_record_paths(s, v, q0, 5, 10, 1)
    with pytest.raises(GraphError, match="q0 must be positive"):
        estimate_order_prob(s, v, q0, Jump(2), Win("1"), 10, 1)
    with pytest.raises(GraphError, match="q0 must be positive"):
        sample_walk(s, v, q0, [StepCount(5)], 1)
    # the exact measure: edge 2 once made (0, 1, 1) and (-1, 2, 3) positive
    # and gave them a mass
    for path in ([], [0], [2]):
        with pytest.raises(GraphError, match="q must be positive"):
            cylinder_measure(s, path, q0)


def test_out_of_range_counts_raise():
    s = brun3()
    v = s.vertices[0]
    with pytest.raises(GraphError, match="trials"):
        estimate_order_prob(s, v, (1, 1, 1), Jump(2), Win("1"), 0, 1)
    with pytest.raises(GraphError, match="max_steps"):
        estimate_order_prob(s, v, (1, 1, 1), Jump(2), Win("1"), 10, 1,
                            max_steps=-1)
    with pytest.raises(GraphError, match="max_steps"):
        batch_fire_steps(s, v, (1, 1, 1), [StepCount(0)], 10, 1, -1)
    with pytest.raises(GraphError, match="trials"):
        batch_fire_steps(s, v, (1, 1, 1), [StepCount(0)], -1, 1, 5)
    for n_steps, trials, name in ((-1, 10, "n_steps"), (5, -1, "trials")):
        with pytest.raises(GraphError, match=f"{name} must be non-negative"):
            batch_record_paths(s, v, (1, 1, 1), n_steps, trials, 1)
        with pytest.raises(GraphError, match=f"{name} must be non-negative"):
            batch_code_points(s, v, n_steps, trials, 1)
    assert batch_record_paths(s, v, (1, 1, 1), 0, 3, 1).shape == (3, 0)
    assert batch_code_points(s, v, 4, 0, 1).shape == (0, 4)


def test_engines_reject_an_unknown_vertex():
    s = brun3()
    with pytest.raises(GraphError, match="unknown vertex 'nowhere'"):
        batch_fire_steps(s, "nowhere", (1, 1, 1), [StepCount(3)], 10, 1, 5)
    with pytest.raises(GraphError, match="unknown vertex"):
        batch_record_paths(s, "nowhere", (1, 1, 1), 5, 10, 1)
    with pytest.raises(GraphError, match="unknown vertex"):
        batch_code_points(s, "nowhere", 5, 0, 1)
    with pytest.raises(GraphError, match="unknown vertex"):
        sample_walk(s, "nowhere", (1, 1, 1), [StepCount(3)], 1)
    with pytest.raises(GraphError, match="unknown vertex"):
        edge_law(s, "nowhere", (1, 1, 1))
    with pytest.raises(GraphError, match="unknown vertex"):
        estimate_order_prob(s, "nowhere", (1, 1, 1), Jump(2), Win("1"), 5, 1)


@pytest.mark.parametrize("q0", [(1, 1), (1, 1, 1, 1), (math.inf, 1, 1),
                                (1, math.nan, 1), (1, 1, 0), (1, -1, 1)])
def test_engines_reject_a_q0_of_the_wrong_length(q0):
    # a short q0 once left letter 3 unable to lose, and a long one walked
    # on a coordinate no edge reads; an infinite or NaN q once ended the
    # exact measures and walk in an OverflowError or ValueError
    s = brun3()
    v = s.vertices[0]
    problem = (f"has {len(q0)} coordinates, the system 3 letters"
               if len(q0) != 3 else "must be positive and finite")
    match = f"q0 {problem}"
    with pytest.raises(GraphError, match=match):
        batch_fire_steps(s, v, q0, [StepCount(5)], 10, 1, 5)
    with pytest.raises(GraphError, match=match):
        batch_record_paths(s, v, q0, 5, 10, 1)
    with pytest.raises(GraphError, match=match):
        sample_walk(s, v, q0, [StepCount(5)], 1)
    with pytest.raises(GraphError, match=match):
        estimate_order_prob(s, v, q0, Lose("3"), Win("3"), 10, 1)
    # the exact measures: a long q once gave a result, a short one an
    # IndexError or, on the empty path, a wrong mass
    match = f"q {problem}"
    with pytest.raises(GraphError, match=match):
        edge_law(s, v, q0)
    with pytest.raises(GraphError, match=match):
        cylinder_measure(s, [], q0)


def test_engines_reject_a_stop_on_a_letter_outside_the_alphabet():
    # each once ended in a bare KeyError when the stop was first evaluated
    s = brun3()
    v = s.vertices[0]
    calls = {
        "'9'": lambda: estimate_order_prob(s, v, (1, 1, 1), Win("9"), Jump(2), 10, 1),
        "'x'": lambda: sample_walk(s, v, (1, 1, 1), [JumpCoord("x", 2)], 1),
        "1": lambda: batch_fire_steps(s, v, (1, 1, 1), [Lose(1)], 10, 1, 100),
    }
    for letter, call in calls.items():
        with pytest.raises(GraphError, match=f"reads letter {letter}, which is not"):
            call()


def test_engines_walk_a_q0_beyond_the_float_range_like_its_scaled_copy():
    # q is projective, so (10**400, 3 * 10**400) walks like (1, 3)
    s = gauss()
    v = s.vertices[0]
    big = (10**400, 3 * 10**400)
    assert (batch_record_paths(s, v, big, 40, 200, 3)
            == batch_record_paths(s, v, (1, 3), 40, 200, 3)).all()
    stops = (JumpCoord("1", 2), Win("1"))
    assert (estimate_order_prob(s, v, big, *stops, 500, 4)
            == estimate_order_prob(s, v, (1, 3), *stops, 500, 4))
    # floats scale on the same path, exactly
    floats = (2.0**1000, 3 * 2.0**1000)
    assert (batch_record_paths(s, v, floats, 40, 200, 3)
            == batch_record_paths(s, v, (1, 3), 40, 200, 3)).all()
    # a coordinate that underflows against the largest is not positive,
    # and neither is an infinite or NaN float
    for q0 in [(10**400, 1), (1.0, 10**400), (math.inf, 1), (math.nan, 1)]:
        with pytest.raises(GraphError, match="q0 must be positive"):
            batch_record_paths(s, v, q0, 5, 10, 1)


def test_code_blocks_do_not_change_the_coding(monkeypatch):
    s = build("arnoux-rauzy", 3).system
    v = s.vertices[0]
    whole = batch_code_points(s, v, 10, 500, 9, bits=10)
    monkeypatch.setattr(stochastic, "_CODE_BLOCK", 7)
    assert (batch_code_points(s, v, 10, 500, 9, bits=10) == whole).all()
    assert (whole == -2).any() and (whole == -1).any()
    # Rows with a repeated cut are redrawn after the last block, in row order.
    # brun(5) at bits=3 redraws about 65 % of its rows over many rounds (4
    # cuts in 1..7 are distinct with probability 840/2401), brun(3) at bits=2
    # a third of them.
    draws = []
    gaps = stochastic._gaps

    def counted(rng, m, n, bits):
        draws.append(m)
        return gaps(rng, m, n, bits)

    monkeypatch.setattr(stochastic, "_gaps", counted)
    for dim, bits, rounds in ((5, 3, 16), (3, 2, 5)):
        s = build("brun", dim).system
        v = s.vertices[0]
        for block in (2**14, 1, 7):
            monkeypatch.setattr(stochastic, "_CODE_BLOCK", block)
            draws.clear()
            code = batch_code_points(s, v, 6, 300, 9, bits=bits)
            if block == 2**14:
                whole = code
            assert (code == whole).all()
            # one draw per block, then one per redraw round
            assert len(draws) == -(-300 // block) + rounds


def test_order_walks_stop_once_their_order_is_decided(monkeypatch):
    # from (7, 2, 9) the first step either makes letter 1 lose, which more
    # than doubles its coordinate, or lets it win: every order is decided
    calls = []
    step = stochastic._step

    def counted(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(stochastic, "_step", counted)
    s = brun3()
    r = estimate_order_prob(s, s.vertices[0], (7, 2, 9), JumpCoord("1", 2),
                            Win("1"), 1000, 3, max_steps=10**4, strict=True)
    assert len(calls) == 1
    assert r["truncated"] == 0


def test_exact_order_walks_stop_once_their_order_is_decided(monkeypatch):
    # as above: one q-law draw decides every walk, and each step acts once
    calls = []
    act = SimplicialSystem.act

    def counted(*args):
        calls.append(1)
        return act(*args)

    s = brun3()
    monkeypatch.setattr(SimplicialSystem, "act", counted)
    r = exact_order_prob(s, s.vertices[0], (7, 2, 9), JumpCoord("1", 2),
                         Win("1"), 200, 3, max_steps=10**4, strict=True)
    assert len(calls) == 200
    assert r["truncated"] == 0


@pytest.mark.parametrize("estimate", [estimate_order_prob, exact_order_prob],
                         ids=["batch", "exact"])
def test_truncated_counts_the_undecided_walks(estimate):
    s = brun3()
    v = s.vertices[0]
    decided = estimate(s, v, (1, 1, 1), StepCount(0), StepCount(10**6), 50, 2,
                       max_steps=5)
    assert decided["frequency"] == 1.0
    assert decided["truncated"] == 0
    undecided = estimate(s, v, (1, 1, 1), StepCount(10**6), StepCount(10**6),
                         50, 2, max_steps=5)
    assert undecided["truncated"] == 50


def _digest(a):
    h = hashlib.sha256(str(a.shape).encode())
    h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()


# SHA-256 of the seeded batch_fire_steps, batch_record_paths and
# batch_code_points outputs below; the last one codes 8-bit points, which tie
PINNED = {
    ("arnoux-rauzy", 3): (
        "ee3ad3b33e380f72b8bb985c3153ac559a06b14f9a755affaa07315e3c873ccf",
        "35f6cf661d12406e5c28a73f3c23ac530b3f743990f068c16b68e8101a1883f9",
        "13afba866892d1de3e2eda0baa18dd6a0475e29a7e9e552fdec97adc53340ed2",
        "38d162a71d70e866bf4e944e224588b9c9a47d0b5d0e2b8cf41a18ca2ff116d2",
    ),
    ("gauss", 2): (
        "0d250b060a11a54c92b041c5874e4ea37eb6088a7ecf5f36db873654d0b45f2b",
        "0d6bd43a813128b5677f82723a296018df2bb3e6d9663c1b3da40fd14380abd4",
        "d48111ed80c12eca35881fccd192b27895c73d548949ceb9a73199c0f31a2569",
        "c2516240e5cc63183946d1822215f35a4179b5d346490998dfb904ff5478b666",
    ),
    ("brun", 3): (
        "0fcf3695ed031647cf1b7f4a0b3ed2dbc5ede51c95de522c01120df43a0b0b2f",
        "d2626100158d399ca394fda4e49ecf4d2c5a40c89b6552024dbca0186a788ed5",
        "a03355cb9425e298bc5de84f23aaf53787617668306f983cacf20731bfee110f",
        "af3623794a7cbbdb8f9d1dddbb7153e7d0bb2d8965fe2299afc3e8f99be3ec5f",
    ),
    ("brun", 5): (
        "709657ab088a8f543449478da75853bd74e7b7d53dc82a072d957914ae31058d",
        "968d3c0b14238f88703d85202d8e0f1c0ca2b00cf4724c617dc65acdbbb85c84",
        "7e59ed1fc388069f3988bd604a674185351094ce1f4f422d6e7a5d1e8e2d4d01",
        "959a7207b58596b55fe127518b37cb5e0e377253dd89d2c0379390d004800a3d",
    ),
    ("poincare", 3): (
        "ad1757ca16a6dc5e88279fbaf1ce8aaf3d5d7775637744526919e9b7a590ee91",
        "e977177198f0122a14b91268a557dce7ab89faf59658b90473c13ad4f0e6d4a7",
        "de46b1098f900a7e1e0b04669612abc44bf49a3bda2bc0c3691d71ca7fc39b3f",
        "1393982f31e3afaa314124a9547597704249ef0f14bc5064b5c0cee435e1a48f",
    ),
}


@pytest.mark.parametrize("name, dim", sorted(PINNED))
def test_seeded_engine_outputs_are_pinned(name, dim):
    # the engines' draw order is part of their output: a change to it must
    # update these digests and say why.  arnoux-rauzy has holes: all 200
    # recorded walks enter one.  poincare's out-degrees differ, so its walks
    # read padded table slots.  Some 8-bit points tie on every system.
    s = build(name, dim).system
    v = s.vertices[0]
    q0 = tuple(range(2, dim + 2))
    stops = [JumpCoord("1", 3), Win("2"), Lose(s.alphabet[-1]), Jump(50),
             StepCount(90)]
    fired = batch_fire_steps(s, v, q0, stops, 400, 21, 150)
    rec = batch_record_paths(s, v, q0, 150, 200, 22)
    code = batch_code_points(s, v, 12, 400, 23)
    tied = batch_code_points(s, v, 12, 400, 24, bits=8)
    assert tuple(map(_digest, (fired, rec, code, tied))) == PINNED[name, dim]


# SHA-256 of the seeded batch_fire_steps output below.  The trap mixes slots
# that are self-loops (letters 1 and 2 at v) with slots that are not, so its
# lanes draw a run length on some steps and not on others.
TRAP_PINNED = "6427ca445d81ac96fb7867222e22a38a830280f4ff1a043ecef8d3b9e3dc8a9a"


def test_seeded_trap_fire_steps_are_pinned():
    stops = [Lose("3"), Win("1"), JumpCoord("2", 8), StepCount(90)]
    fired = batch_fire_steps(trap(), "v", (4, 4, 1), stops, 400, 25, 150)
    assert _digest(fired) == TRAP_PINNED


# SHA-256 of the seeded sample_walk outcomes below: 150 walks on each of five
# cases, with Fraction, 400-digit and float coordinates of q0, walks into
# holes and walks cut at max_steps.
WALK_PINNED = "8cce8fa7a3a5fa14952abf3e5a6440de1d320c42866c93e3ed744365814f7e6e"


def test_seeded_exact_walks_are_pinned():
    cases = [
        (gauss(), (Fraction(2, 3), Fraction(5, 7)),
         [JumpCoord("1", 3), Win("1"), Lose("2"), Jump(5), StepCount(6)], 12),
        (brun3(), (10**400, 3 * 10**400, 7), [Lose("1"), Win("1")], 40),
        (build("brun", 4).system, (0.25, 1.5, 2.0, 3.1), [Lose("4"), Win("1")],
         30),
        (build("arnoux-rauzy", 3).system, (2, 3, 4), [Win("1"), Jump(6)], 30),
        (build("poincare", 4).system, (1, 2, 3, 4),
         [JumpCoord("2", 5), Lose("1")], 30),
    ]
    h = hashlib.sha256()
    for k, (s, q0, stops, cap) in enumerate(cases):
        for t in range(150):
            o = sample_walk(s, s.vertices[0], q0, stops, make_rng(60 + k, t),
                            max_steps=cap)
            # exact, with the type, and in hex: Python caps the decimal
            # digits of an int it converts to a string
            q = [f"{type(c).__name__}:{c.numerator:x}/{c.denominator:x}"
                 for c in o.final_q]
            h.update(repr((o.path, q, sorted(o.fired_at.items()),
                           o.truncated)).encode())
    assert h.hexdigest() == WALK_PINNED

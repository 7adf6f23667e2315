"""Distortion-vector walks, projective measures, and Monte Carlo estimators.

The law of a random path is driven by a positive row vector q: at each vertex
an out-edge is drawn with probability proportional to the q-coordinate of its
label, after which the loser coordinate becomes the sum of the competing
coordinates (q <- q M_e).  Cylinder masses of the projective measures come in
exact rational form; sampling engines exist in two flavors, an exact per-trial
one and vectorized batch ones for large experiments.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .graph import GraphError


def make_rng(seed, stream=None):
    """Counter-based generator; ``stream`` selects a per-trial substream.

    ``seed`` is one 64-bit word of the Philox key, so it runs from 0 to
    2**64 - 1.
    """
    seed = int(seed)
    if not 0 <= seed < 1 << 64:
        raise GraphError(f"seed must be in 0..2**64-1, got {seed}")
    # a list of Python ints would pass through float64 from 2**63 on
    key = np.array([seed, 0 if stream is None else int(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# -- exact samplers --------------------------------------------------------


def _check_composition(n, bits, max_bits):
    """Reject a ``bits`` outside 1..max_bits, and n positive parts that 2**bits
    cannot hold: n - 1 distinct cuts in 1..2**bits - 1 need n <= 2**bits."""
    if not 1 <= bits <= max_bits:
        raise GraphError(f"bits must be in 1..{max_bits}, got {bits}")
    if n > 1 << bits:
        raise GraphError(f"2**{bits} has no composition into {n} positive parts")


def _gaps(rng, m, n, bits):
    """m compositions of 2**bits into n parts (gap method), as the rows of an
    (m, n) int64 array.

    Each row sorts n - 1 cuts drawn from 1..2**bits - 1 and takes their gaps,
    column by column.  A row with a repeated cut has a zero part.
    """
    hi = 1 << bits
    cuts = rng.integers(1, hi, size=(m, n - 1))
    cuts.sort(axis=1)
    ends = [0, *cuts.T]
    pts = np.empty((m, n), dtype=np.int64)
    for col, right, left in zip(pts.T, ends[1:], ends):
        np.subtract(right, left, out=col)
    # hi - left, without 2**63, which int64 does not hold
    np.subtract(hi - 1, ends[-1], out=pts[:, -1])
    pts[:, -1] += 1
    return pts


def _zero_rows(pts):
    """Rows of ``pts`` with a zero part, column by column."""
    return functools.reduce(np.logical_or, (c == 0 for c in pts.T))


def _redraw(rng, pts, bits):
    """Redraw, in place and in row order, the rows of the ``_gaps`` draw
    ``pts`` that have a zero part, until none is left; raises once a row has
    been drawn 1000 times, its first draw included.  Returns ``pts``."""
    for redraws in itertools.count():
        bad = _zero_rows(pts)
        if not bad.any():
            return pts
        if redraws == 999:  # 1000 draws before giving up
            raise GraphError("failed to sample distinct cut points")
        pts[bad] = _gaps(rng, np.count_nonzero(bad), pts.shape[1], bits)


def sample_simplex_integers(rng, n, bits=62):
    """Uniform composition of 2**bits into n positive parts (gap method).

    The cuts and parts are int64, so ``bits`` runs from 1 to 63, and to 62
    for one part, which is 2**bits itself.
    """
    _check_composition(n, bits, 63 if n > 1 else 62)
    return tuple(_redraw(rng, _gaps(rng, 1, n, bits), bits)[0].tolist())


# -- measures --------------------------------------------------------------


def edge_law(system, vertex, q):
    """Exact probabilities of the out-edges at a vertex under distortion q."""
    if system.is_hole(vertex):
        raise GraphError(f"vertex {vertex!r} is a hole")
    system.check_point(q, "q")
    weights = {i: Fraction(q[li]) for i, li, _ in system.table[vertex]}
    total = sum(weights.values())
    return {i: w / total for i, w in weights.items()}


def cylinder_measure(system, path, q):
    """Projective mass of a path cylinder: (1/n!) prod_i 1/(q M_gamma)_i."""
    system.check_path(path)
    system.check_point(q, "q")
    qm = [Fraction(c) for c in q]
    for i in path:
        system.act(i, [qm])
    return _cone_mass(qm)


def _cone_mass(qm):
    """(1/n!) prod_i 1/qm_i: the mass of a cylinder whose q M_gamma is qm.
    The edge action keeps a positive q positive."""
    out = Fraction(1, math.factorial(len(qm)))
    for c in qm:
        out /= c
    return out


# -- stopping times --------------------------------------------------------


class Walks(NamedTuple):
    """Walk states, one row per lane, as the stopping times read them.

    ``q`` and ``q0`` are the current and the start distortion, scaled by the
    same factor in each lane; ``q`` may end in a column of zeros past the
    alphabet.  ``loser`` is the label index of the last loser, -1 before the
    first step.  ``present`` holds the label indices that competed at the
    last source vertex, padded with indices past the alphabet, and has no
    columns before the first step.  ``step`` counts each lane's steps taken.
    """

    q: np.ndarray
    q0: np.ndarray
    loser: np.ndarray
    present: np.ndarray
    step: np.ndarray


class StoppingTime:
    """Rule on walk states, evaluated at step 0 and after every step.

    A stop must be monotone along a self-loop run: while one self-loop keeps
    losing, the loser and ``present`` stay fixed and only the loser's
    coordinate and the step grow, and a stop that fires at some step of the
    run must fire at every later one.  The batch firing engine draws a run in
    one go and finds the first firing step inside it by bisection.  Every
    stop below holds this.
    """

    def fires(self, walks, index):
        """Boolean array over the lanes of ``walks``; ``index`` maps labels
        to coordinates."""
        raise NotImplementedError


@dataclass(frozen=True)
class Jump(StoppingTime):
    tau: int

    def fires(self, walks, index):
        return walks.q.max(axis=1) >= self.tau * walks.q0.max(axis=1)


@dataclass(frozen=True)
class JumpCoord(StoppingTime):
    label: str
    tau: int

    def fires(self, walks, index):
        a = index[self.label]
        return walks.q[:, a] >= self.tau * walks.q0[:, a]


@dataclass(frozen=True)
class Win(StoppingTime):
    label: str

    def fires(self, walks, index):
        a = index[self.label]
        return (walks.loser != a) & (walks.present == a).any(axis=1)


@dataclass(frozen=True)
class Lose(StoppingTime):
    label: str

    def fires(self, walks, index):
        return walks.loser == index[self.label]


@dataclass(frozen=True)
class StepCount(StoppingTime):
    n: int

    def fires(self, walks, index):
        return walks.step >= self.n


@dataclass
class WalkOutcome:
    path: list
    final_q: tuple
    fired_at: dict  # stop index -> first step at which it fired
    truncated: bool


def sample_walk(system, vertex, q0, stops, rng, max_steps=10**6):
    """Walk the q-law until every stopping time has fired (or truncation).

    ``rng`` may be a Generator or an integer seed.  Coordinates of q stay
    exact (integers stay integers); the random edge choice inverts the exact
    cumulative law at a dyadic uniform draw.  The stopping times see the walk
    as a batch of one lane, at step 0 and after every step.  This per-trial
    exact walk is the reference of the batch engines: a stop that fires when
    the first of two others does ends it where ``estimate_order_prob`` ends
    a walk.
    """
    if isinstance(rng, (int, np.integer)):
        rng = make_rng(rng)
    system.check_point(q0, "q0")
    q = [Fraction(c) if not isinstance(c, int) else c for c in q0]
    system.out_edges(vertex)  # raises on an unknown vertex
    start = np.array([q], dtype=object)
    index = system.label_index
    cur, path, fired_at = vertex, [], {}
    loser, present = -1, ()
    while True:
        walks = Walks(np.array([q], dtype=object), start, np.array([loser]),
                      np.array([present], dtype=np.int64), np.array([len(path)]))
        for j, s in enumerate(stops):
            if j not in fired_at and s.fires(walks, index)[0]:
                fired_at[j] = len(path)
        out = system.table[cur]
        if len(fired_at) == len(stops) or len(path) >= max_steps or not out:
            break
        present = tuple(entry[1] for entry in out)
        cumulative = list(itertools.accumulate(q[li] for li in present))
        # u < c / total exactly when u * total < c; u < 1 always picks an edge
        u = Fraction(int(rng.integers(0, 1 << 53)), 1 << 53) * cumulative[-1]
        i, loser, cur = next(e for e, c in zip(out, cumulative) if u < c)
        system.act(i, [q])
        path.append(i)
    truncated = len(fired_at) < len(stops)
    return WalkOutcome(path, tuple(q), fired_at, truncated)


def estimate_order_prob(
    system, vertex, q0, stop_a, stop_b, trials, seed, max_steps=10**4,
    strict=False,
):
    """Monte Carlo frequency of {A fires no later than B} (or strictly before).

    The walks run in the batch firing loop on one stream, ``make_rng(seed)``,
    and each stops once its order is decided, on the step where A or B first
    fires (both are evaluated on that step, so a tie still counts).
    ``truncated`` counts the walks whose order is undecided at max_steps:
    neither stop fired, by then or before the walk entered a hole.
    """
    if trials < 1:
        raise GraphError("trials must be positive")
    _non_negative(max_steps=max_steps)
    a, b = _fire_steps(system, vertex, q0, [stop_a, stop_b], trials, seed,
                       max_steps, 1)
    first = a < b if strict else a <= b
    count = int(((a >= 0) & ((b < 0) | first)).sum())
    truncated = int(((a < 0) & (b < 0)).sum())
    freq = count / trials
    stderr = math.sqrt(max(freq * (1 - freq), 1e-300) / trials)
    return {
        "trials": trials,
        "fired_counts": {"A": count},
        "truncated": truncated,
        "frequency": freq,
        "stderr": stderr,
        "seed": seed,
    }


# -- vectorized batch engines ---------------------------------------------
#
# The three engines share one step: each live lane reads its vertex's slots
# in a padded out-edge table, a chooser picks the losing slot and the new
# values, and the lane moves to the slot's target.  The step reads the table
# and the lane values as flat columns, one per slot, with 1-D takes: on
# tables a few slots wide, 2-D fancy indexing costs more than the arithmetic.
# The choosers sum, count and take minima column by column, left to right as
# np.cumsum and argmin do, so every draw is that of a row-wise step.  Lanes
# retire when they enter a hole, tie, or have nothing left to record, and
# only then are the lane arrays compacted.  Every other reduction over a
# lane's values, such as the max that rescales q, also runs column by column.
# The recording engines fill a step-major array of ``_record_dtype`` and
# return its transpose.  ``batch_code_points`` draws and walks its lanes in
# blocks of ``_CODE_BLOCK``, which bound the points and the step's
# temporaries and, as its coding is exact and its draws keep their order,
# leave its output as it is.  A lane of ``batch_fire_steps`` walks
# until all of its stops have fired, one of ``estimate_order_prob`` until one
# has, since the order is decided then.
# Both run one firing loop on every graph.  Its chooser draws a self-loop
# run's length only where the drawn slot is a self-loop, so on graphs without
# them it draws ``_q_draw``'s stream; each lane counts its own steps.

# A self-loop run of K further losses adds K S to q_e' (see ``_RunDraw``).
# S <= q_e', and K S < 2**53 q_e' since the uniform of the inverse-CDF draw is
# at most 1 - 2**-53, so a run multiplies q_e' by at most 1 + min(K, 2**53).
_RUN_CAP = 2**53

# Lanes of a ``batch_code_points`` block: it bounds the points drawn at once
# as well as the lanes walked at once.
_CODE_BLOCK = 2**14


def _rescale_every(width, run_growth):
    """Steps between rescales of q that keep max(q) below 2**960.

    A step multiplies max(q) by at most the out-degree ``width``, and by
    ``run_growth`` more when it draws a self-loop run.  At most 64 steps, the
    count at out-degree 2**15 without runs.
    """
    return max(1, int(960 // max(15, math.log2(width * run_growth))))


def _non_negative(**counts):
    for name, n in counts.items():
        if n < 0:
            raise GraphError(f"{name} must be non-negative")


# Value of the spare column in the exact engine: never the minimum.
_NEVER_MIN = np.iinfo(np.int64).max


class _PaddedTable(NamedTuple):
    """The system's out-edge table, one row per slot and right-aligned.

    Entry [j, v] of ``label`` and ``target`` gives the label index and the
    target vertex index of slot j at vertex index v.  Slots before the
    out-edges are padding: they point at the spare column past the alphabet
    and back at v.  ``hole`` marks the vertices without out-edges, and
    ``loop`` the slots that are self-loops; each is None when there are none.
    """

    label: np.ndarray
    target: np.ndarray
    hole: np.ndarray | None
    loop: np.ndarray | None

    def entry(self, vertex, slot):
        """Flat index of the entries at ``slot`` of each lane's ``vertex``:
        v + j V, with V the vertex count."""
        return vertex + self.label.shape[1] * slot


def _padded_table(system):
    index = system.vertex_index
    width = max(len(out) for out in system.table.values())
    label = np.full((width, len(index)), system.dim, dtype=np.int64)
    target = np.repeat(np.arange(len(index))[None, :], width, axis=0)
    for v, name in enumerate(system.vertices):
        out = system.table[name]
        for slot, (_, li, dst) in enumerate(out, start=width - len(out)):
            label[slot, v] = li
            target[slot, v] = index[dst]
    hole = None
    if system.holes:
        hole = np.array([system.is_hole(v) for v in system.vertices])
    # padding points back at its vertex too, but past the alphabet
    loop = (target == np.arange(len(index))) & (label < system.dim)
    return _PaddedTable(label, target, hole, loop if loop.any() else None)


class _Lanes:
    """The live walks of a batch, in compacted arrays.

    ``trial`` is each lane's row in the engine's output, ``vertex`` its
    vertex index and ``vals`` its values, with one spare column last.
    ``vals`` stays C-contiguous, so the step reads and writes it flat.
    Engines may attach further per-lane arrays; ``keep`` compacts them all.
    """

    def __init__(self, vertex, vals):
        self.trial = np.arange(len(vals))
        self.vertex = np.full(len(vals), vertex)
        self.vals = vals

    def keep(self, live):
        """Retire the lanes outside ``live``."""
        if not live.all():
            rows = np.flatnonzero(live)
            self.__dict__.update({k: a.take(rows, axis=0)
                                  for k, a in vars(self).items()})


def _step(table, lanes, choose):
    """Move every live lane along one out-edge of its vertex.

    Lanes that sit in a hole retire first.  ``choose(vals, at, val)`` reads,
    per slot, the positions ``at`` of the lanes' values in the flat ``vals``
    and the values ``val``.  It picks a slot per lane and returns it with the
    loser's new value, which the step writes last; it may first update other
    values in place.  Returns the label columns competing at each lane's
    source vertex and the loser label.
    """
    if table.hole is not None:
        lanes.keep(~table.hole.take(lanes.vertex))
    src, flat = lanes.vertex, lanes.vals.ravel()
    row = np.arange(0, flat.size, lanes.vals.shape[1])
    label = [a.take(src) for a in table.label]
    at = [row + a for a in label]
    slot, value = choose(lanes.vals, at, [flat.take(i) for i in at])
    pick = table.entry(src, slot)
    loser = table.label.take(pick)
    flat[row + loser] = value
    lanes.vertex = table.target.take(pick)
    return label, loser


def _q_draw(rng):
    """Chooser of the q-law: a label loses with probability proportional to
    its coordinate, which then becomes the sum of the competing ones."""

    def choose(q, at, val):
        cum = list(itertools.accumulate(val))
        u = rng.random(len(cum[-1])) * cum[-1]
        # padding weighs 0 and comes first, so the count always passes over
        # it, even when u rounds up to the total
        return sum(u >= c for c in cum[:-1]), cum[-1]

    return choose


def _exact_min(x, at, val):
    """Chooser of the induction: the smallest competing coordinate loses and
    is subtracted from the other competing ones."""
    low = list(itertools.accumulate(val, np.minimum))
    # the first minimum loses: its slot counts the running minima above it
    slot = sum(m > low[-1] for m in low[:-1])
    flat = x.ravel()
    for i, v in zip(at, val):
        flat[i] = v - low[-1]
    x[:, -1] = _NEVER_MIN  # padding slots wrote to the spare column
    return slot, low[-1]


class _RunDraw:
    """Chooser of the q-law that draws each self-loop run in one go.

    ``_q_draw`` picks the slot.  When the loser's edge is a self-loop, the
    lane stays put and only the loser's coordinate grows.  With q_e' its
    value after the loss and S the sum of the other competing coordinates, e
    keeps losing for k more steps with probability q_e' / (q_e' + k S), so a
    second uniform, drawn for these lanes only, gives the run length K by
    inverse CDF.  K is clipped at the lane's remaining steps, q_e becomes
    q_e' + K S and the lane's step count grows by 1 + K.  The run ends where
    e does not lose, so the lane's next draw gives e's slot weight 0.  The
    chooser gives ``lanes`` these two arrays, ``step`` and ``excluded`` (a
    slot, or -1); ``start``, ``gap`` and ``run`` keep q_e', S and K of the
    last draw, for finding first firing steps inside the runs.
    """

    def __init__(self, rng, table, lanes, max_steps):
        self.rng, self.table, self.lanes = rng, table, lanes
        self.draw = _q_draw(rng)
        self.max_steps = max_steps
        lanes.step = np.zeros(len(lanes.trial), dtype=np.int64)
        lanes.excluded = np.full(len(lanes.trial), -1)
        self.start = self.gap = np.zeros(len(lanes.trial))
        self.run = lanes.step.copy()

    def __call__(self, q, at, val):
        lanes, loop = self.lanes, self.table.loop
        if loop is None:
            # no self-loops, no runs: the plain q-law, one step per lane
            slot, self.start = self.draw(q, at, val)
            self.gap = np.zeros(len(self.start))
            self.run = np.zeros(len(self.start), dtype=np.int64)
            lanes.step += 1
            return slot, self.start
        total = sum(val[1:], val[0])
        # a run leaves the lane at its vertex, so e keeps its slot
        w = [np.where(lanes.excluded == j, 0.0, v) for j, v in enumerate(val)]
        slot = self.draw(q, at, w)[0]
        looped = loop.take(self.table.entry(lanes.vertex, slot))
        v = np.zeros(len(total))
        v[looped] = self.rng.random(np.count_nonzero(looped))
        chosen = w[0]
        for j, c in enumerate(w[1:], start=1):
            chosen = np.where(slot == j, c, chosen)
        gap = total - chosen
        # S = 0 leaves nothing else to lose: the run lasts to the cap
        k = np.divide(total * v, gap * (1 - v), out=np.full(len(total), np.inf),
                      where=gap > 0)
        left = self.max_steps - 1 - lanes.step
        run = np.where(looped, np.minimum(k, left), 0).astype(np.int64)
        lanes.step += 1 + run
        lanes.excluded = np.where(looped, slot, -1)
        self.start, self.gap, self.run = total, gap, run
        return slot, total + run * gap

    def first_fire(self, stop, walks, index, hit):
        """Step at which ``stop`` first fired on each ``hit`` lane.

        The stop fires at the end of the lane's last draw.  On a run it is
        monotone, so it fires from some offset of the run on: offset 0, the
        state after the first loss, else one found by bisection.
        """
        idx = np.flatnonzero(hit)
        at = walks.step[idx]
        ran = np.flatnonzero(self.run[idx] > 0)
        if ran.size:
            rows = idx[ran]
            k = self.run[rows]
            first = np.zeros_like(k)
            late = np.flatnonzero(~stop.fires(self._state(walks, rows, first), index))
            lo, hi = first[late], k[late]
            while (hi - lo > 1).any():
                mid = (lo + hi) // 2
                f = stop.fires(self._state(walks, rows[late], mid), index)
                lo, hi = np.where(f, lo, mid), np.where(f, mid, hi)
            first[late] = hi
            at[ran] += first - k
        return at

    def _state(self, walks, rows, offset):
        """Walk states of the lanes in ``rows``, ``offset`` steps into their
        last run."""
        q = walks.q[rows]
        q[np.arange(len(rows)), walks.loser[rows]] = (
            self.start[rows] + offset * self.gap[rows])
        return Walks(q, walks.q0[rows], walks.loser[rows], walks.present[rows],
                     walks.step[rows] - self.run[rows] + offset)


def _halvings(q):
    """Per-lane power of two that brings max(q) into [1/2, 1), exactly."""
    return -np.frexp(functools.reduce(np.maximum, q.T))[1][:, None]


def _record_dtype(system):
    """Narrowest signed integer type that holds -2 and every label index:
    int8 up to 128 letters."""
    return np.min_scalar_type(-system.dim)


def _q_lanes(system, vertex, q0, trials):
    system.check_point(q0, "q0")
    q0 = [Fraction(c) for c in q0]
    # q is projective: scaled exactly by the power of two that brings its
    # largest coordinate near 1, q0 converts to floats at any scale
    top = max(q0)
    unit = Fraction(2) ** (top.numerator.bit_length() - top.denominator.bit_length())
    q = np.array([float(c / unit) for c in q0] + [0.0])
    if not (q[:-1] > 0).all():  # underflowed against the largest coordinate
        raise GraphError("q0 must be positive")
    system.out_edges(vertex)  # raises on an unknown vertex
    return _Lanes(system.vertex_index[vertex], np.tile(q, (trials, 1)))


def _fire_steps(system, vertex, q0, stops, trials, seed, max_steps, until):
    """First firing step of each stop for each trial, -1 where it did not
    fire.  A lane walks until ``until`` of its stops have fired.  Each
    engine step draws a whole self-loop run where the loser is a self-loop,
    so each lane counts its own steps."""
    # step counts are int64, and no walk takes 2**62 steps one at a time
    max_steps = min(max_steps, 2**62)
    table = _padded_table(system)
    lanes = _q_lanes(system, vertex, q0, trials)
    lanes.q0 = lanes.vals[:, :-1].copy()
    lanes.pending = np.ones((trials, len(stops)), dtype=bool)
    lanes.hits = np.zeros(trials, dtype=np.int64)
    draw = _RunDraw(make_rng(seed), table, lanes, max_steps)
    every = _rescale_every(len(table.label), 1 + min(max_steps, _RUN_CAP))
    index = system.label_index
    fired = np.full((len(stops), trials), -1, dtype=np.int64)
    loser = np.full(trials, -1)
    present = np.empty((trials, 0), dtype=np.int64)
    # every engine step moves each lane at least one step
    for step in range(max_steps + 1):
        if step % every == 0:
            e = _halvings(lanes.vals)
            lanes.vals, lanes.q0 = np.ldexp(lanes.vals, e), np.ldexp(lanes.q0, e)
        if step:
            labels, loser = _step(table, lanes, draw)
            present = np.array(labels).T
        walks = Walks(lanes.vals, lanes.q0, loser, present, lanes.step)
        for j, s in enumerate(stops):
            hit = lanes.pending[:, j] & s.fires(walks, index)
            if hit.any():
                at = draw.first_fire(s, walks, index, hit)
                fired[j, lanes.trial[hit]] = at
                lanes.pending[hit, j] = False
                lanes.hits += hit
        lanes.keep((lanes.hits < until) & (lanes.step < max_steps))
        if not lanes.trial.size:
            break
    return fired


def batch_fire_steps(system, vertex, q0, stops, trials, seed, max_steps):
    """First firing step of each stop for each trial; -1 when it has not
    fired by max_steps or the walk entered a hole first.

    q is rescaled by exact powers of two, and each lane's copy of q0 by the
    same factors, so comparisons of q with multiples of q0 are exact as long
    as q0 and the sums that make q are exact in floating point.
    """
    _non_negative(max_steps=max_steps, trials=trials)
    return _fire_steps(system, vertex, q0, stops, trials, seed, max_steps,
                       len(stops))


def batch_record_paths(system, vertex, q0, n_steps, trials, seed):
    """Loser label indices of the first n_steps steps of q-walks, vectorized;
    -1 from the step at which a walk sits in a hole.  The result is a view,
    the transpose of a step-major array of ``_record_dtype``: int8 up to 128
    letters.
    """
    _non_negative(n_steps=n_steps, trials=trials)
    table = _padded_table(system)
    draw = _q_draw(make_rng(seed))
    lanes = _q_lanes(system, vertex, q0, trials)
    every = _rescale_every(len(table.label), 1)
    rec = np.full((n_steps, trials), -1, dtype=_record_dtype(system))
    for step in range(n_steps):
        if step % every == 0:
            lanes.vals = np.ldexp(lanes.vals, _halvings(lanes.vals))
        rec[step, lanes.trial] = _step(table, lanes, draw)[1]
    return rec.T


def _code_blocks(rng, trials, n, bits):
    """The points of ``batch_code_points`` with their output rows, in blocks
    of at most ``_CODE_BLOCK``, each drawn just before it is walked.

    A block's rows come from one ``_gaps`` draw, and a block without a zero
    part is walked as drawn.  Rows with a zero part are deferred: after the
    last block they get ``_redraw``'s rounds, in row order, and are walked
    last.  So the stream gives the points of ``_redraw`` over one ``_gaps``
    draw of every row, whatever the block size.
    """
    late = []
    for lo in range(0, trials, _CODE_BLOCK):
        pts = _gaps(rng, min(_CODE_BLOCK, trials - lo), n, bits)
        rows = np.arange(lo, lo + len(pts))
        bad = _zero_rows(pts)
        if bad.any():
            late.append((pts[bad], rows[bad]))
            pts, rows = pts[~bad], rows[~bad]
        yield pts, rows
    if late:
        pts, rows = map(np.concatenate, zip(*late))
        _redraw(rng, pts, bits)
        for lo in range(0, len(pts), _CODE_BLOCK):
            yield pts[lo:lo + _CODE_BLOCK], rows[lo:lo + _CODE_BLOCK]


def batch_code_points(system, vertex, n_steps, trials, seed, bits=32):
    """Coding of uniformly sampled simplex points, exact and vectorized.

    Points are integer compositions of 2**bits; the subtractive update only
    ever decreases coordinates so int64 arithmetic stays exact; 2**bits must
    fit in int64, so ``bits`` runs from 1 to 62.  Trials that hit a tie are
    marked with -2 from the tie step onward, and trials in a hole with -1.
    The result is a view, the transpose of a step-major array of
    ``_record_dtype``: int8 up to 128 letters.  The points are those of the
    gap-method sampler of ``sample_simplex_integers``, which raises after
    1000 draws of a row; ``_code_blocks`` draws them a block at a time, as
    they are walked, in an order that does not depend on the block size.
    """
    n = system.dim
    _check_composition(n, bits, 62)
    _non_negative(n_steps=n_steps, trials=trials)
    system.out_edges(vertex)  # raises on an unknown vertex
    start = system.vertex_index[vertex]
    table = _padded_table(system)
    rec = np.full((n_steps, trials), -1, dtype=_record_dtype(system))
    vals = np.empty((min(trials, _CODE_BLOCK), n + 1), dtype=np.int64)
    first_tie = n_steps
    for pts, rows in _code_blocks(make_rng(seed), trials, n, bits):
        lanes = _Lanes(start, vals[:len(pts)])
        lanes.trial = rows
        lanes.vals[:, :-1] = pts
        lanes.vals[:, -1] = _NEVER_MIN
        for step in range(n_steps):
            rec[step, lanes.trial] = _step(table, lanes, _exact_min)[1]
            # a tie at the minimum leaves a zero coordinate behind
            tied = _zero_rows(lanes.vals[:, :-1])
            if tied.any():
                rec[step, lanes.trial[tied]] = -2
                first_tie = min(first_tie, step)
            lanes.keep(~tied)
            if not lanes.trial.size:
                break
    # a tied walk takes no further step, so its later steps still hold -1:
    # each is lowered to -2 where the step before holds -2, a whole step at a
    # time
    for step in range(first_tie + 1, n_steps):
        rec[step] -= rec[step - 1] == -2
    return rec.T

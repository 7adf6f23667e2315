"""Distortion-vector walks, projective measures, and Monte Carlo estimators.

The law of a random path is driven by a positive row vector q: at each vertex
an out-edge is drawn with probability proportional to the q-coordinate of its
label, after which the loser coordinate becomes the sum of the competing
coordinates (q <- q M_e).  Cylinder masses of the projective measures come in
exact rational form; sampling engines exist in two flavors, an exact per-trial
one and vectorized batch ones for large experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .graph import GraphError, vec_mat


def make_rng(seed, stream=None):
    """Counter-based generator; ``stream`` selects a per-trial substream."""
    key = [int(seed), 0 if stream is None else int(stream)]
    return np.random.Generator(np.random.Philox(key=key))


# -- exact samplers --------------------------------------------------------


def sample_simplex_integers(rng, n, bits=62, max_tries=1000):
    """Uniform composition of 2**bits into n positive parts (gap method)."""
    hi = 1 << bits
    for _ in range(max_tries):
        cuts = sorted(int(c) for c in rng.integers(1, hi, size=n - 1))
        parts = []
        prev = 0
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(hi - prev)
        if all(p > 0 for p in parts):
            return tuple(parts)
    raise GraphError("failed to sample distinct cut points")


def sample_simplex_point(rng, n, bits=62):
    """Uniform dyadic point of the open simplex, as exact Fractions."""
    parts = sample_simplex_integers(rng, n, bits)
    hi = 1 << bits
    return tuple(Fraction(p, hi) for p in parts)


# -- measures --------------------------------------------------------------


def edge_law(system, vertex, q):
    """Exact probabilities of the out-edges at a vertex under distortion q."""
    out = system.out_edges(vertex)
    if not out:
        raise GraphError(f"vertex {vertex!r} is a hole")
    weights = [Fraction(q[system.label_index[system.edges[i].label]]) for i in out]
    total = sum(weights)
    if any(w <= 0 for w in weights):
        raise GraphError("q must be positive on the competing labels")
    return {i: w / total for i, w in zip(out, weights)}


def cylinder_measure(system, path, q):
    """Projective mass of a path cylinder: (1/n!) prod_i 1/(q M_gamma)_i."""
    qm = tuple(Fraction(c) for c in q)
    system.check_path(path)
    for i in path:
        qm = vec_mat(qm, system.edge_matrix(i))
    return _cone_mass(qm)


def _cone_mass(qm):
    """(1/n!) prod_i 1/qm_i: the mass of a cylinder whose q M_gamma is qm."""
    out = Fraction(1, math.factorial(len(qm)))
    for c in qm:
        if c <= 0:
            raise GraphError("q must be positive")
        out /= c
    return out


def path_probability(system, path, q):
    """Chance that a q-walk follows the given path: N(q)/N(q M_gamma)."""
    num = Fraction(1)
    den = Fraction(1)
    qm = tuple(Fraction(c) for c in q)
    system.check_path(path)
    for c in qm:
        num *= c
    for i in path:
        qm = vec_mat(qm, system.edge_matrix(i))
    for c in qm:
        den *= c
    return num / den


def is_balanced(q, labels_idx, k):
    """(Lambda, K)-balance: max over all coordinates < K * min over Lambda."""
    mx = max(q)
    mn = min(q[i] for i in labels_idx)
    return mx < k * mn


# -- stopping times --------------------------------------------------------


class Walks(NamedTuple):
    """Walk states, one row per lane, as the stopping times read them.

    ``q`` and ``q0`` are the current and the start distortion, scaled by the
    same factor in each lane; ``q`` may end in a column of zeros past the
    alphabet.  ``loser`` is the label index of the last loser, -1 before the
    first step.  ``present`` holds the label indices that competed at the
    last source vertex, padded with indices past the alphabet, and has no
    columns before the first step.
    """

    q: np.ndarray
    q0: np.ndarray
    loser: np.ndarray
    present: np.ndarray
    step: int


class StoppingTime:
    """Rule on walk states, evaluated at step 0 and after every step."""

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
        return np.full(len(walks.loser), walks.step >= self.n)


@dataclass
class WalkOutcome:
    path: list
    final_q: tuple
    fired_at: dict  # stop index -> first step at which it fired
    truncated: bool
    steps: int


def sample_walk(system, vertex, q0, stops, rng, max_steps=10**6):
    """Walk the q-law until every stopping time has fired (or truncation).

    ``rng`` may be a Generator or an integer seed.  Coordinates of q stay
    exact (integers stay integers); the random edge choice inverts the exact
    cumulative law at a dyadic uniform draw.  The stopping times see the walk
    as a batch of one lane.
    """
    if isinstance(rng, (int, np.integer)):
        rng = make_rng(rng)
    q = tuple(Fraction(c) if not isinstance(c, int) else c for c in q0)
    if any(c <= 0 for c in q):
        raise GraphError("q0 must be positive")
    start = np.array([q], dtype=object)
    index = system.label_index
    cur, path, fired_at = vertex, [], {}
    loser, present = -1, ()
    while True:
        walks = Walks(np.array([q], dtype=object), start, np.array([loser]),
                      np.array([present], dtype=np.int64), len(path))
        for j, s in enumerate(stops):
            if j not in fired_at and s.fires(walks, index)[0]:
                fired_at[j] = len(path)
        out = system.out_edges(cur)
        if len(fired_at) == len(stops) or len(path) >= max_steps or not out:
            break
        law = edge_law(system, cur, q)
        u = Fraction(int(rng.integers(0, 1 << 53)), 1 << 53)
        acc = Fraction(0)
        chosen = out[-1]
        for i in out:
            acc += law[i]
            if u < acc:
                chosen = i
                break
        present = tuple(index[system.edges[i].label] for i in out)
        loser = index[system.edges[chosen].label]
        # row-vector update q <- q M_e: the losing coordinate absorbs the
        # winners, everything else is unchanged
        q = list(q)
        q[loser] = sum(q[a] for a in present)
        q = tuple(q)
        cur = system.edges[chosen].dst
        path.append(chosen)
    truncated = len(fired_at) < len(stops)
    return WalkOutcome(path, q, fired_at, truncated, len(path))


def estimate_order_prob(
    system,
    vertex,
    q0,
    stop_a,
    stop_b,
    trials,
    seed,
    max_steps=10**4,
    strict=False,
    engine="batch",
):
    """Monte Carlo frequency of {A fires no later than B} (or strictly before).

    The exact engine ("exact") derives per-trial substreams from (seed, trial
    index); the batch engine ("batch") consumes one stream per call.
    """
    stops = [stop_a, stop_b]
    if engine == "batch":
        a, b = batch_fire_steps(system, vertex, q0, stops, trials, seed, max_steps)
    elif engine == "exact":
        a, b = np.full((2, trials), -1, dtype=np.int64)
        for t in range(trials):
            out = sample_walk(system, vertex, q0, stops, make_rng(seed, t), max_steps)
            a[t] = out.fired_at.get(0, -1)
            b[t] = out.fired_at.get(1, -1)
    else:
        raise GraphError(f"unknown engine {engine!r}; use 'batch' or 'exact'")
    first = a < b if strict else a <= b
    count = int(((a >= 0) & ((b < 0) | first)).sum())
    truncated = int(((a < 0) | (b < 0)).sum())
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
# The three engines share one step: every live lane reads its vertex's row of
# a padded out-edge table, a chooser picks the losing slot and updates the
# lane's values, and the lane moves to the slot's target.  The engines differ
# in the chooser (a q-law draw, or the exact integer minimum) and in what
# they record.  Lanes retire when they enter a hole, tie, or have nothing
# left to record, and only then are the lane arrays compacted.

# Rescale q at least this often: a step multiplies max(q) by at most the
# out-degree, so 64 steps stay inside the float range below out-degree 2**15.
_RESCALE_EVERY = 64

# Value of the spare column in the exact engine: never the minimum.
_NEVER_MIN = np.iinfo(np.int64).max


class _OutTable(NamedTuple):
    """Out-edges of every vertex in ``out_edges`` order, right-aligned.

    Row v of ``label`` and ``target`` gives the label index and the target
    vertex index of each slot.  Slots before the out-edges are padding: they
    point at the spare column past the alphabet and back at v.  ``hole``
    marks the vertices without out-edges, or is None when there are none.
    """

    label: np.ndarray
    target: np.ndarray
    hole: np.ndarray | None


def _out_table(system):
    index = {v: i for i, v in enumerate(system.vertices)}
    width = max(len(system.out_edges(v)) for v in system.vertices)
    label = np.full((len(index), width), system.dim, dtype=np.int64)
    target = np.repeat(np.arange(len(index))[:, None], width, axis=1)
    for v, name in enumerate(system.vertices):
        out = system.out_edges(name)
        for slot, i in enumerate(out, start=width - len(out)):
            label[v, slot] = system.label_index[system.edges[i].label]
            target[v, slot] = index[system.edges[i].dst]
    hole = None
    if system.holes:
        hole = np.array([system.is_hole(v) for v in system.vertices])
    return _OutTable(label, target, hole)


class _Lanes:
    """The live walks of a batch, in compacted arrays.

    ``trial`` is each lane's row in the engine's output, ``vertex`` its
    vertex index and ``vals`` its values, with one spare column last.
    """

    def __init__(self, system, vertex, vals):
        self.trial = np.arange(len(vals))
        self.vertex = np.full(len(vals), system.vertices.index(vertex))
        self.vals = vals

    def keep(self, live):
        """Retire the lanes outside ``live``."""
        if not live.all():
            self.__dict__.update({k: a[live] for k, a in vars(self).items()})


def _step(table, lanes, choose):
    """Move every live lane along one out-edge of its vertex.

    Lanes that sit in a hole retire first.  ``choose(vals, labels, rows)``
    picks a slot per lane and updates ``vals`` in place.  Returns the labels
    competing at each lane's source vertex and the loser label.
    """
    if table.hole is not None:
        lanes.keep(~table.hole[lanes.vertex])
    labels = table.label[lanes.vertex]
    rows = np.arange(len(labels))
    slot = choose(lanes.vals, labels, rows)
    lanes.vertex = table.target[lanes.vertex, slot]
    return labels, labels[rows, slot]


def _q_draw(rng):
    """Chooser of the q-law: a label loses with probability proportional to
    its coordinate, which then becomes the sum of the competing ones."""

    def choose(q, labels, rows):
        cum = np.cumsum(np.take_along_axis(q, labels, axis=1), axis=1)
        total = cum[:, -1]
        u = rng.random(len(rows)) * total
        # padding weighs 0 and comes first, so the count always passes over
        # it, even when u rounds up to the total
        slot = (u[:, None] >= cum[:, :-1]).sum(axis=1)
        q[rows, labels[rows, slot]] = total
        return slot

    return choose


def _exact_min(x, labels, rows):
    """Chooser of the induction: the smallest competing coordinate loses and
    is subtracted from the other competing ones."""
    vals = np.take_along_axis(x, labels, axis=1)
    slot = vals.argmin(axis=1)
    low = vals[rows, slot]
    vals -= low[:, None]
    vals[rows, slot] = low
    x[rows[:, None], labels] = vals
    x[:, -1] = _NEVER_MIN  # padding slots wrote to the spare column
    return slot


def _halvings(q):
    """Per-lane power of two that brings max(q) into [1/2, 1), exactly."""
    return -np.frexp(q.max(axis=1))[1][:, None]


def _q_lanes(system, vertex, q0, trials):
    q = np.array([float(c) for c in q0] + [0.0])
    return _Lanes(system, vertex, np.tile(q, (trials, 1)))


def batch_fire_steps(system, vertex, q0, stops, trials, seed, max_steps):
    """First firing step of each stop for each trial; -1 when it has not
    fired by max_steps or the walk entered a hole first.

    q is rescaled by exact powers of two, and each lane's copy of q0 by the
    same factors, so comparisons of q with multiples of q0 are exact as long
    as q0 and the sums that make q are exact in floating point.
    """
    table = _out_table(system)
    draw = _q_draw(make_rng(seed))
    lanes = _q_lanes(system, vertex, q0, trials)
    lanes.q0 = lanes.vals[:, :-1].copy()
    index = system.label_index
    fired = np.full((len(stops), trials), -1, dtype=np.int64)
    loser = np.full(trials, -1)
    present = np.empty((trials, 0), dtype=np.int64)
    for step in range(max_steps + 1):
        if step:
            present, loser = _step(table, lanes, draw)
        if step % _RESCALE_EVERY == 0:
            e = _halvings(lanes.vals)
            lanes.vals, lanes.q0 = np.ldexp(lanes.vals, e), np.ldexp(lanes.q0, e)
        walks = Walks(lanes.vals, lanes.q0, loser, present, step)
        pending = fired[:, lanes.trial] < 0
        for j, s in enumerate(stops):
            hit = pending[j] & s.fires(walks, index)
            fired[j, lanes.trial[hit]] = step
            pending[j] &= ~hit
        lanes.keep(pending.any(axis=0))
        if not lanes.trial.size:
            break
    return fired


def batch_record_paths(system, vertex, q0, n_steps, trials, seed):
    """Loser label indices of the first n_steps steps of q-walks, vectorized;
    -1 from the step at which a walk sits in a hole."""
    table = _out_table(system)
    draw = _q_draw(make_rng(seed))
    lanes = _q_lanes(system, vertex, q0, trials)
    rec = np.full((trials, n_steps), -1, dtype=np.int64)
    for step in range(n_steps):
        if step % _RESCALE_EVERY == 0:
            lanes.vals = np.ldexp(lanes.vals, _halvings(lanes.vals))
        rec[lanes.trial, step] = _step(table, lanes, draw)[1]
    return rec


def batch_code_points(system, vertex, n_steps, trials, seed, bits=32):
    """Coding of uniformly sampled simplex points, exact and vectorized.

    Points are integer compositions of 2**bits; the subtractive update only
    ever decreases coordinates so int64 arithmetic stays exact.  Trials that
    hit a tie are marked with -2 from the tie step onward, and trials in a
    hole with -1.
    """
    rng = make_rng(seed)
    hi = 1 << bits
    n = system.dim

    def compositions(k):
        cuts = rng.integers(1, hi, size=(k, n - 1))
        cuts.sort(axis=1)
        return np.diff(cuts, axis=1, prepend=0, append=hi)

    pts = compositions(trials)
    bad = (pts <= 0).any(axis=1)
    while bad.any():
        pts[bad] = compositions(int(bad.sum()))
        bad = (pts <= 0).any(axis=1)

    table = _out_table(system)
    lanes = _Lanes(system, vertex, np.append(
        pts, np.full((trials, 1), _NEVER_MIN), axis=1))
    del pts
    rec = np.full((trials, n_steps), -1, dtype=np.int64)
    for step in range(n_steps):
        rec[lanes.trial, step] = _step(table, lanes, _exact_min)[1]
        # a tie at the minimum leaves a zero coordinate behind
        tied = (lanes.vals == 0).any(axis=1)
        rec[lanes.trial[tied], step:] = -2
        lanes.keep(~tied)
    return rec

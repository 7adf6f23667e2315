"""Exact win-lose induction on projective simplices.

Points live in the open simplex over the alphabet and are given as tuples of
nonnegative ``Fraction`` (or int) coordinates.  A step at a vertex compares
the coordinates of the out-labels, declares the smallest one the loser,
follows the edge carrying the loser label and subtracts the loser coordinate
from every other out-label coordinate.  All comparisons are exact; floating
point never decides a branch.

The induction is projective, so it runs on integers: a point's denominators
are cleared once on entry, one kernel (``_advance``) takes the exact minimum
and subtracts it in place, and the point is normalized once on exit.  A
step's mass ratio is the quotient of the integer totals after and before it,
so the ratios of a run telescope to its final total over its first.  The
per-vertex out-edge table the kernel reads is built once per system.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .graph import GraphError


class BoundaryTieError(ArithmeticError):
    """Two competing coordinates were equal: the point sits on a cell wall."""


class HoleReachedError(RuntimeError):
    """The orbit entered a vertex with no out-edges."""


class MaxStepsExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class StepRecord:
    step: int
    vertex: str
    edge: int
    edge_label: str
    norm_ratio: Fraction  # mass left after the subtraction, in (0, 1)

    @property
    def roof(self):
        return -math.log(self.norm_ratio)

    def to_dict(self):
        return {
            "step": self.step,
            "vertex": self.vertex,
            "edge_label": self.edge_label,
            "roof_rational_num": self.norm_ratio.numerator,
            "roof_rational_den": self.norm_ratio.denominator,
        }


def normalize(point):
    total = _mass(point)
    return tuple(Fraction(x) / total for x in point)


def _mass(point):
    total = sum(point)
    if total <= 0:
        raise GraphError("point must have positive total mass")
    return total


def _out_table(system):
    """Out-edges of every vertex as ``(edge, label coordinate, dst, label)``,
    in label order; built once per system and cached on it."""
    if system._out_table is None:
        table = {}
        for v in system.vertices:
            edges = [(i, system.edges[i]) for i in system.out_edges(v)]
            table[v] = tuple(
                (i, system.label_index[e.label], e.dst, e.label) for i, e in edges
            )
        system._out_table = table
    return system._out_table


def _integer_point(point):
    """The point times the lcm of its denominators: ``(integers, lcm)``."""
    point = [Fraction(x) for x in point]
    den = math.lcm(*(x.denominator for x in point))
    return [x.numerator * (den // x.denominator) for x in point], den


def _advance(table, vertex, cur, unit=1):
    """One step on the integer coordinates ``cur``, in place.

    The smallest competing coordinate loses and is subtracted from the other
    competing coordinates.  Returns the out-edge entry taken.  A tie reports
    the tied coordinate divided by ``unit``.
    """
    out = table[vertex]
    best = None
    tie = False
    for entry in out:
        val = cur[entry[1]]
        if best is None or val < low:
            best, low, tie = entry, val, False
        elif val == low:
            tie = True
    if best is None:
        raise HoleReachedError(f"vertex {vertex!r} has no out-edges")
    if tie:
        raise BoundaryTieError(
            f"tied minimum {Fraction(low, unit)} among out-labels of {vertex!r}"
        )
    if low <= 0:
        raise GraphError("point has a nonpositive competing coordinate")
    li = best[1]
    for entry in out:
        if entry[1] != li:
            cur[entry[1]] -= low
    return best


def step(system, vertex, point, step_index=0):
    """One induction step.  Returns ``(new_vertex, new_point, record)``.

    The new point is renormalized to total mass 1; the record keeps the exact
    rational mass ratio whose negative logarithm is the roof increment.
    """
    cur, den = _integer_point(point)
    total = sum(cur)
    entry = _advance(_out_table(system), vertex, cur, den)
    new_total = _mass(cur)
    ratio = Fraction(new_total, total)
    rec = StepRecord(step_index, vertex, entry[0], entry[3], ratio)
    return entry[2], tuple(Fraction(c, new_total) for c in cur), rec


def orbit(system, vertex, point, n):
    """Iterate the induction n times; returns (vertex, point, [records]).

    The orbit runs on one integer vector; only the records' mass ratios and
    the final point are rationals.
    """
    table = _out_table(system)
    cur, _ = _integer_point(point)
    total = _mass(cur)
    records = []
    for k in range(n):
        entry = _advance(table, vertex, cur, total)
        new_total = _mass(cur)
        ratio = Fraction(new_total, total)
        records.append(StepRecord(k, vertex, entry[0], entry[3], ratio))
        vertex, total = entry[2], new_total
    return vertex, tuple(Fraction(c, total) for c in cur), records


def code_point(system, vertex, point, n):
    """Label sequence of the first n induction steps."""
    _, _, records = orbit(system, vertex, point, n)
    return tuple(r.edge_label for r in records)


def apply_edge_inverse(system, edge_index, point):
    """Exact ``point - loser`` update on the winner coordinates of one edge."""
    e = system.edges[edge_index]
    li = system.label_index[e.label]
    new = list(point)
    for entry in _out_table(system)[e.src]:
        if entry[1] != li:
            new[entry[1]] -= new[li]
    return tuple(new)


def in_cylinder(system, path, point):
    """Whether ``point`` belongs to the open cone spanned by a path's matrix.

    Equivalent to strict positivity of the pulled-back coordinates; the edge
    inverses are applied in path order.
    """
    system.check_path(path)
    cur, _ = _integer_point(point)
    for i in path:
        cur = apply_edge_inverse(system, i, cur)
        if any(x <= 0 for x in cur):
            return False
    return True


def path_norm_ratio(system, path, point):
    """Exact mass ratio left after pulling ``point`` back through a path."""
    cur, _ = _integer_point(point)
    total = sum(cur)
    for i in path:
        cur = apply_edge_inverse(system, i, cur)
    left = sum(cur)
    if left <= 0:
        raise GraphError("point is not in the cylinder of the path")
    return Fraction(left, total)


def induced_step(system, vertex, point, gamma_star, max_steps=10**6):
    """First-return step of the induction accelerated on a cylinder path.

    ``gamma_star`` is a loop of edge indices at ``vertex`` whose cylinder
    contains ``point``.  Steps forward until the coding shows the next aligned
    occurrence of ``gamma_star`` (greedy parse: the first occurrence starting
    at an index at least its length), and returns
    ``(new_point, return_word_labels, norm_ratio)`` where ``norm_ratio`` is
    the exact accelerated-roof rational of the consumed path.

    The walk is one pass on an integer vector.  The return point is the state
    before the trailing ``gamma_star`` block, so the last m+1 states are kept;
    the ratios of the steps telescope to the ratio of its mass to the start's.
    """
    m = len(gamma_star)
    star = [system.edges[i].label for i in gamma_star]
    if not in_cylinder(system, gamma_star, point):
        raise GraphError("point is not in the inducing cylinder")
    table = _out_table(system)
    cur, _ = _integer_point(point)
    start = total = _mass(cur)
    coding = []
    states = deque([(tuple(cur), total)], maxlen=m + 1)
    v = vertex
    for _ in range(max_steps):
        entry = _advance(table, v, cur, total)
        v = entry[2]
        coding.append(entry[3])
        total = _mass(cur)
        states.append((tuple(cur), total))
        if len(coding) >= 2 * m and coding[-m:] == star:
            back, left = states[0]
            word = tuple(coding[m:-m])
            return tuple(Fraction(c, left) for c in back), word, Fraction(left, start)
    raise MaxStepsExceeded(f"no return within {max_steps} steps")


def hilbert_distance(v, w):
    """Projective distance ``log (max_i v_i/w_i) / (min_i v_i/w_i)``."""
    if len(v) != len(w):
        raise GraphError("dimension mismatch")
    ratios = []
    for a, b in zip(v, w):
        if a <= 0 or b <= 0:
            return math.inf
        ratios.append(Fraction(a) / Fraction(b))
    return math.log(max(ratios) / min(ratios))


def birkhoff_contraction(matrix):
    """Contraction coefficient of a nonnegative matrix on the positive cone.

    ``tanh(D/4)`` with D the projective diameter of the image, i.e. the
    largest pairwise distance between columns.  Returns 1.0 when the matrix
    has a zero entry (no uniform contraction).
    """
    n = len(matrix)
    cols = [tuple(matrix[i][j] for i in range(n)) for j in range(n)]
    diam = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            d = hilbert_distance(cols[a], cols[b])
            if d == math.inf:
                return 1.0
            diam = max(diam, d)
    return math.tanh(diam / 4.0)

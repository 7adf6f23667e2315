"""Exact win-lose induction on projective simplices.

Points live in the open simplex over the alphabet and are given as tuples of
positive ``Fraction`` (or int) coordinates.  A step at a vertex compares
the coordinates of the out-labels, declares the smallest one the loser,
follows the edge carrying the loser label and subtracts the loser coordinate
from every other out-label coordinate.  All comparisons are exact; floating
point never decides a branch.

The induction is projective, so it runs on integers: a point's denominators
are cleared once on entry, one kernel (``_advance``) takes the exact minimum
and subtracts it in place, and the point is normalized once on exit.  A
step's mass ratio is the quotient of the integer totals after and before it,
so the ratios of a run telescope to its final total over its first.  The
kernel reads the labels that compete at a vertex from the system's own
out-edge ``table``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graph import GraphError, mat_vec


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


def _integer_point(point):
    """The point times the lcm of its denominators: ``(integers, lcm)``."""
    point = [Fraction(x) for x in point]
    den = math.lcm(*(x.denominator for x in point))
    return [x.numerator * (den // x.denominator) for x in point], den


def _advance(table, vertex, cur, unit=1):
    """One step on the integer coordinates ``cur``, in place.

    The smallest competing coordinate loses and is subtracted from the other
    competing coordinates, so a positive ``cur`` stays positive.  Returns
    the out-edge entry taken; a tie reports its coordinate over ``unit``.
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
    li = best[1]
    for entry in out:
        if entry[1] != li:
            cur[entry[1]] -= low
    return best


def orbit(system, vertex, point, n):
    """Iterate the induction n times; returns (vertex, point, [records]).

    The orbit runs on one integer vector; only the records' mass ratios and
    the final point are rationals.
    """
    system.out_edges(vertex)  # raises on an unknown vertex
    system.check_point(point)
    table = system.table
    cur, _ = _integer_point(point)
    total = sum(cur)
    records = []
    for k in range(n):
        edge, li, dst = _advance(table, vertex, cur, total)
        new_total = sum(cur)
        ratio = Fraction(new_total, total)
        records.append(StepRecord(k, vertex, edge, system.alphabet[li], ratio))
        vertex, total = dst, new_total
    return vertex, tuple(Fraction(c, total) for c in cur), records


def in_cylinder(system, path, point):
    """Whether ``point`` belongs to the open cone spanned by a path's matrix.

    ``point`` is positive, as everywhere; it lies in the cone when its
    pulled-back coordinates stay positive.  The edge inverses are applied in
    path order, each subtracting the loser coordinate from the winners.
    """
    system.check_path(path)
    system.check_point(point)
    cur, _ = _integer_point(point)
    for i in path:
        e = system.edges[i]
        li = system.label_index[e.label]
        low = cur[li]
        for entry in system.table[e.src]:
            if entry[1] != li:
                cur[entry[1]] -= low
        if min(cur) <= 0:
            return False
    return True


def induced_step(system, vertex, point, gamma_star, max_steps=10**6):
    """First-return step of the induction accelerated on a cylinder path.

    ``gamma_star`` is a loop of edge indices at ``vertex`` whose cylinder
    contains ``point``.  Steps forward until the edge path shows the next
    aligned occurrence of ``gamma_star`` (greedy parse: the first occurrence
    starting at an index at least its length), and returns
    ``(new_point, return_word_labels, norm_ratio)`` where ``norm_ratio`` is
    the exact accelerated-roof rational of the consumed path.  Returns are
    matched on edges, as the letters of ``thermo.build_induced_alphabet``
    exclude ``gamma_star`` as an edge factor, so every return is a loop at
    ``vertex``.

    The walk is one pass on an integer vector.  The return point is the state
    before the trailing ``gamma_star`` block, which the block's matrix pulls
    back exactly; the step ratios telescope to its mass over the start's.
    """
    system.out_edges(vertex)  # raises on an unknown vertex
    m = len(gamma_star)
    star = list(gamma_star)
    if not in_cylinder(system, gamma_star, point):
        raise GraphError("point is not in the inducing cylinder")
    edges = system.edges
    if not star or edges[star[0]].src != vertex or edges[star[-1]].dst != vertex:
        raise GraphError(f"gamma_star must be a loop at {vertex!r}")
    table = system.table
    cur, _ = _integer_point(point)
    start = total = sum(cur)
    coding = []
    v = vertex
    for _ in range(max_steps):
        entry = _advance(table, v, cur, total)
        v = entry[2]
        coding.append(entry[0])
        total = sum(cur)
        if len(coding) >= 2 * m and coding[-m:] == star:
            back = mat_vec(system.path_matrix(star), cur)
            left = sum(back)
            word = system.path_labels(coding[m:-m])
            return tuple(Fraction(c, left) for c in back), word, Fraction(left, start)
    raise MaxStepsExceeded(f"no return within {max_steps} steps")

"""Named graph models of classical subtractive continued fraction algorithms.

Each entry couples a labeled graph, its section (the vertices where the
graph point is compared with the classical point) and the classical map it
linearizes.  One basis model carries points between the two: a simplex point
lies in the cone of one section vertex, spanned by that vertex's integer
columns; ``embed`` solves exactly for the point's positive coordinates in
those columns, and ``project`` sums the columns back.  A conjugacy check
walks the graph induction to its section and compares, exactly and
projectively, with iterating the reference map.  ``FAMILIES`` lists every
named system once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .graph import MAX_CRITERION_ALPHABET, GraphError, SimplicialSystem, mat_vec
from .induction import BoundaryTieError, HoleReachedError, _advance
from .stochastic import make_rng, sample_simplex_integers


class DomainEscape(RuntimeError):
    """The reference map is undefined at the point (it left the surviving set)."""


# Largest letter count of the families whose graph has a vertex per ranking:
# brun(7) has 27 720 vertices and arnoux-rauzy(7) 181 440, and each further
# letter multiplies the size and the build time by about ten.
MAX_RANKING_DIM = 7

# Largest letter count of the Poincaré family, whose graph has a vertex per
# subset of the letters and so doubles with each letter: poincare(14) has
# 16 369 vertices, about as many as brun(7).
MAX_POINCARE_DIM = 14


def _labels(n):
    return tuple(str(i + 1) for i in range(n))


def _rot(sigma, j):
    """Move the head of the ranking to position j (1-indexed)."""
    return sigma[1:j] + (sigma[0],) + sigma[j:]


def _vname(prefix, sigma, k=None):
    base = f"{prefix}:" + ",".join(sigma)
    return base if k is None else f"{base}:{k}"


def _sigma(vertex):
    """The ranking a vertex name carries."""
    return tuple(vertex.split(":")[1].split(","))


def _ordering(x):
    """Labels ranked by decreasing coordinate; ties are boundary events."""
    n = len(x)
    idx = sorted(range(n), key=lambda i: x[i], reverse=True)
    for a, b in zip(idx, idx[1:]):
        if x[a] == x[b]:
            raise BoundaryTieError("equal coordinates in ranking")
    return tuple(str(i + 1) for i in idx)


def _coord(x, label):
    return x[int(label) - 1]


def _integer_inverse(cols):
    """Positive integer multiple of the inverse of a small matrix given by
    columns: the exact inverse, by Gauss elimination, times the lcm of its
    denominators.  Projectively it is the inverse, with the same signs."""
    n = len(cols)
    a = [
        [Fraction(cols[j][i]) for j in range(n)]
        + [Fraction(1 if k == i else 0) for k in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [v / pv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    inv = [row[n:] for row in a]
    den = math.lcm(*(v.denominator for row in inv for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in inv]


def _v_point(n, alpha):
    """All-ones vector with a zero in the given label coordinate."""
    return tuple(0 if i == int(alpha) - 1 else 1 for i in range(n))


@dataclass
class NamedSystem:
    """A graph with its section and the classical map it linearizes.

    A simplex point x is carried at the section vertex ``_vertex(x)``, in the
    cone spanned by that vertex's integer ``_columns`` (the column of label a
    at index a - 1).  By default there is one section vertex and its columns
    are the unit vectors, so the graph point is x itself.
    """

    name: str
    dim: int
    system: SimplicialSystem
    section: frozenset
    meta: dict = field(default_factory=dict)
    _bases: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def _vertex(self, x):
        """Section vertex whose cone holds x: by default the only one."""
        (vertex,) = self.section
        return vertex

    def _columns(self, vertex):
        n = self.dim
        return [tuple(int(i == a) for i in range(n)) for a in range(n)]

    def _basis(self, vertex):
        """Rows of the vertex's column matrix and of its integer inverse,
        built once."""
        basis = self._bases.get(vertex)
        if basis is None:
            cols = self._columns(vertex)
            basis = self._bases[vertex] = tuple(zip(*cols)), _integer_inverse(cols)
        return basis

    def embed(self, x):
        """Section vertex and positive cone coordinates of x, up to a
        positive factor."""
        vertex = self._vertex(x)
        y = mat_vec(self._basis(vertex)[1], x)
        if any(c <= 0 for c in y):
            raise GraphError("point is outside the stable domain")
        return vertex, y

    def project(self, vertex, y):
        if vertex not in self.section:
            raise GraphError(f"{vertex!r} is not a section vertex")
        return mat_vec(self._basis(vertex)[0], y)

    def reference_step(self, x):
        raise NotImplementedError

    def in_domain(self, x):
        return all(c > 0 for c in x)

    def canonical(self, x):
        """Representative of ``x`` under the symmetry the graph quotients by."""
        return tuple(x)

    def describe(self):
        return {
            "name": self.name,
            "dim": self.dim,
            "vertices": len(self.system.vertices),
            "edges": len(self.system.edges),
            "holes": list(self.system.holes),
            "section": sorted(self.section),
        }


class FullySubtractive(NamedSystem):
    """Every coordinate but the smallest minus the smallest; at two letters
    this is the Gauss map."""

    def reference_step(self, x):
        sigma = _ordering(x)
        lo = _coord(x, sigma[-1])
        return tuple(c if str(i + 1) == sigma[-1] else c - lo for i, c in enumerate(x))


def _poincare_step(x, sigma):
    """Every coordinate but the smallest minus the next one in the ranking
    ``sigma``."""
    out = list(x)
    for k, l in enumerate(sigma[:-1]):
        out[int(l) - 1] = _coord(x, l) - _coord(x, sigma[k + 1])
    return tuple(out)


class Poincare(NamedSystem):
    def reference_step(self, x):
        return _poincare_step(x, _ordering(x))


class Brun(NamedSystem):
    """Section vertices named by the ranking of the point, with telescoping
    columns: the head's column is its unit vector, and the column of the k-th
    label after the head sums the unit vectors of the first k labels after
    the head.  Their inverse is unimodular: the head keeps its coordinate,
    each later label stores the gap to the next one and the last its own."""

    prefix = "B"

    def _vertex(self, x):
        return _vname(self.prefix, _ordering(x))

    def _columns(self, vertex):
        sigma = _sigma(vertex)
        cols = [None] * self.dim
        for k, l in enumerate(sigma):
            span = sigma[min(k, 1):k + 1]
            cols[int(l) - 1] = tuple(int(m in span) for m in _labels(self.dim))
        return cols

    def reference_step(self, x):
        sigma = _ordering(x)
        out = list(x)
        out[int(sigma[0]) - 1] = _coord(x, sigma[0]) - _coord(x, sigma[1])
        return tuple(out)


class ArnouxRauzy(Brun):
    """Its graph opens with Brun's chain at each ranking, so its section
    cones are Brun's."""

    prefix = "I"
    poincare_fallback = False

    def reference_step(self, x):
        sigma = _ordering(x)
        top = _coord(x, sigma[0])
        rest = sum(_coord(x, l) for l in sigma[1:])
        if top == rest:
            raise BoundaryTieError("point on the critical wall")
        if top > rest:
            out = list(x)
            out[int(sigma[0]) - 1] = top - rest
            return tuple(out)
        if not self.poincare_fallback:
            raise DomainEscape("point left the surviving set")
        return _poincare_step(x, sigma)


class ArnouxRauzyPoincare(ArnouxRauzy):
    poincare_fallback = True


class Selmer(NamedSystem):
    """Section cones spanned by hull points of the stable domain."""

    def _vertex(self, x):
        rho = _ordering(x)
        return _vname("S", (rho[-1],) + rho[:-1])

    def _columns(self, vertex):
        sigma = _sigma(vertex)
        n = self.dim
        cols = [None] * n
        cols[int(sigma[0]) - 1] = _v_point(n, sigma[0])
        cols[int(sigma[-1]) - 1] = _v_point(n, sigma[-1])
        cols[int(sigma[1]) - 1] = tuple(1 for _ in range(n))
        for k in range(2, n - 1):
            bump = {sigma[j] for j in range(1, k)}
            cols[int(sigma[k]) - 1] = tuple(
                2 if str(i + 1) in bump else 1 for i in range(n)
            )
        return cols

    def in_domain(self, x):
        if any(c <= 0 for c in x):
            return False
        sigma = _ordering(x)
        return _coord(x, sigma[0]) < _coord(x, sigma[-2]) + _coord(x, sigma[-1])

    def reference_step(self, x):
        sigma = _ordering(x)
        out = list(x)
        out[int(sigma[0]) - 1] = _coord(x, sigma[0]) - _coord(x, sigma[-1])
        return tuple(out)


class Cassaigne(NamedSystem):
    """Three-letter system conjugate to the reversal quotient of the
    alternating subtractive map.

    The classical step commutes with reversing the coordinates, and the
    three-vertex graph identifies each point with its reversal.  The
    conjugacy therefore works on semi-sorted representatives (first
    coordinate larger than the last): ``canonical`` picks the
    representative, ``embed`` sends it through a fixed change of basis into
    the cone at vertex ``a``, and ``project`` sorts the cone point back into
    a representative.
    """

    CENTER = {"a": "1", "b": "2", "c": "3"}
    # Change of basis between representatives and sorted cone points;
    # column k holds the image of the k-th unit vector.
    _H = ((1, 1, 1), (2, 1, 1), (1, 1, 0))
    _H_ROWS = tuple(zip(*_H))
    _H_INV = _integer_inverse(_H)

    def _vertex(self, x):
        return "a"

    def _columns(self, vertex):
        m = self.CENTER[vertex]
        return [(1, 1, 1) if a == m else _v_point(3, a) for a in _labels(3)]

    def in_domain(self, x):
        return all(c > 0 for c in x) and x[0] != x[2]

    def canonical(self, x):
        if x[0] == x[2]:
            raise BoundaryTieError("equal outer coordinates")
        return tuple(x) if x[0] > x[2] else (x[2], x[1], x[0])

    def embed(self, x):
        x = self.canonical(x)
        return super().embed(mat_vec(self._H_ROWS, x))

    def project(self, vertex, y):
        z = sorted(super().project(vertex, y), reverse=True)
        return self.canonical(mat_vec(self._H_INV, z))

    def reference_step(self, x):
        x1, x2, x3 = x
        if x1 == x3:
            raise BoundaryTieError("equal outer coordinates")
        if x1 > x3:
            return (x1 - x3, x3, x2)
        return (x2, x1, x3 - x1)


# -- graph constructions: each returns (graph, section, meta) --------------


def _fully_subtractive_graph(n):
    labels = _labels(n)
    graph = SimplicialSystem(labels, ["v"], [("v", "v", l) for l in labels])
    return graph, frozenset(["v"]), {}


def _poincare_graph(n):
    labels = _labels(n)
    root = "R"
    vertices = {root}
    edges = []
    frontier = [(root, frozenset())]
    while frontier:
        nxt = []
        for v, consumed in frontier:
            remaining = [l for l in labels if l not in consumed]
            for l in remaining:
                left = consumed | {l}
                if len(left) == n - 1:
                    edges.append((v, root, l))
                    continue
                child = "P:" + ",".join(sorted(left))
                edges.append((v, child, l))
                if child not in vertices:
                    vertices.add(child)
                    nxt.append((child, left))
        frontier = nxt
    order = [root] + sorted(v for v in vertices if v != root)
    return SimplicialSystem(labels, order, edges), frozenset([root]), {}


def _brun_chain(vertices, edges, sigma, head, mid, end, exit_to):
    """Append Brun's chain at the ranking ``sigma``: from ``head`` through
    vertices named with ``mid`` to ``end``, losing the labels from the last
    rank up, and from each chain vertex the edge losing the head, into the
    vertex named with ``exit_to`` whose ranking moves the head down to the
    rank the chain has reached."""
    n = len(sigma)
    chain = [head] + [_vname(mid, sigma, k) for k in range(1, n - 1)] + [end]
    vertices.extend(chain[:-1])
    for k in range(n - 1):
        edges.append((chain[k], chain[k + 1], sigma[n - 1 - k]))
    for k in range(n - 1):
        edges.append((chain[k], _vname(exit_to, _rot(sigma, n - k)), sigma[0]))


def _brun_graph(n):
    labels = _labels(n)
    vertices = []
    edges = []
    for sigma in itertools.permutations(labels):
        white = _vname("B", sigma)
        _brun_chain(vertices, edges, sigma, white, "B", white, "B")
    graph = fold(SimplicialSystem(labels, vertices, edges))
    section = frozenset(v for v in graph.vertices if v.count(":") == 1)
    return graph, section, {}


def fold(system):
    """Merge vertices with identical labeled out-edge maps until stable."""
    names = {v: v for v in system.vertices}
    while True:
        sig = {}
        for v, out in system.table.items():
            key = tuple((li, names[dst]) for _, li, dst, _ in out)
            sig.setdefault(key, []).append(v)
        changed = False
        for group in sig.values():
            rep = min(names[v] for v in group)
            for v in group:
                if names[v] != rep:
                    names[v] = rep
                    changed = True
        if not changed:
            break
    kept = sorted({names[v] for v in system.vertices})
    edges = dict.fromkeys((names[e.src], names[e.dst], e.label) for e in system.edges)
    return SimplicialSystem(system.alphabet, kept, list(edges))


def _selmer_graph(n):
    labels = _labels(n)
    vertices = []
    edges = []
    for sigma in itertools.permutations(labels):
        v = _vname("S", sigma)
        vertices.append(v)
        edges.append((v, _vname("S", _rot(sigma, n)), sigma[-1]))
        edges.append((v, _vname("S", _rot(sigma, n - 1)), sigma[0]))
    graph = SimplicialSystem(labels, vertices, edges)
    return graph, frozenset(vertices), {}


def _cassaigne_graph(n):
    edges = [
        ("a", "b", "2"),
        ("b", "c", "3"),
        ("c", "a", "1"),
        ("b", "a", "1"),
        ("c", "b", "2"),
        ("a", "c", "3"),
    ]
    graph = SimplicialSystem(_labels(n), ["a", "b", "c"], edges)
    return graph, frozenset(graph.vertices), {}


def _arnoux_rauzy_graph(n, exits):
    """Common skeleton of the hole-bearing system and its completed variant.

    ``exits`` decides where the critical-wall edges point: "hole" grows one
    terminal vertex per exit, "recycle" reenters the state whose head moved
    last (defined for n = 3 in the classical way, and experimentally for
    larger n by reentering the full rotation).  ``meta["exit_edges"]`` lists
    the critical-wall edges.
    """
    labels = _labels(n)
    vertices = []
    edges = []
    exit_edges = []
    for sigma in itertools.permutations(labels):
        white = _vname("I", sigma)
        tilde = _vname("J", sigma)
        _brun_chain(vertices, edges, sigma, white, "A", tilde, "J")
        vertices.append(tilde)
        seq = []
        for j in range(3, n + 1):
            seq.extend([sigma[j - 1]] * (j - 2))
        chain2 = [tilde] + [_vname("K", sigma, k) for k in range(1, len(seq))] + [white]
        vertices.extend(chain2[1:-1])
        for k, lab in enumerate(seq):
            edges.append((chain2[k], chain2[k + 1], lab))
        for k in range(len(seq)):
            if exits == "hole":
                hole = _vname("X", sigma, k)
                vertices.append(hole)
                target = hole
            else:
                target = _vname("I", _rot(sigma, n))
            edges.append((chain2[k], target, sigma[0]))
            exit_edges.append(len(edges) - 1)
    section = frozenset(v for v in vertices if v.startswith("I:"))
    return SimplicialSystem(labels, vertices, edges), section, {"exit_edges": exit_edges}


# -- the catalog -----------------------------------------------------------


class _Family(NamedTuple):
    cls: type
    make: Callable  # letter count -> (graph, section, meta)
    letters: tuple  # fewest and most letters
    dims: str  # the letter counts as ``catalog_entries`` lists them
    holes: bool = False
    why: str = ""  # why the letter count is bounded
    gasket: bool = False  # also accepts the simplex dimension 2 for 3 letters


_RANKINGS = "its graph has a vertex per ranking of the letters"

FAMILIES = {
    "gauss": _Family(FullySubtractive, _fully_subtractive_graph, (2, 2), "2"),
    "fully-subtractive": _Family(
        FullySubtractive, _fully_subtractive_graph, (3, MAX_CRITERION_ALPHABET),
        f"3-{MAX_CRITERION_ALPHABET}",
        why="the criterion check takes no larger alphabet"),
    "poincare": _Family(
        Poincare, _poincare_graph, (3, MAX_POINCARE_DIM), f"3-{MAX_POINCARE_DIM}",
        why="its graph has a vertex per subset of the letters"),
    "brun": _Family(Brun, _brun_graph, (3, MAX_RANKING_DIM),
                    f"3-{MAX_RANKING_DIM}", why=_RANKINGS),
    "selmer-restricted": _Family(Selmer, _selmer_graph, (3, MAX_RANKING_DIM),
                                 f"3-{MAX_RANKING_DIM}", why=_RANKINGS),
    "cassaigne": _Family(Cassaigne, _cassaigne_graph, (3, 3), "3"),
    "arnoux-rauzy": _Family(
        ArnouxRauzy, lambda n: _arnoux_rauzy_graph(n, "hole"),
        (3, MAX_RANKING_DIM), f"3-{MAX_RANKING_DIM} (or 2)", holes=True,
        why=_RANKINGS, gasket=True),
    "arp": _Family(
        ArnouxRauzyPoincare, lambda n: _arnoux_rauzy_graph(n, "recycle"),
        (3, MAX_RANKING_DIM), f"3 (4-{MAX_RANKING_DIM} experimental)",
        why=_RANKINGS, gasket=True),
}

NAMES = tuple(FAMILIES)

_WORDS = {2: "two", 3: "three"}


def build(name, dim=None):
    """Construct a named system.  ``dim`` counts letters (the gasket family
    also accepts the simplex dimension 2 for the three-letter system)."""
    name = str(name)
    if name not in FAMILIES:
        raise GraphError(f"unknown catalog name {name!r}; choose from {NAMES}")
    family = FAMILIES[name]
    lo, hi = family.letters
    if lo == hi:
        if dim not in (None, lo):
            raise GraphError(f"{name} is {_WORDS[lo]}-letter only")
        n = lo
    elif dim is None or (dim == 2 and family.gasket):
        n = lo
    elif dim < lo:
        raise GraphError(f"{name} needs at least {_WORDS[lo]} letters")
    elif dim > hi:
        raise GraphError(f"{name} is limited to {hi} letters, got {dim}: {family.why}")
    else:
        n = dim
    return family.cls(name, n, *family.make(n))


def catalog_entries():
    return [
        {"name": name, "dims": family.dims, "holes": family.holes}
        for name, family in FAMILIES.items()
    ]


# -- conjugacy -------------------------------------------------------------


def _section_return(named, vertex, y):
    """Integer win-lose steps until the next section vertex."""
    table = named.system.table
    v = vertex
    cur = list(y)
    try:
        for _ in range(4 * named.dim * named.dim + 16):
            v = _advance(table, v, cur)[2]
            if v in named.section:
                return v, tuple(cur)
    except HoleReachedError:
        raise DomainEscape(f"walk entered hole {v!r}") from None
    raise GraphError("no section return within the step guard")


def _projectively_equal(a, b):
    """b = c * a for some c > 0: cross-multiplied against one coordinate k
    that is nonzero in both, and then c has the sign of a[k] * b[k]."""
    k = next((i for i, x in enumerate(a) if x), None)
    if k is None or not b[k] or (a[k] > 0) != (b[k] > 0):
        return False
    return all(x * b[k] == y * a[k] for x, y in zip(a, b))


def sample_domain_point(named, rng, bits=62):
    """Exact interior point of the reference domain, as an integer tuple
    ``x``, with its embedding: ``(x, vertex, y)`` for ``named.embed(x)``."""
    for _ in range(10000):  # draws before giving up
        x = sample_simplex_integers(rng, named.dim, bits)
        if named.in_domain(x):
            try:
                return (x, *named.embed(x))
            except (BoundaryTieError, GraphError):
                continue
    raise GraphError("could not sample a domain point")


def conjugacy_check(named, trials=100, steps=20, seed=0):
    """Compare graph induction with the classical map, exactly.

    Each trial embeds a sampled point, alternates section returns of the
    induction with reference steps of the classical map, and requires exact
    projective agreement after every return.  Boundary ties abandon a trial.
    The points are drawn from ``make_rng(seed)``.
    """
    rng = make_rng(seed)
    agreements = 0
    ties = 0
    escapes = 0
    failures = []
    for t in range(trials):
        x, v, y = sample_domain_point(named, rng)
        ref = x
        ok = True
        try:
            for k in range(steps):
                ref = named.reference_step(ref)
                v, y = _section_return(named, v, y)
                got = named.project(v, y)
                if not _projectively_equal(got, named.canonical(ref)):
                    failures.append(
                        {"trial": t, "step": k, "point": [str(c) for c in x]}
                    )
                    ok = False
                    break
        except BoundaryTieError:
            ties += 1
            continue
        except DomainEscape:
            escapes += 1
            continue
        if ok:
            agreements += 1
    return {
        "trials": trials,
        "steps": steps,
        "agreements": agreements,
        "ties": ties,
        "escapes": escapes,
        "tie_rate": ties / trials if trials else 0.0,
        "failures": failures,
        "seed": seed,
    }


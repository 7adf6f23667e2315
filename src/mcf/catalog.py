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
    """The letters "1" to "n", the label of coordinate i at index i."""
    return tuple(str(i + 1) for i in range(n))


_RANKING_LABELS = _labels(MAX_RANKING_DIM)


def _rot(sigma, j):
    """Move the head of the ranking to position j (1-indexed)."""
    return sigma[1:j] + (sigma[0],) + sigma[j:]


def _vname(prefix, sigma, k=None):
    """The name of a vertex at a ranking of coordinates, written in labels."""
    base = f"{prefix}:" + ",".join([_RANKING_LABELS[i] for i in sigma])
    return base if k is None else f"{base}:{k}"


def _ordering(x):
    """Coordinates ranked by decreasing value; ties are boundary events."""
    idx = tuple(sorted(range(len(x)), key=lambda i: x[i], reverse=True))
    for a, b in zip(idx, idx[1:]):
        if x[a] == x[b]:
            raise BoundaryTieError("equal coordinates in ranking")
    return idx


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


def _v_point(n, a):
    """All-ones vector with a zero in coordinate a."""
    return tuple(0 if i == a else 1 for i in range(n))


@dataclass
class NamedSystem:
    """A graph with its section and the classical map it linearizes.

    ``section`` maps each section vertex to the key its cone is built from.
    A simplex point x is carried at the vertex of key ``_key(x)``, in the
    cone spanned by that key's integer ``_columns`` (the column of
    coordinate a at index a).  By default there is one section vertex, of
    key None, and its columns are the unit vectors, so the graph point is x
    itself.
    """

    name: str
    dim: int
    system: SimplicialSystem
    section: dict
    meta: dict = field(default_factory=dict)
    _by_key: dict = field(init=False, repr=False, compare=False)
    _bases: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        self._by_key = {key: v for v, key in self.section.items()}

    def _key(self, x):
        """Key of the section vertex whose cone holds x."""
        return None

    def _columns(self, key):
        n = self.dim
        return [tuple(int(i == a) for i in range(n)) for a in range(n)]

    def _basis(self, vertex):
        """Rows of the vertex's column matrix and of its integer inverse,
        built once."""
        basis = self._bases.get(vertex)
        if basis is None:
            cols = self._columns(self.section[vertex])
            basis = self._bases[vertex] = tuple(zip(*cols)), _integer_inverse(cols)
        return basis

    def embed(self, x):
        """Section vertex and positive cone coordinates of x, up to a
        positive factor."""
        vertex = self._by_key[self._key(x)]
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
        low = _ordering(x)[-1]
        return tuple(c if i == low else c - x[low] for i, c in enumerate(x))


def _poincare_step(x, sigma):
    """Every coordinate but the smallest minus the next one in the ranking
    ``sigma``."""
    out = list(x)
    for a, b in zip(sigma, sigma[1:]):
        out[a] = x[a] - x[b]
    return tuple(out)


class Poincare(NamedSystem):
    def reference_step(self, x):
        return _poincare_step(x, _ordering(x))


class Brun(NamedSystem):
    """Section vertices keyed by the ranking of the point, with telescoping
    columns: the head's column is its unit vector, and the column of the k-th
    coordinate after the head sums the unit vectors of the first k after the
    head.  Their inverse is unimodular: the head keeps its coordinate, each
    later one stores the gap to the next one and the last its own."""

    def _key(self, x):
        return _ordering(x)

    def _columns(self, sigma):
        cols = [None] * self.dim
        for k, a in enumerate(sigma):
            span = sigma[min(k, 1):k + 1]
            cols[a] = tuple(int(i in span) for i in range(self.dim))
        return cols

    def reference_step(self, x):
        top, second = _ordering(x)[:2]
        out = list(x)
        out[top] = x[top] - x[second]
        return tuple(out)


class ArnouxRauzy(Brun):
    """Its graph opens with Brun's chain at each ranking, so its section
    cones are Brun's."""

    poincare_fallback = False

    def reference_step(self, x):
        sigma = _ordering(x)
        top = x[sigma[0]]
        rest = sum(x[a] for a in sigma[1:])
        if top == rest:
            raise BoundaryTieError("point on the critical wall")
        if top > rest:
            out = list(x)
            out[sigma[0]] = top - rest
            return tuple(out)
        if not self.poincare_fallback:
            raise DomainEscape("point left the surviving set")
        return _poincare_step(x, sigma)


class ArnouxRauzyPoincare(ArnouxRauzy):
    poincare_fallback = True


class Selmer(NamedSystem):
    """Section cones spanned by hull points of the stable domain."""

    def _key(self, x):
        rho = _ordering(x)
        return (rho[-1],) + rho[:-1]

    def _columns(self, sigma):
        n = self.dim
        cols = [None] * n
        cols[sigma[0]] = _v_point(n, sigma[0])
        cols[sigma[-1]] = _v_point(n, sigma[-1])
        cols[sigma[1]] = (1,) * n
        for k in range(2, n - 1):
            bump = sigma[1:k]
            cols[sigma[k]] = tuple(2 if i in bump else 1 for i in range(n))
        return cols

    def in_domain(self, x):
        if any(c <= 0 for c in x):
            return False
        sigma = _ordering(x)
        return x[sigma[0]] < x[sigma[-2]] + x[sigma[-1]]

    def reference_step(self, x):
        sigma = _ordering(x)
        out = list(x)
        out[sigma[0]] = x[sigma[0]] - x[sigma[-1]]
        return tuple(out)


class Cassaigne(NamedSystem):
    """Three-letter system conjugate to the reversal quotient of the
    alternating subtractive map.

    The classical step commutes with reversing the coordinates, and the
    three-vertex graph identifies each point with its reversal.  The
    conjugacy therefore works on semi-sorted representatives (first
    coordinate larger than the last): ``canonical`` picks the
    representative, ``embed`` sends it through a fixed change of basis into
    the cone at vertex ``a``, centred at coordinate 0, and ``project`` sorts
    the cone point back into a representative.
    """

    # Change of basis between representatives and sorted cone points;
    # column k holds the image of the k-th unit vector.
    _H = ((1, 1, 1), (2, 1, 1), (1, 1, 0))
    _H_ROWS = tuple(zip(*_H))
    _H_INV = _integer_inverse(_H)

    def _key(self, x):
        return 0

    def _columns(self, m):
        return [(1, 1, 1) if a == m else _v_point(3, a) for a in range(3)]

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


# -- graph constructions: each returns (graph, section, meta), with the
# section mapping each section vertex to its key ---------------------------


def _fully_subtractive_graph(n):
    labels = _labels(n)
    graph = SimplicialSystem(labels, ["v"], [("v", "v", l) for l in labels])
    return graph, {"v": None}, {}


def _poincare_graph(n):
    """A vertex per set of lost letters, R for none; losing the (n - 1)-th
    letter returns to R."""
    labels = _labels(n)

    def name(letters):
        return "P:" + ",".join(sorted(letters)) if letters else "R"

    edges = []
    for k in range(n - 1):
        for s in itertools.combinations(labels, k):
            src = name(s)
            edges += [(src, "R" if k == n - 2 else name(s + (l,)), l)
                      for l in labels if l not in s]
    subsets = sorted({src for src, _, _ in edges} - {"R"})
    return SimplicialSystem(labels, ["R", *subsets], edges), {"R": None}, {}


def _brun_chain(vertices, edges, labels, sigma, head, mid, end, exit_to):
    """Append Brun's chain at the ranking ``sigma``: from ``head`` through
    vertices named with ``mid`` to ``end``, losing the coordinates from the
    last rank up, and from each chain vertex the edge losing the head, into
    the vertex named with ``exit_to`` whose ranking moves the head down to
    the rank the chain has reached."""
    n = len(sigma)
    chain = [head] + [_vname(mid, sigma, k) for k in range(1, n - 1)] + [end]
    vertices.extend(chain[:-1])
    for k in range(n - 1):
        edges.append((chain[k], chain[k + 1], labels[sigma[n - 1 - k]]))
    for k in range(n - 1):
        edges.append((chain[k], _vname(exit_to, _rot(sigma, n - k)), labels[sigma[0]]))


def _brun_graph(n):
    labels = _labels(n)
    vertices = []
    edges = []
    section = {}
    for sigma in itertools.permutations(range(n)):
        white = _vname("B", sigma)
        section[white] = sigma
        _brun_chain(vertices, edges, labels, sigma, white, "B", white, "B")
    # The chain's last inner vertex at sigma loses sigma[1] to sigma's white
    # vertex and sigma[0] to rot(sigma, 2), sigma with its first two ranks
    # swapped, whose vertex has the same two edges: the two rankings share
    # it, named for the ranking with the smaller head.  ``names`` also gives
    # each edge its endpoints' vertex strings, one object per vertex.
    names = {v: v for v in vertices}
    for s in section.values():
        names[_vname("B", s, n - 2)] = names[_vname("B", min(s, _rot(s, 2)), n - 2)]
    edges = dict.fromkeys((names[a], names[b], l) for a, b, l in edges)
    vertices = sorted(set(names.values()))
    return SimplicialSystem(labels, vertices, list(edges)), section, {}


def _selmer_graph(n):
    labels = _labels(n)
    section = {}
    edges = []
    for sigma in itertools.permutations(range(n)):
        v = _vname("S", sigma)
        section[v] = sigma
        edges.append((v, _vname("S", _rot(sigma, n)), labels[sigma[-1]]))
        edges.append((v, _vname("S", _rot(sigma, n - 1)), labels[sigma[0]]))
    return SimplicialSystem(labels, list(section), edges), section, {}


def _cassaigne_graph(n):
    edges = [
        ("a", "b", "2"),
        ("b", "c", "3"),
        ("c", "a", "1"),
        ("b", "a", "1"),
        ("c", "b", "2"),
        ("a", "c", "3"),
    ]
    section = {"a": 0, "b": 1, "c": 2}  # each vertex's cone centre
    return SimplicialSystem(_labels(n), list(section), edges), section, {}


def _arnoux_rauzy_graph(n, exits):
    """Common skeleton of the hole-bearing system and its completed variant.

    ``exits`` decides where the critical-wall edges point: "hole" grows one
    terminal vertex per exit, "recycle" reenters the state whose head moved
    last.  At n = 3 that is the classical completion; at larger n it
    reenters the full rotation, which does not linearize the map, so the
    catalog builds it at three letters only.  ``meta["exit_edges"]`` lists
    the critical-wall edges.
    """
    labels = _labels(n)
    vertices = []
    edges = []
    exit_edges = []
    section = {}
    for sigma in itertools.permutations(range(n)):
        white = _vname("I", sigma)
        tilde = _vname("J", sigma)
        section[white] = sigma
        _brun_chain(vertices, edges, labels, sigma, white, "A", tilde, "J")
        vertices.append(tilde)
        seq = []
        for j in range(3, n + 1):
            seq.extend([labels[sigma[j - 1]]] * (j - 2))
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
            edges.append((chain2[k], target, labels[sigma[0]]))
            exit_edges.append(len(edges) - 1)
    return SimplicialSystem(labels, vertices, edges), section, {"exit_edges": exit_edges}


# -- the catalog -----------------------------------------------------------


class _Family(NamedTuple):
    cls: type
    make: Callable  # letter count -> (graph, section, meta)
    letters: tuple  # fewest and most letters
    why: str  # why the letter count is bounded
    gasket: bool = False  # also accepts the simplex dimension 2 for 3 letters


_RANKINGS = "its graph has a vertex per ranking of the letters"

FAMILIES = {
    "gauss": _Family(FullySubtractive, _fully_subtractive_graph, (2, 2),
                     "it is fully-subtractive at two letters"),
    "fully-subtractive": _Family(
        FullySubtractive, _fully_subtractive_graph, (3, MAX_CRITERION_ALPHABET),
        "the criterion check takes no larger alphabet"),
    "poincare": _Family(Poincare, _poincare_graph, (3, MAX_POINCARE_DIM),
                        "its graph has a vertex per subset of the letters"),
    "brun": _Family(Brun, _brun_graph, (3, MAX_RANKING_DIM), _RANKINGS),
    "selmer-restricted": _Family(Selmer, _selmer_graph, (3, MAX_RANKING_DIM),
                                 _RANKINGS),
    "cassaigne": _Family(Cassaigne, _cassaigne_graph, (3, 3),
                         "its map acts on three coordinates"),
    "arnoux-rauzy": _Family(
        ArnouxRauzy, lambda n: _arnoux_rauzy_graph(n, "hole"),
        (3, MAX_RANKING_DIM), _RANKINGS, gasket=True),
    "arp": _Family(
        ArnouxRauzyPoincare, lambda n: _arnoux_rauzy_graph(n, "recycle"),
        (3, 3), "its recycled exits linearize the map at three letters only",
        gasket=True),
}

NAMES = tuple(FAMILIES)


def build(name, dim=None):
    """Construct a named system.  ``dim`` counts letters (the gasket family
    also accepts the simplex dimension 2 for the three-letter system)."""
    name = str(name)
    if name not in FAMILIES:
        raise GraphError(f"unknown catalog name {name!r}; choose from {NAMES}")
    family = FAMILIES[name]
    lo, hi = family.letters
    n = lo if dim is None or (dim == 2 and family.gasket) else dim
    if n < lo:
        raise GraphError(f"{name} needs at least {lo} letters")
    if n > hi:
        raise GraphError(f"{name} is limited to {hi} letters, got {n}: {family.why}")
    return family.cls(name, n, *family.make(n))


def catalog_entries():
    """Each family's name, letter counts and whether its graph has holes."""
    entries = []
    for name, family in FAMILIES.items():
        lo, hi = family.letters
        dims = str(lo) if lo == hi else f"{lo}-{hi}"
        if family.gasket:
            dims += " (or 2)"
        holes = bool(family.make(lo)[0].holes)
        entries.append({"name": name, "dims": dims, "holes": holes})
    return entries


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
        try:
            for k in range(steps):
                ref = named.reference_step(ref)
                v, y = _section_return(named, v, y)
                got = named.project(v, y)
                if not _projectively_equal(got, named.canonical(ref)):
                    failures.append(
                        {"trial": t, "step": k, "point": [str(c) for c in x]}
                    )
                    break
            else:
                agreements += 1
        except BoundaryTieError:
            ties += 1
        except DomainEscape:
            escapes += 1
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


"""Named graph models of classical subtractive continued fraction algorithms.

Each entry couples a labeled graph with the classical map it linearizes: an
exact embedding of simplex points into per-vertex cone coordinates, the
classical reference step, and a projection back.  A conjugacy check walks the
graph induction to its section and compares, exactly and projectively, with
iterating the reference map.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import GraphError, SimplicialSystem
from .induction import BoundaryTieError, HoleReachedError, _advance, _integer_point


class DomainEscape(RuntimeError):
    """The reference map is undefined at the point (it left the surviving set)."""


# Largest letter count of the families whose graph has a vertex per ranking:
# brun(7) has 27 720 vertices and arnoux-rauzy(7) 181 440, and each further
# letter multiplies the size and the build time by about ten.
MAX_RANKING_DIM = 7

NAMES = (
    "gauss",
    "fully-subtractive",
    "poincare",
    "brun",
    "selmer-restricted",
    "cassaigne",
    "arnoux-rauzy",
    "arp",
)


def _labels(n):
    return tuple(str(i + 1) for i in range(n))


def _rot(sigma, j):
    """Move the head of the ranking to position j (1-indexed)."""
    return sigma[1:j] + (sigma[0],) + sigma[j:]


def _vname(prefix, sigma, k=None):
    base = f"{prefix}:" + ",".join(sigma)
    return base if k is None else f"{base}:{k}"


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


@dataclass
class NamedSystem:
    name: str
    dim: int
    system: SimplicialSystem
    section: frozenset
    meta: dict = field(default_factory=dict)

    def embed(self, x):
        raise NotImplementedError

    def project(self, vertex, y):
        raise NotImplementedError

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


# -- direct systems: the graph point is the simplex point itself -----------


class _IdentitySystem(NamedSystem):
    def embed(self, x):
        return self.meta["base"], tuple(x)

    def project(self, vertex, y):
        if vertex not in self.section:
            raise GraphError(f"{vertex!r} is not a section vertex")
        return tuple(y)


class Gauss(_IdentitySystem):
    def reference_step(self, x):
        a, b = x
        if a == b:
            raise BoundaryTieError("equal coordinates")
        return (a - b, b) if a > b else (a, b - a)


class FullySubtractive(_IdentitySystem):
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


class Poincare(_IdentitySystem):
    def reference_step(self, x):
        return _poincare_step(x, _ordering(x))


# -- ranking-state systems: points carried in per-vertex cone bases --------


class _RankedBasisSystem(NamedSystem):
    """Systems whose section vertices are indexed by rankings, with the
    telescoping difference basis: the head label keeps its own coordinate and
    each later rank stores the gap to the next one."""

    prefix = "B"

    def embed(self, x):
        sigma = _ordering(x)
        return _vname(self.prefix, sigma), self._to_basis(sigma, x)

    def _to_basis(self, sigma, x):
        y = [None] * self.dim
        y[int(sigma[0]) - 1] = _coord(x, sigma[0])
        y[int(sigma[-1]) - 1] = _coord(x, sigma[-1])
        for k in range(1, self.dim - 1):
            y[int(sigma[k]) - 1] = _coord(x, sigma[k]) - _coord(x, sigma[k + 1])
        return tuple(y)

    def project(self, vertex, y):
        if vertex not in self.section:
            raise GraphError(f"{vertex!r} is not a section vertex")
        sigma = tuple(vertex.split(":")[1].split(","))
        x = [None] * self.dim
        x[int(sigma[0]) - 1] = y[int(sigma[0]) - 1]
        acc = 0
        for l in reversed(sigma[1:]):
            acc = acc + y[int(l) - 1]
            x[int(l) - 1] = acc
        return tuple(x)


class Brun(_RankedBasisSystem):
    prefix = "B"

    def reference_step(self, x):
        sigma = _ordering(x)
        out = list(x)
        out[int(sigma[0]) - 1] = _coord(x, sigma[0]) - _coord(x, sigma[1])
        return tuple(out)


class ArnouxRauzy(_RankedBasisSystem):
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


# -- hull-basis systems: Selmer and its folded three-letter form -----------


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


class _HullBasisSystem(NamedSystem):
    """Systems whose vertex cones are simplices spanned by explicit hull
    points; embedding solves for exact barycentric-like coordinates, up to a
    positive factor per vertex, in integers."""

    def _hull_columns(self, vertex):
        raise NotImplementedError

    def _basis(self, vertex):
        """The vertex's hull columns and their integer inverse, built once."""
        cache = self.meta.setdefault("_basis", {})
        if vertex not in cache:
            cols = self._hull_columns(vertex)
            cache[vertex] = cols, _integer_inverse(cols)
        return cache[vertex]

    def _solve(self, vertex, x):
        inv = self._basis(vertex)[1]
        return tuple(sum(row[j] * x[j] for j in range(self.dim)) for row in inv)

    def project(self, vertex, y):
        if vertex not in self.section:
            raise GraphError(f"{vertex!r} is not a section vertex")
        cols = self._basis(vertex)[0]
        return tuple(
            sum(cols[a][i] * y[a] for a in range(self.dim)) for i in range(self.dim)
        )


def _v_point(n, alpha):
    """All-ones vector with a zero in the given label coordinate."""
    return tuple(0 if i == int(alpha) - 1 else 1 for i in range(n))


class Selmer(_HullBasisSystem):
    def _hull_columns(self, vertex):
        sigma = tuple(vertex.split(":")[1].split(","))
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

    def embed(self, x):
        rho = _ordering(x)
        sigma = (rho[-1],) + rho[:-1]
        vertex = _vname("S", sigma)
        y = self._solve(vertex, x)
        if any(c <= 0 for c in y):
            raise GraphError("point is outside the stable domain")
        return vertex, y

    def reference_step(self, x):
        sigma = _ordering(x)
        out = list(x)
        out[int(sigma[0]) - 1] = _coord(x, sigma[0]) - _coord(x, sigma[-1])
        return tuple(out)


class Cassaigne(_HullBasisSystem):
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

    def _hull_columns(self, vertex):
        m = self.CENTER[vertex]
        cols = [None] * 3
        for a in ("1", "2", "3"):
            if a == m:
                cols[int(a) - 1] = (1, 1, 1)
            else:
                cols[int(a) - 1] = _v_point(3, a)
        return cols

    def in_domain(self, x):
        return all(c > 0 for c in x) and x[0] != x[2]

    def canonical(self, x):
        if x[0] == x[2]:
            raise BoundaryTieError("equal outer coordinates")
        return tuple(x) if x[0] > x[2] else (x[2], x[1], x[0])

    def _h_inverse(self):
        inv = self.meta.get("_hinv")
        if inv is None:
            inv = self.meta["_hinv"] = _integer_inverse(self._H)
        return inv

    def embed(self, x):
        x = self.canonical(x)
        z = tuple(sum(self._H[k][i] * x[k] for k in range(3)) for i in range(3))
        y = self._solve("a", z)
        if any(c <= 0 for c in y):
            raise GraphError("point is outside the stable domain")
        return "a", y

    def project(self, vertex, y):
        z = super().project(vertex, y)
        z = tuple(sorted(z, reverse=True))
        inv = self._h_inverse()
        x = tuple(sum(row[j] * z[j] for j in range(3)) for row in inv)
        return self.canonical(x)

    def reference_step(self, x):
        x1, x2, x3 = x
        if x1 == x3:
            raise BoundaryTieError("equal outer coordinates")
        if x1 > x3:
            return (x1 - x3, x3, x2)
        return (x2, x1, x3 - x1)


# -- graph constructions ---------------------------------------------------


def _gauss_graph():
    return SimplicialSystem(_labels(2), ["v"], [("v", "v", "1"), ("v", "v", "2")])


def _fully_subtractive_graph(n):
    return SimplicialSystem(_labels(n), ["v"], [("v", "v", l) for l in _labels(n)])


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
    return SimplicialSystem(labels, order, edges)


def _brun_graph(n):
    labels = _labels(n)
    vertices = []
    edges = []
    for sigma in itertools.permutations(labels):
        white = _vname("B", sigma)
        vertices.append(white)
        chain = [white] + [_vname("B", sigma, k) for k in range(1, n - 1)] + [white]
        vertices.extend(chain[1:-1])
        for k in range(n - 1):
            edges.append((chain[k], chain[k + 1], sigma[n - 1 - k]))
        for k in range(n - 1):
            edges.append((chain[k], _vname("B", _rot(sigma, n - k)), sigma[0]))
    return SimplicialSystem(labels, vertices, edges)


def fold(system):
    """Merge vertices with identical labeled out-edge maps until stable."""
    names = {v: v for v in system.vertices}
    edges = list(system.edges)
    while True:
        sig = {}
        for v in system.vertices:
            key = tuple(
                sorted((e.label, names[e.dst]) for e in
                       (system.edges[i] for i in system.out[v]))
            )
            sig.setdefault((bool(system.out[v]), key), []).append(v)
        changed = False
        for (_, _), group in sig.items():
            rep = min(names[v] for v in group)
            for v in group:
                if names[v] != rep:
                    names[v] = rep
                    changed = True
        if not changed:
            break
    kept = sorted({names[v] for v in system.vertices})
    seen = set()
    new_edges = []
    for e in edges:
        item = (names[e.src], names[e.dst], e.label)
        if item not in seen:
            seen.add(item)
            new_edges.append(item)
    return SimplicialSystem(system.alphabet, kept, new_edges)


def _selmer_graph(n):
    labels = _labels(n)
    vertices = []
    edges = []
    for sigma in itertools.permutations(labels):
        v = _vname("S", sigma)
        vertices.append(v)
        edges.append((v, _vname("S", _rot(sigma, n)), sigma[-1]))
        edges.append((v, _vname("S", _rot(sigma, n - 1)), sigma[0]))
    return SimplicialSystem(labels, vertices, edges)


def _cassaigne_graph():
    edges = [
        ("a", "b", "2"),
        ("b", "c", "3"),
        ("c", "a", "1"),
        ("b", "a", "1"),
        ("c", "b", "2"),
        ("a", "c", "3"),
    ]
    return SimplicialSystem(_labels(3), ["a", "b", "c"], edges)


def _arnoux_rauzy_graph(n, exits):
    """Common skeleton of the hole-bearing system and its completed variant.

    ``exits`` decides where the critical-wall edges point: "hole" grows one
    terminal vertex per exit, "recycle" reenters the state whose head moved
    last (defined for n = 3 in the classical way, and experimentally for
    larger n by reentering the full rotation).
    """
    labels = _labels(n)
    vertices = []
    edges = []
    exit_edges = []
    for sigma in itertools.permutations(labels):
        white = _vname("I", sigma)
        tilde = _vname("J", sigma)
        vertices.extend([white])
        chain = [white] + [_vname("A", sigma, k) for k in range(1, n - 1)] + [tilde]
        vertices.extend(chain[1:-1])
        for k in range(n - 1):
            edges.append((chain[k], chain[k + 1], sigma[n - 1 - k]))
        for k in range(n - 1):
            edges.append((chain[k], _vname("J", _rot(sigma, n - k)), sigma[0]))
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
    return SimplicialSystem(labels, vertices, edges), exit_edges


def _resolve_dim(name, dim):
    if name == "gauss":
        if dim not in (None, 2):
            raise GraphError("gauss is two-letter only")
        return 2
    if name == "cassaigne":
        if dim not in (None, 3):
            raise GraphError("cassaigne is three-letter only")
        return 3
    if dim is None:
        return 3
    if name in ("arnoux-rauzy", "arp") and dim == 2:
        # Simplex-dimension convention for the gasket family: the planar
        # gasket sits in the triangle, i.e. three letters.
        return 3
    if dim < 3:
        raise GraphError(f"{name} needs at least three letters")
    if dim > MAX_RANKING_DIM and name in (
        "brun", "selmer-restricted", "arnoux-rauzy", "arp"
    ):
        raise GraphError(
            f"{name} is limited to {MAX_RANKING_DIM} letters, got {dim}: its "
            f"graph has a vertex per ranking of the letters"
        )
    return dim


def build(name, dim=None):
    """Construct a named system.  ``dim`` counts letters (the gasket family
    also accepts the simplex dimension 2 for the three-letter system)."""
    name = str(name)
    if name not in NAMES:
        raise GraphError(f"unknown catalog name {name!r}; choose from {NAMES}")
    n = _resolve_dim(name, dim)
    if name == "gauss":
        sys_ = _gauss_graph()
        return Gauss("gauss", 2, sys_, frozenset(["v"]), {"base": "v"})
    if name == "fully-subtractive":
        sys_ = _fully_subtractive_graph(n)
        return FullySubtractive(name, n, sys_, frozenset(["v"]), {"base": "v"})
    if name == "poincare":
        sys_ = _poincare_graph(n)
        return Poincare(name, n, sys_, frozenset(["R"]), {"base": "R"})
    if name == "brun":
        sys_ = fold(_brun_graph(n))
        section = frozenset(v for v in sys_.vertices if v.count(":") == 1)
        return Brun(name, n, sys_, section)
    if name == "selmer-restricted":
        sys_ = _selmer_graph(n)
        return Selmer(name, n, sys_, frozenset(sys_.vertices))
    if name == "cassaigne":
        sys_ = _cassaigne_graph()
        return Cassaigne(name, 3, sys_, frozenset(["a", "b", "c"]))
    if name == "arnoux-rauzy":
        sys_, exits = _arnoux_rauzy_graph(n, "hole")
        section = frozenset(v for v in sys_.vertices if v.startswith("I:"))
        return ArnouxRauzy(name, n, sys_, section, {"exit_edges": exits})
    if name == "arp":
        sys_, exits = _arnoux_rauzy_graph(n, "recycle")
        section = frozenset(v for v in sys_.vertices if v.startswith("I:"))
        return ArnouxRauzyPoincare(name, n, sys_, section, {"exit_edges": exits})
    raise AssertionError


def catalog_entries():
    return [
        {"name": "gauss", "dims": "2", "holes": False},
        {"name": "fully-subtractive", "dims": ">=3", "holes": False},
        {"name": "poincare", "dims": ">=3", "holes": False},
        {"name": "brun", "dims": "3-7", "holes": False},
        {"name": "selmer-restricted", "dims": "3-7", "holes": False},
        {"name": "cassaigne", "dims": "3", "holes": False},
        {"name": "arnoux-rauzy", "dims": "3-7 (or 2)", "holes": True},
        {"name": "arp", "dims": "3 (4-7 experimental)", "holes": False},
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
    except BoundaryTieError:
        raise BoundaryTieError("tied comparison during section return") from None
    raise GraphError("no section return within the step guard")


def _projectively_equal(a, b):
    """b = c * a for some c > 0: cross-multiplied against one coordinate k
    that is nonzero in both, and then c has the sign of a[k] * b[k]."""
    k = next((i for i, x in enumerate(a) if x), None)
    if k is None or not b[k] or (a[k] > 0) != (b[k] > 0):
        return False
    return all(x * b[k] == y * a[k] for x, y in zip(a, b))


def sample_domain_point(named, rng, bits=62, max_tries=10000):
    """Exact interior point of the reference domain, as an integer tuple."""
    from .stochastic import sample_simplex_integers

    for _ in range(max_tries):
        x = sample_simplex_integers(rng, named.dim, bits)
        if named.in_domain(x):
            try:
                named.embed(x)
            except (BoundaryTieError, GraphError):
                continue
            return x
    raise GraphError("could not sample a domain point")


def conjugacy_check(named, trials=100, steps=20, seed=0, bits=62):
    """Compare graph induction with the classical map, exactly.

    Each trial embeds a sampled point, alternates section returns of the
    induction with reference steps of the classical map, and requires exact
    projective agreement after every return.  Boundary ties abandon a trial.
    """
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=seed))
    agreements = 0
    ties = 0
    escapes = 0
    failures = []
    for t in range(trials):
        x = sample_domain_point(named, rng, bits)
        try:
            v, y = named.embed(x)
            y, _ = _integer_point(y)
        except BoundaryTieError:
            ties += 1
            continue
        ref = tuple(x)
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


def gasket_survival(x, n_steps):
    """Iterate the unrestricted subtract-the-rest map until it escapes."""
    ar = ArnouxRauzy("arnoux-rauzy", len(x), None, frozenset())
    cur = tuple(x)
    for k in range(n_steps):
        try:
            cur = ar.reference_step(cur)
        except (DomainEscape, BoundaryTieError):
            return {"survived": False, "steps": k}
    return {"survived": True, "steps": n_steps}

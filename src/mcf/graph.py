"""Labeled directed multigraphs driving subtractive continued fraction algorithms.

A system is a finite directed multigraph with edges labeled by letters of an
alphabet, such that no two out-edges of a vertex carry the same label.  Each
edge induces a unipotent nonnegative matrix; paths induce products of those
matrices, and the combinatorics of label subsets decides whether the induced
dynamics has a weakly contracting (simplicially nondegenerate) structure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul

MAX_CRITERION_ALPHABET = 16
# Longest loop that ``find_positive_path`` searches for.
MAX_POSITIVE_LOOP = 64


class GraphError(ValueError):
    """Raised for malformed graphs or invalid graph queries."""


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    label: str

    def to_dict(self):
        return {"from": self.src, "to": self.dst, "label": self.label}


def mat_vec(m, v):
    """The matrix with rows ``m`` times the column vector ``v``."""
    return tuple(sum(map(mul, row, v)) for row in m)


class SimplicialSystem:
    """A labeled directed multigraph with per-vertex injective edge labels."""

    def __init__(self, alphabet, vertices, edges):
        self.alphabet = tuple(str(a) for a in alphabet)
        self.vertices = tuple(str(v) for v in vertices)
        self.edges = tuple(
            Edge(str(e.src), str(e.dst), str(e.label))
            if isinstance(e, Edge)
            else Edge(str(e[0]), str(e[1]), str(e[2]))
            for e in edges
        )
        self.label_index = {a: i for i, a in enumerate(self.alphabet)}
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        if not self.alphabet:
            raise GraphError("empty alphabet")
        if len(self.label_index) != len(self.alphabet):
            raise GraphError("duplicate letters in alphabet")
        if len(self.vertex_index) != len(self.vertices):
            raise GraphError("duplicate vertex names")
        # per vertex, its out-edges as (edge, label index, dst) in label order
        out = {v: {} for v in self.vertices}
        for i, e in enumerate(self.edges):
            if e.src not in out:
                raise GraphError(f"edge source {e.src!r} is not a vertex")
            if e.dst not in out:
                raise GraphError(f"edge target {e.dst!r} is not a vertex")
            li = self.label_index.get(e.label)
            if li is None:
                raise GraphError(f"edge label {e.label!r} is not in the alphabet")
            if li in out[e.src]:
                raise GraphError(
                    f"vertex {e.src!r} has two out-edges labeled {e.label!r}"
                )
            out[e.src][li] = (i, li, e.dst)
        self.table = {v: tuple(by[li] for li in sorted(by)) for v, by in out.items()}
        self.holes = tuple(v for v, entries in self.table.items() if not entries)

    # -- basic queries ----------------------------------------------------

    @property
    def dim(self):
        return len(self.alphabet)

    def _entries(self, v):
        if v not in self.vertex_index:
            raise GraphError(f"unknown vertex {v!r}")
        return self.table[v]

    def out_edges(self, v):
        """The out-edge indices of ``v``, in label order."""
        return tuple(entry[0] for entry in self._entries(v))

    def edge_by_label(self, v, label):
        li = self.label_index.get(label)
        for i, lj, _ in self._entries(v):
            if lj == li:
                return i
        raise GraphError(f"vertex {v!r} has no out-edge labeled {label!r}")

    def is_hole(self, v):
        return not self._entries(v)

    # -- the edge action ----------------------------------------------------

    @cached_property
    def _actions(self):
        """Per edge: its loser label index and the competing label indices."""
        return tuple(
            (self.label_index[e.label], [c[1] for c in self.table[e.src]])
            for e in self.edges
        )

    def act(self, edge_index, rows):
        """Right-multiply row vectors by the edge's matrix, in place.

        The edge's matrix is unipotent: the identity plus, in the loser's
        column, a 1 in every row indexed by another out-label of the source
        vertex.  So in each row the loser coordinate becomes the sum of the
        coordinates that compete at the source vertex, the loser's own
        included; the other coordinates are unchanged.  The inverse
        subtracts the loser coordinate from each winner.  Returns ``rows``.
        """
        if not 0 <= edge_index < len(self.edges):
            raise GraphError(f"edge index {edge_index!r} is out of range")
        loser, competing = self._actions[edge_index]
        for row in rows:
            row[loser] = sum([row[c] for c in competing])
        return rows

    def path_matrix(self, path):
        """Ordered product of edge matrices along a path of edge indices: the
        edge actions, in path order, on the rows of the identity."""
        self.check_path(path)
        n = self.dim
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in path:
            self.act(i, rows)
        return tuple(tuple(r) for r in rows)

    def check_path(self, path):
        prev = None
        for i in path:
            if not 0 <= i < len(self.edges):
                raise GraphError(f"edge index {i!r} is out of range")
            e = self.edges[i]
            if prev is not None and e.src != prev:
                raise GraphError("edge sequence is not a path")
            prev = e.dst

    def check_point(self, point, name="point"):
        """The one check of a point or a distortion: a coordinate per letter,
        each positive and finite."""
        if len(point) != self.dim:
            raise GraphError(f"{name} has {len(point)} coordinates, the system "
                             f"{self.dim} letters")
        # int and Fraction compare with inf exactly, so 10**400 passes
        if not all(0 < c < math.inf for c in point):
            raise GraphError(f"{name} must be positive and finite")

    def path_labels(self, path):
        return tuple(self.edges[i].label for i in path)

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        return {
            "alphabet": list(self.alphabet),
            "vertices": list(self.vertices),
            "edges": [e.to_dict() for e in self.edges],
        }

    def to_json(self):
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d):
        if isinstance(d, dict) and "graph" in d:  # as `mcf validate` writes it
            d = d["graph"]
        try:
            edges = [(e["from"], e["to"], e["label"]) for e in d["edges"]]
            return cls(d["alphabet"], d["vertices"], edges)
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed graph document: {exc}") from exc

    @classmethod
    def from_json(cls, text):
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(d)

    def to_dot(self):
        lines = ["digraph system {"]
        for v in self.vertices:
            shape = "doublecircle" if self.is_hole(v) else "circle"
            lines.append(f'  "{v}" [shape={shape}];')
        for e in self.edges:
            lines.append(f'  "{e.src}" -> "{e.dst}" [label="{e.label}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"SimplicialSystem(|A|={self.dim}, vertices={len(self.vertices)}, "
            f"edges={len(self.edges)}, holes={len(self.holes)})"
        )


def _marked(system, mask):
    """Per vertex, the ``table`` entries whose label bit is in ``mask``, and
    the entries the vertex keeps: the marked ones if any exist, otherwise
    all of them."""
    marked, kept = {}, {}
    for v, out in system.table.items():
        marked[v] = [entry for entry in out if mask >> entry[1] & 1]
        kept[v] = marked[v] or out
    return marked, kept


def degenerate_subgraph(system, labels):
    """Keep, at each vertex, only the out-edges labeled in ``labels`` when any
    exist, and all out-edges otherwise."""
    labels = {str(l) for l in labels}
    unknown = labels - set(system.alphabet)
    if unknown:
        raise GraphError(f"labels not in alphabet: {sorted(unknown)}")
    _, kept = _marked(system, sum(1 << system.label_index[l] for l in labels))
    edges = sorted(entry[0] for out in kept.values() for entry in out)
    return SimplicialSystem(
        system.alphabet, system.vertices, [system.edges[i] for i in edges]
    )


def _components(system, out):
    """Tarjan components of the graph whose out-edges at a vertex are the
    ``table`` entries ``out[v]``, visited in vertex and then entry order.

    Returns the components in reverse topological order and the component
    index of every vertex.
    """
    index, low, comp_of = {}, {}, {}
    on_stack = set()
    stack = []
    comps = []
    for root in system.vertices:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = len(index)
                stack.append(v)
                on_stack.add(v)
            entries = out[v]
            for k in range(pi, len(entries)):
                w = entries[k][2]
                if w not in index:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp_of[w] = len(comps)
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    return comps, comp_of


def strongly_connected_components(system):
    """Tarjan components in reverse topological order, with condensation data.

    Returns a list of records ``{vertices, edge_bearing, height}`` where
    ``height`` is the longest condensation path from the component into a sink.
    """
    comps, comp_of = _components(system, system.table)
    records = []
    # Components come in reverse topological order, so an edge to another
    # component meets that component's final height.
    for ci, comp in enumerate(comps):
        height, bearing = 0, False
        for v in comp:
            for entry in system.table[v]:
                cj = comp_of[entry[2]]
                if cj == ci:
                    bearing = True
                else:
                    height = max(height, records[cj]["height"] + 1)
        records.append({"vertices": comp, "edge_bearing": bearing, "height": height})
    return records


@dataclass
class CriterionReport:
    passes: bool
    reachability_failures: list = field(default_factory=list)
    scc_failures: list = field(default_factory=list)
    holes: list = field(default_factory=list)


def _full_label_reachable(system, start):
    """Whether some path from ``start`` carries every letter of the alphabet."""
    full = (1 << system.dim) - 1
    seen = {(start, 0)}
    frontier = [(start, 0)]
    while frontier:
        nxt = []
        for v, mask in frontier:
            for entry in system.table[v]:
                m2 = mask | 1 << entry[1]
                if m2 == full:
                    return True
                s = (entry[2], m2)
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return False


def _all_escape(comp, ci, comp_of, marked):
    """Whether every vertex of component ``ci`` has a path of marked edges
    inside it whose last edge leaves it: one backward search from the
    vertices with a marked edge out of the component."""
    into = {v: [] for v in comp}
    seen = set()
    for v in comp:
        for entry in marked[v]:
            if comp_of[entry[2]] == ci:
                into[entry[2]].append(v)
            else:
                seen.add(v)
    frontier = list(seen)
    while frontier:
        for v in into[frontier.pop()]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == len(comp)


def check_non_degenerating(system):
    """Decide the combinatorial nondegeneracy criterion.

    Two clauses: every vertex must reach a path eventually using every letter,
    and for every proper nonempty label subset, every edge-bearing strongly
    connected component of the marked subgraph must either use at most one
    subset letter per vertex or let every component vertex escape along
    subset-labeled edges.  Holes fail the criterion outright.  Both clauses
    read the system's out-edge ``table``; vertices of one component of the
    full graph share their answer to the first.
    """
    if system.dim > MAX_CRITERION_ALPHABET:
        raise GraphError(
            f"criterion check limited to alphabets of size "
            f"{MAX_CRITERION_ALPHABET}, got {system.dim}"
        )
    comps, comp_of = _components(system, system.table)
    full = [_full_label_reachable(system, comp[0]) for comp in comps]
    unreached = [v for v in system.vertices
                 if not system.is_hole(v) and not full[comp_of[v]]]

    failures = []
    n = system.dim
    for mask in range(1, (1 << n) - 1):
        marked, kept = _marked(system, mask)
        comps, comp_of = _components(system, kept)
        labels = sorted(system.alphabet[i] for i in range(n) if mask >> i & 1)
        for ci, comp in enumerate(comps):
            # A branching vertex keeps only its marked edges, so in a
            # component without inner edges it escapes at once.
            branching = [v for v in comp if len(marked[v]) > 1]
            if branching and not _all_escape(comp, ci, comp_of, marked):
                failures.append({
                    "labels": list(labels),
                    "component": sorted(comp),
                    "branching_vertices": sorted(branching),
                })
    return CriterionReport(
        passes=not (system.holes or unreached or failures),
        reachability_failures=unreached,
        scc_failures=failures,
        holes=list(system.holes),
    )


def find_positive_path(system, allowed_edges=None):
    """Shortest loop whose matrix product is entrywise positive.

    Breadth-first search over (vertex, positivity pattern) states, from each
    vertex in turn, up to ``MAX_POSITIVE_LOOP`` edges.  A pattern
    holds the rows of the product as bitmasks, and an edge acts on it as on
    numbers: a row gains the loser column when it meets any competing
    column.  With ``allowed_edges`` the path is confined to those edges
    while matrices are still taken from ``system``, which matters when
    searching a subgraph whose dynamics is restricted from a larger ambient
    graph.  Returns a list of edge indices or None.
    """
    allowed = range(len(system.edges)) if allowed_edges is None else set(allowed_edges)
    n = system.dim
    full = tuple((1 << n) - 1 for _ in range(n))
    init = tuple(1 << j for j in range(n))
    for s in system.vertices:
        seen = {(s, init)}
        frontier = [(s, init, [])]
        for _ in range(MAX_POSITIVE_LOOP):
            nxt = []
            for v, pat, path in frontier:
                out = system.table[v]
                competing = sum(1 << entry[1] for entry in out)
                for i, loser, dst in out:
                    if i not in allowed:
                        continue
                    bit = 1 << loser
                    p2 = tuple(r | bit if r & competing else r for r in pat)
                    if dst == s and p2 == full:
                        return path + [i]
                    st = (dst, p2)
                    if st not in seen:
                        seen.add(st)
                        nxt.append((dst, p2, path + [i]))
            if not nxt:
                break
            frontier = nxt
    return None

"""Labeled directed multigraphs driving subtractive continued fraction algorithms.

A system is a finite directed multigraph with edges labeled by letters of an
alphabet, such that no two out-edges of a vertex carry the same label.  Each
edge induces a unipotent nonnegative matrix; paths induce products of those
matrices, and the combinatorics of label subsets decides whether the induced
dynamics has a weakly contracting (simplicially nondegenerate) structure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

MAX_CRITERION_ALPHABET = 16


class GraphError(ValueError):
    """Raised for malformed graphs or invalid graph queries."""


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    label: str

    def to_dict(self):
        return {"from": self.src, "to": self.dst, "label": self.label}


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(n)) for cb in bt) for ra in a
    )


def vec_mat(q, m):
    n = len(q)
    return tuple(sum(q[i] * m[i][j] for i in range(n)) for j in range(n))


def mat_vec(m, v):
    n = len(v)
    return tuple(sum(m[i][j] * v[j] for j in range(n)) for i in range(n))


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
        self._vertex_set = set(self.vertices)
        self.out = {v: [] for v in self.vertices}
        self._validate()
        for i, e in enumerate(self.edges):
            self.out[e.src].append(i)
        for v in self.vertices:
            self.out[v].sort(key=lambda i: self.label_index[self.edges[i].label])
        self.holes = tuple(v for v in self.vertices if not self.out[v])
        self._edge_matrices = [None] * len(self.edges)
        self._out_table = None  # the induction's step table, built on first use

    def _validate(self):
        if not self.alphabet:
            raise GraphError("empty alphabet")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise GraphError("duplicate letters in alphabet")
        if len(self._vertex_set) != len(self.vertices):
            raise GraphError("duplicate vertex names")
        seen = set()
        for e in self.edges:
            if e.src not in self._vertex_set:
                raise GraphError(f"edge source {e.src!r} is not a vertex")
            if e.dst not in self._vertex_set:
                raise GraphError(f"edge target {e.dst!r} is not a vertex")
            if e.label not in self.label_index:
                raise GraphError(f"edge label {e.label!r} is not in the alphabet")
            key = (e.src, e.label)
            if key in seen:
                raise GraphError(
                    f"vertex {e.src!r} has two out-edges labeled {e.label!r}"
                )
            seen.add(key)

    # -- basic queries ----------------------------------------------------

    @property
    def dim(self):
        return len(self.alphabet)

    def out_edges(self, v):
        return self.out[v]

    def out_labels(self, v):
        return tuple(self.edges[i].label for i in self.out[v])

    def edge_by_label(self, v, label):
        for i in self.out[v]:
            if self.edges[i].label == label:
                return i
        raise GraphError(f"vertex {v!r} has no out-edge labeled {label!r}")

    def is_hole(self, v):
        return not self.out[v]

    # -- matrices ---------------------------------------------------------

    def edge_matrix(self, edge_index):
        """Unipotent matrix of an edge: identity plus one unit entry per winner.

        Column ``loser`` picks up a 1 in every row indexed by another
        out-label of the source vertex, so that right multiplication adds the
        loser mass of a row vector to each winner and inverse application
        subtracts the loser coordinate from each winner.
        """
        m = self._edge_matrices[edge_index]
        if m is not None:
            return m
        e = self.edges[edge_index]
        n = self.dim
        li = self.label_index[e.label]
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for j in self.out[e.src]:
            w = self.label_index[self.edges[j].label]
            if w != li:
                rows[w][li] = 1
        m = tuple(tuple(r) for r in rows)
        self._edge_matrices[edge_index] = m
        return m

    def path_matrix(self, path):
        """Ordered product of edge matrices along a path of edge indices."""
        self.check_path(path)
        m = mat_identity(self.dim)
        for i in path:
            m = mat_mul(m, self.edge_matrix(i))
        return m

    def check_path(self, path):
        prev = None
        for i in path:
            e = self.edges[i]
            if prev is not None and e.src != prev:
                raise GraphError("edge sequence is not a path")
            prev = e.dst

    def path_labels(self, path):
        return tuple(self.edges[i].label for i in path)

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        return {
            "alphabet": list(self.alphabet),
            "vertices": list(self.vertices),
            "edges": [e.to_dict() for e in self.edges],
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d):
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


def validate_system(system):
    """Summarize a system's shape; construction already enforced invariants."""
    return {
        "valid": True,
        "alphabet": list(system.alphabet),
        "vertices": len(system.vertices),
        "edges": len(system.edges),
        "holes": list(system.holes),
    }


def degenerate_subgraph(system, labels):
    """Keep, at each vertex, only the out-edges labeled in ``labels`` when any
    exist, and all out-edges otherwise."""
    labels = {str(l) for l in labels}
    unknown = labels - set(system.alphabet)
    if unknown:
        raise GraphError(f"labels not in alphabet: {sorted(unknown)}")
    kept = []
    for v in system.vertices:
        marked = [i for i in system.out[v] if system.edges[i].label in labels]
        kept.extend(marked if marked else system.out[v])
    return SimplicialSystem(
        system.alphabet, system.vertices, [system.edges[i] for i in sorted(kept)]
    )


def strongly_connected_components(system):
    """Tarjan components in reverse topological order, with condensation data.

    Returns a list of records ``{vertices, edge_bearing, height}`` where
    ``height`` is the longest condensation path from the component into a sink.
    """
    index = {}
    low = {}
    on_stack = set()
    stack = []
    comp_of = {}
    comps = []
    counter = iter(range(len(system.vertices) + 1))

    for root in system.vertices:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = next(counter)
                stack.append(v)
                on_stack.add(v)
            advanced = False
            out = system.out[v]
            for k in range(pi, len(out)):
                w = system.edges[out[k]].dst
                if w not in index:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
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

    records = []
    heights = [0] * len(comps)
    bearing = [False] * len(comps)
    # Tarjan emits components in reverse topological order, so processing
    # edges by ascending source-component index sees final target heights.
    for e in sorted(system.edges, key=lambda e: comp_of[e.src]):
        ci, cj = comp_of[e.src], comp_of[e.dst]
        if ci == cj:
            bearing[ci] = True
        else:
            heights[ci] = max(heights[ci], heights[cj] + 1)
    for comp, h, b in zip(comps, heights, bearing):
        records.append({"vertices": comp, "edge_bearing": b, "height": h})
    return records


@dataclass
class CriterionReport:
    passes: bool
    reachability_failures: list = field(default_factory=list)
    scc_failures: list = field(default_factory=list)
    holes: list = field(default_factory=list)

    def to_dict(self):
        return {
            "passes": self.passes,
            "reachability_failures": self.reachability_failures,
            "scc_failures": self.scc_failures,
            "holes": list(self.holes),
        }


def _full_label_reachable(system, start):
    """Whether some path from ``start`` carries every letter of the alphabet."""
    n = system.dim
    full = (1 << n) - 1
    seen = {(start, 0)}
    frontier = [(start, 0)]
    while frontier:
        nxt = []
        for v, mask in frontier:
            for i in system.out[v]:
                e = system.edges[i]
                m2 = mask | (1 << system.label_index[e.label])
                if m2 == full:
                    return True
                s = (e.dst, m2)
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return n == 0


def _escapes_along_labels(system, component, labels):
    """Whether every vertex of ``component`` has a path of ``labels``-labeled
    edges of the full graph that leaves the component."""
    comp = set(component)
    for start in component:
        seen = {start}
        frontier = [start]
        escaped = False
        while frontier and not escaped:
            nxt = []
            for v in frontier:
                for i in system.out[v]:
                    e = system.edges[i]
                    if e.label not in labels:
                        continue
                    if e.dst not in comp:
                        escaped = True
                        break
                    if e.dst not in seen:
                        seen.add(e.dst)
                        nxt.append(e.dst)
                if escaped:
                    break
            frontier = nxt
        if not escaped:
            return False
    return True


def check_non_degenerating(system):
    """Decide the combinatorial nondegeneracy criterion.

    Two clauses: every vertex must reach a path eventually using every letter,
    and for every proper nonempty label subset, every edge-bearing strongly
    connected component of the marked subgraph must either use at most one
    subset letter per vertex or let every component vertex escape along
    subset-labeled edges.  Holes fail the criterion outright.
    """
    if system.dim > MAX_CRITERION_ALPHABET:
        raise GraphError(
            f"criterion check limited to alphabets of size "
            f"{MAX_CRITERION_ALPHABET}, got {system.dim}"
        )
    report = CriterionReport(passes=True, holes=list(system.holes))
    if system.holes:
        report.passes = False

    for v in system.vertices:
        if system.is_hole(v):
            continue
        if not _full_label_reachable(system, v):
            report.passes = False
            report.reachability_failures.append(v)

    n = system.dim
    for mask in range(1, (1 << n) - 1):
        labels = {system.alphabet[i] for i in range(n) if mask >> i & 1}
        sub = degenerate_subgraph(system, labels)
        for rec in strongly_connected_components(sub):
            if not rec["edge_bearing"]:
                continue
            comp = rec["vertices"]
            branching = [
                v
                for v in comp
                if len(set(system.out_labels(v)) & labels) > 1
            ]
            if not branching:
                continue
            if _escapes_along_labels(system, comp, labels):
                continue
            report.passes = False
            report.scc_failures.append(
                {
                    "labels": sorted(labels),
                    "component": sorted(comp),
                    "branching_vertices": sorted(branching),
                }
            )
    return report


def _bool_rows(m):
    """Rows of a 0/1 matrix packed as bitmasks."""
    masks = []
    for row in m:
        b = 0
        for j, x in enumerate(row):
            if x:
                b |= 1 << j
        masks.append(b)
    return tuple(masks)


def _bool_mul(rows_a, rows_b):
    out = []
    for ra in rows_a:
        acc = 0
        j = 0
        r = ra
        while r:
            if r & 1:
                acc |= rows_b[j]
            r >>= 1
            j += 1
        out.append(acc)
    return tuple(out)


def find_positive_path(system, start=None, max_length=64, allowed_edges=None):
    """Shortest loop whose matrix product is entrywise positive.

    Breadth-first search over (vertex, positivity pattern) states.  With
    ``allowed_edges`` the path is confined to those edges while matrices are
    still taken from ``system``, which matters when searching a subgraph whose
    dynamics is restricted from a larger ambient graph.  Returns a list of
    edge indices or None.
    """
    n = system.dim
    full = tuple((1 << n) - 1 for _ in range(n))
    starts = [start] if start is not None else list(system.vertices)
    edge_rows = {}

    for s in starts:
        if s not in system._vertex_set:
            raise GraphError(f"unknown vertex {s!r}")
        init = _bool_rows(mat_identity(n))
        seen = {(s, init)}
        frontier = [(s, init, [])]
        for _ in range(max_length):
            nxt = []
            for v, pat, path in frontier:
                for i in system.out[v]:
                    if allowed_edges is not None and i not in allowed_edges:
                        continue
                    if i not in edge_rows:
                        edge_rows[i] = _bool_rows(system.edge_matrix(i))
                    e = system.edges[i]
                    p2 = _bool_mul(pat, edge_rows[i])
                    if e.dst == s and p2 == full:
                        return path + [i]
                    st = (e.dst, p2)
                    if st not in seen:
                        seen.add(st)
                        nxt.append((e.dst, p2, path + [i]))
            if not nxt:
                break
            frontier = nxt
    return None

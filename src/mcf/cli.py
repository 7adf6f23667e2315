"""Command-line entry points.

Every command echoes its full parameter set and the tool version in the
output, so a result file is reproducible from itself.  Outputs are JSON by
default; tabular results can be emitted as CSV and graphs as DOT.  Exit
status is 0 on success, 2 on domain or input errors, and 3 when --strict
turns a scientific failure into a hard one.
"""

from __future__ import annotations

import csv
import io
import json
import secrets
from dataclasses import asdict
from fractions import Fraction

import click
import numpy as np

from . import __version__
from .catalog import build, catalog_entries, conjugacy_check
from .graph import GraphError, SimplicialSystem, check_non_degenerating
from .induction import BoundaryTieError, HoleReachedError, orbit
from .stochastic import (
    JumpCoord,
    Win,
    _cone_mass,
    batch_record_paths,
    cylinder_measure,
    estimate_order_prob,
)
from .thermo import hausdorff_bound, pressure_analysis


# Most rows `measure --n` forms: brun(3) has 2**(n+1) - 2 paths of lengths 1
# to n from its first vertex, and at n = 18 their 524 286 rows are 64 MB of
# JSON.
MAX_MEASURE_ROWS = 10**6
# Most cells `simulate` forms: its walks record trials x n losers and carry
# trials x (letters + 1) distortion coordinates.  With --tau, the firing loop
# keeps about 5 cells of state a letter, and 16 more, for each trial.
MAX_SIMULATE_CELLS = 10**8


class DomainFailure(click.ClickException):
    exit_code = 2


class StrictFailure(click.ClickException):
    exit_code = 3


class _Main(click.Group):
    """The ``mcf`` group: the library's input errors end every command with
    exit 2 and their own message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (GraphError, BoundaryTieError, HoleReachedError) as exc:
            raise DomainFailure(str(exc)) from exc


def _load_system(graph, catalog, dim):
    """Returns (SimplicialSystem, NamedSystem-or-None, source description)."""
    if graph and catalog:
        raise DomainFailure("give either --graph or --catalog, not both")
    if graph:
        try:
            with open(graph) as fh:
                return SimplicialSystem.from_json(fh.read()), None, graph
        except (OSError, ValueError, KeyError) as exc:
            raise DomainFailure(
                f"could not load graph file {graph!r}: {exc}; expected the "
                "JSON produced by `mcf validate --format json`"
            )
    if catalog:
        named = build(catalog, dim)
        return named.system, named, f"{catalog}({named.dim})"
    raise DomainFailure("a graph source is required: --graph FILE or --catalog NAME")


def _parse_point(text):
    try:
        return tuple(Fraction(p.strip()) for p in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainFailure(f"bad point {text!r}: {exc}; expected e.g. 2/5,3/5")


def _resolve_seed(seed):
    """Explicit seed, or a fresh one that the output will record."""
    return int(seed) if seed is not None else secrets.randbits(32)


def _emit(payload, out, fmt):
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    else:  # csv
        buf = io.StringIO()
        rows = payload.get("rows")
        w = csv.writer(buf)
        if rows:
            w.writerow(sorted(rows[0]))
            for r in rows:
                w.writerow([r[k] for k in sorted(r)])
        else:
            w.writerow(["key", "value"])
            for k in sorted(payload):
                w.writerow([k, json.dumps(payload[k], sort_keys=True, default=str)])
        text = buf.getvalue()
    _write(text, out)


def _write(text, out):
    """Write ``text`` to the file ``out``, or to stdout when none is given."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainFailure(f"could not write {out!r}: {exc.strerror or exc}")
    else:
        click.echo(text, nl=False)


def _base(command, **params):
    return {"command": command, "version": __version__, "params": params}


_dim_option = click.option("--dim", type=int, default=None, help="Number of letters.")
_graph_opts = [
    click.option("--graph", type=click.Path(), default=None,
                 help="Graph JSON file."),
    click.option("--catalog", "catalog_name", default=None,
                 help="Named system from the built-in catalog."),
    _dim_option,
]


def graph_options(f):
    for opt in reversed(_graph_opts):
        f = opt(f)
    return f


@click.group(cls=_Main)
@click.version_option(__version__)
def main():
    """Exact win-lose induction on labeled graphs: validation, simulation,
    measures, and dimension bounds."""


@main.command()
@graph_options
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", default="json",
              type=click.Choice(["json", "csv", "dot"]))
def validate(graph, catalog_name, dim, out, fmt):
    """Check the graph axioms and summarize the system."""
    system, named, source = _load_system(graph, catalog_name, dim)
    if fmt == "dot":
        _write(system.to_dot(), out)
        return
    payload = _base("validate", source=source)
    payload["valid"] = True
    payload["graph"] = system.to_dict()
    if named is not None:
        payload["catalog"] = named.describe()
    _emit(payload, out, fmt)


@main.command()
@graph_options
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv"]))
@click.option("--strict", is_flag=True)
def criterion(graph, catalog_name, dim, out, fmt, strict):
    """Decide the graph-theoretic non-degeneracy criterion."""
    system, _, source = _load_system(graph, catalog_name, dim)
    report = check_non_degenerating(system)
    payload = _base("criterion", source=source, strict=strict)
    payload.update(asdict(report))
    _emit(payload, out, fmt)
    if strict and not report.passes:
        raise StrictFailure("criterion failed (witnesses in output)")


@main.command()
@graph_options
@click.option("--seed", type=int, default=None)
@click.option("--trials", type=click.IntRange(min=1), default=1000)
@click.option("--n", "n_steps", type=click.IntRange(min=0), default=200,
              help="Walk length.")
@click.option("--q0", default=None, help="Start distortion, e.g. 1,1,1.")
@click.option("--tau", type=click.FloatRange(min=0, min_open=True), default=None,
              help="Also report, per letter, how often its distortion "
                   "coordinate grows by the factor tau before the letter "
                   "wins, against the bound 1/tau, and how many walks "
                   "stayed undecided.")
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv"]))
def simulate(graph, catalog_name, dim, seed, trials, n_steps, q0, tau, out, fmt):
    """Random q-walks: losing-letter coverage and optional jump-vs-win rates."""
    system, _, source = _load_system(graph, catalog_name, dim)
    seed = _resolve_seed(seed)
    if tau is not None and seed + system.dim >= 1 << 64:
        raise DomainFailure(f"--tau walks letter a with seed {seed} + 1 + a, "
                            "which must stay below 2**64")
    per_trial = n_steps + system.dim + 1
    if tau is not None:
        per_trial += 5 * system.dim + 16
    cells = trials * per_trial
    if cells > MAX_SIMULATE_CELLS:
        with_tau = "" if tau is None else " and --tau"
        raise DomainFailure(f"--trials {trials} with --n {n_steps}{with_tau} "
                            f"forms {cells} cells, more than "
                            f"{MAX_SIMULATE_CELLS}; lower --n or --trials")
    base_vertex = system.vertices[0]
    q = _parse_point(q0) if q0 else tuple([1] * system.dim)
    rec = batch_record_paths(system, base_vertex, q, n_steps, trials, seed)
    losses = np.zeros((trials, system.dim), dtype=bool)
    for a in range(system.dim):
        losses[:, a] = (rec == a).any(axis=1)
    payload = _base(
        "simulate", source=source, seed=seed, trials=trials, n=n_steps,
        q0=[str(c) for c in q], vertex=base_vertex, tau=tau,
    )
    payload["per_letter_loss_rate"] = {
        system.alphabet[a]: float(losses[:, a].mean()) for a in range(system.dim)
    }
    payload["all_letters_lose_rate"] = float(losses.all(axis=1).mean())
    if tau is not None:
        jump_vs_win = {}
        for a, letter in enumerate(system.alphabet):
            r = estimate_order_prob(
                system, base_vertex, q, JumpCoord(letter, tau), Win(letter),
                trials, seed + 1 + a, max_steps=10**4, strict=True,
            )
            jump_vs_win[letter] = {
                "frequency": r["frequency"],
                "stderr": r["stderr"],
                "bound": 1.0 / tau,
                "truncated": r["truncated"],
            }
        payload["jump_before_win"] = jump_vs_win
    _emit(payload, out, fmt)


@main.command()
@graph_options
@click.option("--point", required=True, help="Start point, e.g. 2/5,3/5.")
@click.option("--vertex", default=None, help="Start vertex (default: first).")
@click.option("--n", "n_steps", type=click.IntRange(min=0), default=20,
              help="Steps to iterate.")
@click.option("--out", type=click.Path(), default=None)
def walk(graph, catalog_name, dim, point, vertex, n_steps, out):
    """Deterministic induction orbit of one point, as a JSONL trace."""
    system, _, source = _load_system(graph, catalog_name, dim)
    x = _parse_point(point)
    v = vertex or system.vertices[0]
    lines = [json.dumps(_base("walk", source=source, point=point, vertex=v,
                              n=n_steps), sort_keys=True)]
    cur_v, cur_x, records = orbit(system, v, x, n_steps)
    for rec in records:
        lines.append(json.dumps(rec.to_dict(), sort_keys=True))
    lines.append(json.dumps(
        {"final_vertex": cur_v, "final_point": [str(c) for c in cur_x]},
        sort_keys=True,
    ))
    _write("\n".join(lines) + "\n", out)


@main.command()
@graph_options
@click.option("--path", "path_text", default=None,
              help="Comma-separated edge labels from the start vertex.")
@click.option("--vertex", default=None, help="Start vertex (default: first).")
@click.option("--n", "depth", type=click.IntRange(min=0), default=None,
              help="Instead of one path, tabulate all paths up to this length.")
@click.option("--q0", default=None, help="Distortion vector, e.g. 1,1,1.")
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv"]))
def measure(graph, catalog_name, dim, path_text, vertex, depth, q0, out, fmt):
    """Exact cylinder measures of labeled paths."""
    if (path_text is None) == (depth is None):
        raise DomainFailure("give --path LABELS or --n DEPTH"
                            + ("" if path_text is None else ", not both"))
    system, _, source = _load_system(graph, catalog_name, dim)
    v = vertex or system.vertices[0]
    system.out_edges(v)  # raises on an unknown vertex, also for --n 0
    q = _parse_point(q0) if q0 else tuple([1] * system.dim)
    payload = _base("measure", source=source, vertex=v, path=path_text,
                    n=depth, q0=[str(c) for c in q])

    def resolve(labels):
        cur, idxs = v, []
        for lab in labels:
            e = system.edge_by_label(cur, lab)
            idxs.append(e)
            cur = system.edges[e].dst
        return idxs

    base_mass = cylinder_measure(system, [], q)
    rows = []
    if path_text is not None:
        idxs = resolve([p.strip() for p in path_text.split(",")])
        m = cylinder_measure(system, idxs, q)
        rows.append({
            "path": path_text,
            "measure": str(m),
            "relative": str(m / base_mass),
        })
    else:
        # paths per end vertex, level by level, counted before any row forms
        count, total, levels = {v: 1}, 0, 0
        while count and levels < depth:
            nxt = {}
            for cur, c in count.items():
                for _, _, dst in system.table[cur]:
                    nxt[dst] = nxt.get(dst, 0) + c
            count, levels = nxt, levels + 1
            total += sum(count.values())
            if total > MAX_MEASURE_ROWS:
                raise DomainFailure(f"--n {depth} tabulates more than "
                                    f"{MAX_MEASURE_ROWS} paths; lower --n")
        # each frontier entry carries q M_prefix, so a row costs one edge action
        frontier = [(v, [], q)]
        for _ in range(levels):
            nxt = []
            for cur, pfx, qm in frontier:
                for i, _, dst in system.table[cur]:
                    nxt.append((dst, pfx + [i], system.act(i, [list(qm)])[0]))
            frontier = nxt
            for cur, pfx, qm in frontier:
                m = _cone_mass(qm)
                rows.append({
                    "path": ",".join(system.path_labels(pfx)),
                    "measure": str(m),
                    "relative": str(m / base_mass),
                })
    payload["rows"] = rows
    _emit(payload, out, fmt)


@main.command()
@click.option("--catalog", "catalog_name", required=True,
              help="Named system from the built-in catalog.")
@_dim_option
@click.option("--seed", type=int, default=None)
@click.option("--trials", type=click.IntRange(min=1), default=100)
@click.option("--n", "n_steps", type=click.IntRange(min=1), default=20,
              help="Reference steps.")
@click.option("--out", type=click.Path(), default=None)
@click.option("--strict", is_flag=True)
def conjugacy(catalog_name, dim, seed, trials, n_steps, out, strict):
    """Exact comparison of the graph induction with the classical map."""
    named = build(catalog_name, dim)
    seed = _resolve_seed(seed)
    result = conjugacy_check(named, trials=trials, steps=n_steps, seed=seed)
    payload = _base("conjugacy", source=f"{catalog_name}({named.dim})", seed=seed,
                    trials=trials, n=n_steps, strict=strict)
    payload.update(result)
    payload["passes"] = not result["failures"] and result["tie_rate"] < 0.01
    _emit(payload, out, "json")
    if strict and not payload["passes"]:
        raise StrictFailure("conjugacy check failed")


def _pressure_payload(command, system, source, L, n, allowed_edges, strict):
    est = pressure_analysis(system, L, n, allowed_edges=allowed_edges)
    payload = _base(command, source=source, L=L, n=n,
                    restricted=allowed_edges is not None, strict=strict)
    payload.update(asdict(est))
    return payload


@main.command()
@graph_options
@click.option("--L", "max_length", type=int, default=8,
              help="Truncation length of the induced alphabet.")
@click.option("--n", "n_orbits", type=int, default=2,
              help="Periodic-orbit depth of the pressure sum.")
@click.option("--out", type=click.Path(), default=None)
@click.option("--strict", is_flag=True)
def pressure(graph, catalog_name, dim, max_length, n_orbits, out, strict):
    """Truncated pressure calibration: the zero kappa-hat of the partition sum."""
    system, _, source = _load_system(graph, catalog_name, dim)
    payload = _pressure_payload("pressure", system, source, max_length,
                                n_orbits, None, strict)
    payload["target"] = system.dim
    _emit(payload, out, "json")
    if strict and abs(payload["kappa"] - system.dim) > 1.0:
        raise StrictFailure("kappa-hat is more than 1.0 from the letter count")


@main.command()
@graph_options
@click.option("--L", "max_length", type=int, default=10)
@click.option("--n", "n_orbits", type=int, default=2)
@click.option("--out", type=click.Path(), default=None)
@click.option("--strict", is_flag=True)
def dimension(graph, catalog_name, dim, max_length, n_orbits, out, strict):
    """Dimension bound for the surviving set of a restricted subgraph."""
    system, named, source = _load_system(graph, catalog_name, dim)
    exits = set(named.meta.get("exit_edges", ())) if named is not None else set()
    allowed = (
        [i for i in range(len(system.edges)) if i not in exits] if exits else None
    )
    payload = _pressure_payload("dimension", system, source, max_length,
                                n_orbits, allowed, strict)
    kappa = payload["kappa"]
    d = system.dim
    payload["ambient"] = d - 1
    payload["bound"] = hausdorff_bound(kappa, d)
    payload["proper"] = payload["bound"] < d - 1
    _emit(payload, out, "json")
    if strict and not payload["proper"]:
        raise StrictFailure("dimension bound did not fall below the ambient space")


@main.command("catalog")
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv"]))
def catalog_cmd(out, fmt):
    """List the built-in named systems."""
    payload = _base("catalog")
    payload["rows"] = catalog_entries()
    _emit(payload, out, fmt)


if __name__ == "__main__":
    main()

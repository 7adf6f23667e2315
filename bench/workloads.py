"""The benchmark's four workloads: seeded inputs, timed ops and output checks.

A workload function takes a ``Context`` (one set-up round: freshly imported
mcf modules plus the seed) and a size table, builds its fixtures and inputs,
and returns the ops of one pass.  An op is a call into the public API of a
layer; its check runs after the call, untimed, and returns a description of
what is wrong or None.  Ties, escapes and truncated walks are outcomes that
the program reports, not failures; exact runs that stop at a boundary tie or
a step cap return "tie" or "cap".

Every check holds whatever random numbers the program draws, so it can be
kept when the engines change how they consume the generator.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from tracing import LAYERS

# Two-sided z for each Monte Carlo cylinder frequency.  One pass checks 20
# paths and comparing two commits takes dozens of seeds, so 3 standard errors
# (0.27% false alarms per path) would fail by chance; 5 (6e-7) would not.
CYLINDER_Z = 5.0

# (phi + 1/phi) / (1 - 1/phi), phi the golden ratio: the trap escape constant.
TRAP_CONSTANT = 5.854102

# kappa of every pressure configuration at the commit that added the benchmark.
KAPPA = {
    "gauss L=20 n=2": 1.9282165385375265,
    "gauss L=12 n=3": 1.8721418376080692,
    "brun(3) L=12 n=2": 1.6926952545618406,
    "brun(3) L=14 n=1": 1.8268389058939647,
    "gasket L=20 n=2": 1.3051656274619745,
    "mcf dimension gasket L=18": 1.266739787592087,
}
KAPPA_TOL = 1e-6


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


def load_mcf():
    """Import the mcf package afresh, so each set-up round pays its imports."""
    for name in [k for k in sys.modules if k == "mcf" or k.startswith("mcf.")]:
        del sys.modules[name]
    importlib.import_module("mcf")
    return SimpleNamespace(
        **{m: importlib.import_module(f"mcf.{m}") for m in LAYERS}
    )


class Context:
    """One set-up round: the mcf modules, the seed and, when traced, the tracer."""

    def __init__(self, seed):
        self.seed = seed
        self.mcf = load_mcf()
        self.tracer = None

    def rng(self, stream):
        """Generator of one input family; the same seed gives the same inputs."""
        return np.random.Generator(np.random.Philox(key=[self.seed, stream]))

    def cli(self, *args):
        """Run ``mcf ARGS`` in-process and return what it printed."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self.mcf.cli.main.main(args=list(args), prog_name="mcf",
                                   standalone_mode=False)
        text = buf.getvalue()
        if self.tracer is not None:
            self.tracer.count("cli.output_bytes", len(text.encode()))
        return text


def _seed(rng):
    return int(rng.integers(0, 2**31))


def _composition(rng, n, bits=62):
    """Uniform composition of 2**bits into n positive integer parts."""
    while True:
        cuts = [0, *sorted(int(c) for c in rng.integers(1, 1 << bits, size=n - 1)),
                1 << bits]
        parts = tuple(b - a for a, b in zip(cuts, cuts[1:]))
        if all(p > 0 for p in parts):
            return parts


def _se(freq, trials):
    return math.sqrt(max(freq * (1 - freq), 1e-12) / trials)


def _all_letters_lose(rec, dim):
    every = np.ones(rec.shape[0], dtype=bool)
    for a in range(dim):
        every &= (rec == a).any(axis=1)
    return float(every.mean())


# -- walk-long ---------------------------------------------------------------


def walk_long(ctx, size):
    """Few live lanes over thousands of engine steps.

    The jump-before-win frequency reaches its bound 1/tau at some q0 (about
    (3, 1, 1) for tau = 2), where a 3se check would fail by chance.  The q0
    draws put letter 1 at 2.5 to 4 times the other two together, where the
    measured frequencies sit 0.025 or more under 1/2 and 0.015 under 1/8, in
    integers large enough that walk sums rarely hit tau * q0 exactly.
    """
    m = ctx.mcf
    st = m.stochastic
    brun = m.catalog.build("brun", 3).system
    base = brun.vertices[0]
    trap = m.graph.SimplicialSystem(
        ("1", "2", "3"), ["v", "w"],
        [("v", "v", "1"), ("v", "v", "2"), ("v", "w", "3"),
         ("w", "v", "1"), ("w", "v", "2"), ("w", "v", "3")],
    )
    rng = ctx.rng(1)
    ops = []
    trials = size["trials"]
    for _ in range(size["q0s"]):
        b, c = (int(x) for x in rng.integers(2 * 10**5, 5 * 10**5 + 1, size=2))
        q0 = (int((b + c) * rng.uniform(2.5, 4.0)), b, c)
        for tau in (2, 8):
            stops = (st.JumpCoord("1", tau), st.Win("1"))
            seed = _seed(rng)

            def call(q0=q0, stops=stops, seed=seed):
                return st.estimate_order_prob(
                    brun, base, q0, *stops, trials=trials, seed=seed,
                    max_steps=size["cap"], strict=True)

            def check(r, tau=tau):
                if r["trials"] != trials:
                    return f"reports {r['trials']} trials"
                if r["frequency"] > 1 / tau + 3 * r["stderr"]:
                    return f"frequency {r['frequency']} above 1/tau + 3se"
                return None

            ops.append(Op(f"estimate_order_prob q0={q0} tau={tau}", call, check))

    eps = 1 / 100
    trap_trials = size["trap_trials"]
    trap_seed = _seed(rng)

    def trap_call():
        return st.batch_fire_steps(trap, "v", (100, 100, 1), [st.Lose("3")],
                                   trap_trials, trap_seed, size["trap_cap"])

    def trap_check(fired):
        if fired.shape != (1, trap_trials):
            return f"shape {fired.shape}"
        freq = float((fired[0] >= 0).mean())
        bound = TRAP_CONSTANT * eps + 3 * _se(freq, trap_trials)
        return None if freq <= bound else f"trap frequency {freq} above {bound}"

    ops.append(Op("batch_fire_steps trap", trap_call, trap_check))
    return ops


# -- walk-wide ---------------------------------------------------------------


def _random_path(system, base, rng, max_len):
    cur, path = base, []
    for _ in range(int(rng.integers(1, max_len + 1))):
        out = system.out_edges(cur)
        i = out[int(rng.integers(0, len(out)))]
        path.append(i)
        cur = system.edges[i].dst
    return path


def walk_wide(ctx, size):
    """Few engine steps over very many lanes, and a 420-vertex graph."""
    m = ctx.mcf
    st = m.stochastic
    rng = ctx.rng(2)
    ops = []
    depth = 4
    for name, dim in (("gauss", 2), ("brun", 3)):
        system = m.catalog.build(name, dim).system
        base = system.vertices[0]
        q = (1,) * dim
        whole = st.cylinder_measure(system, [], q)
        targets = []
        for _ in range(size["paths"]):
            path = _random_path(system, base, rng, depth)
            labels = [system.label_index[system.edges[i].label] for i in path]
            exact = float(st.cylinder_measure(system, path, q) / whole)
            targets.append((np.array(labels), exact))
        trials, seed = size["code_trials"], _seed(rng)

        def call(system=system, base=base, trials=trials, seed=seed):
            return st.batch_code_points(system, base, depth, trials, seed)

        def check(rec, targets=targets, trials=trials):
            if rec.shape != (trials, depth):
                return f"shape {rec.shape}"
            valid = rec[~(rec == -2).any(axis=1)]
            n = len(valid)
            for labels, exact in targets:
                freq = float((valid[:, :len(labels)] == labels).all(axis=1).mean())
                if abs(freq - exact) > CYLINDER_Z * _se(exact, n):
                    return f"path {labels.tolist()}: {freq} vs exact {exact}"
            return None

        ops.append(Op(f"batch_code_points {name}({dim})", call, check))

    for dim, trials in ((3, size["record3_trials"]), (5, size["record5_trials"])):
        system = m.catalog.build("brun", dim).system
        seed = _seed(rng)

        def call(system=system, dim=dim, trials=trials, seed=seed):
            return st.batch_record_paths(system, system.vertices[0], (1,) * dim,
                                         200, trials, seed)

        def check(rec, dim=dim, trials=trials):
            if rec.shape != (trials, 200):
                return f"shape {rec.shape}"
            share = _all_letters_lose(rec, dim)
            return None if share >= 0.99 else f"all-letters-lose share {share}"

        ops.append(Op(f"batch_record_paths brun({dim})", call, check))

    sim_trials, sim_seed = size["simulate_trials"], _seed(rng)

    def simulate():
        return ctx.cli("simulate", "--catalog", "brun", "--dim", "3",
                       "--trials", str(sim_trials), "--n", "200",
                       "--seed", str(sim_seed))

    def simulate_check(text):
        out = json.loads(text)
        if out["params"]["trials"] != sim_trials:
            return "wrong trial count echoed"
        share = out["all_letters_lose_rate"]
        return None if share >= 0.99 else f"all-letters-lose share {share}"

    ops.append(Op("mcf simulate brun(3)", simulate, simulate_check))
    return ops


# -- exact -------------------------------------------------------------------


def exact(ctx, size):
    """Fraction and big-int arithmetic: conjugacy, orbits, induced steps."""
    m = ctx.mcf
    ind = m.induction
    rng = ctx.rng(3)
    ops = []
    for name, dim in (("brun", 3), ("brun", 4), ("selmer-restricted", 3),
                      ("cassaigne", 3), ("arp", 3)):
        named = m.catalog.build(name, dim)
        trials, seed = size["conjugacy_trials"], _seed(rng)

        def call(named=named, trials=trials, seed=seed):
            return m.catalog.conjugacy_check(named, trials=trials, steps=50,
                                             seed=seed)

        def check(r, trials=trials):
            if r["failures"]:
                return f"{len(r['failures'])} disagreements"
            if r["agreements"] + r["ties"] + r["escapes"] != trials:
                return "trial outcomes do not add up"
            return None

        ops.append(Op(f"conjugacy_check {name}({dim})", call, check))

    brun4 = m.catalog.build("brun", 4).system
    start = brun4.vertices[0]
    for k in range(size["orbits"]):
        x = _composition(rng, 4)

        def call(x=x):
            try:
                return ind.orbit(brun4, start, x, 100)
            except ind.BoundaryTieError:
                return "tie"

        def check(result, x=x):
            if isinstance(result, str):
                return None
            path = [r.edge for r in result[2]]
            if len(path) != 100:
                return f"{len(path)} steps"
            return None if ind.in_cylinder(brun4, path, x) else "start not in cylinder"

        ops.append(Op(f"orbit brun(4) #{k}", call, check))

    brun3 = m.catalog.build("brun", 3).system
    gamma = m.graph.find_positive_path(brun3)
    base = brun3.edges[gamma[0]].src
    m_gamma = brun3.path_matrix(gamma)

    def positive_path():
        return m.graph.find_positive_path(brun3)

    def positive_path_check(path):
        if path != gamma:
            return f"loop {path} differs from the set-up loop {gamma}"
        return None

    ops.append(Op("find_positive_path brun(3)", positive_path, positive_path_check))

    for k in range(size["induced"]):
        y = m.graph.mat_vec(m_gamma, _composition(rng, 3))

        def call(y=y):
            try:
                return ind.induced_step(brun3, base, y, gamma,
                                        max_steps=size["induced_cap"])
            except ind.BoundaryTieError:
                return "tie"
            except ind.MaxStepsExceeded:
                return "cap"

        def check(result):
            if isinstance(result, str):
                return None
            point, _, ratio = result
            if not 0 < ratio < 1:
                return f"roof ratio {ratio} outside (0, 1)"
            if sum(point) != 1 or min(point) <= 0:
                return "return point off the open simplex"
            return None

        ops.append(Op(f"induced_step brun(3) #{k}", call, check))

    for name, dim, passes in (("brun", 5, True), ("selmer-restricted", 5, True),
                              ("poincare", 4, False), ("arp", 3, True)):
        system = m.catalog.build(name, dim).system

        def call(system=system):
            return m.graph.check_non_degenerating(system)

        def check(report, passes=passes):
            return None if report.passes == passes else f"verdict {report.passes}"

        ops.append(Op(f"check_non_degenerating {name}({dim})", call, check))

    depth = size["measure_depth"]

    def measure():
        return ctx.cli("measure", "--catalog", "brun", "--dim", "3",
                       "--n", str(depth))

    def measure_check(text):
        totals = {}
        for row in json.loads(text)["rows"]:
            d = row["path"].count(",") + 1
            totals[d] = totals.get(d, 0) + Fraction(row["relative"])
        if sorted(totals) != list(range(1, depth + 1)):
            return f"depths {sorted(totals)}"
        off = [d for d, t in totals.items() if t != 1]
        return f"relative masses do not sum to 1 at depths {off}" if off else None

    ops.append(Op(f"mcf measure brun(3) n={depth}", measure, measure_check))
    return ops


# -- pressure ----------------------------------------------------------------


def pressure(ctx, size):
    """Truncated pressure: alphabet build, tuple radii and the kappa solve."""
    m = ctx.mcf
    th = m.thermo
    gasket = m.catalog.build("arnoux-rauzy", 2)
    exits = set(gasket.meta["exit_edges"])
    allowed = [i for i in range(len(gasket.system.edges)) if i not in exits]
    systems = {
        "gauss": (m.catalog.build("gauss").system, None),
        "brun(3)": (m.catalog.build("brun", 3).system, None),
        "gasket": (gasket.system, allowed),
    }
    ops = []
    for name, L, n in size["configs"]:
        system, allowed_edges = systems[name]
        label = f"{name} L={L} n={n}"

        def call(system=system, L=L, n=n, allowed_edges=allowed_edges):
            return th.pressure_analysis(system, L, n, allowed_edges=allowed_edges)

        def check(est, label=label, gasket=name == "gasket"):
            if abs(est.kappa - KAPPA[label]) > KAPPA_TOL:
                return f"kappa {est.kappa!r}, expected {KAPPA[label]!r}"
            if gasket and not (est.kappa < 2.9 and th.hausdorff_bound(est.kappa, 3) < 2.0):
                return f"gasket kappa {est.kappa} or its bound out of range"
            return None

        ops.append(Op(f"pressure_analysis {label}", call, check))

    def dimension():
        return ctx.cli("dimension", "--catalog", "arnoux-rauzy", "--dim", "2",
                       "--L", "18")

    def dimension_check(text):
        out = json.loads(text)
        ref = KAPPA["mcf dimension gasket L=18"]
        if abs(out["kappa"] - ref) > KAPPA_TOL:
            return f"kappa {out['kappa']!r}, expected {ref!r}"
        return None if out["bound"] < 2.0 else f"bound {out['bound']} not < 2"

    ops.append(Op("mcf dimension gasket L=18", dimension, dimension_check))
    return ops


# Sizes of one pass.  "tiny" runs the same code paths in about a second
# per workload, for the benchmark's own test.
SIZES = {
    "walk-long": {
        "full": {"q0s": 3, "trials": 2 * 10**4, "cap": 500,
                 "trap_trials": 500, "trap_cap": 5000},
        "tiny": {"q0s": 1, "trials": 2000, "cap": 200,
                 "trap_trials": 100, "trap_cap": 1000},
    },
    "walk-wide": {
        "full": {"paths": 10, "code_trials": 3 * 10**5, "record3_trials": 15000,
                 "record5_trials": 3000, "simulate_trials": 5000},
        "tiny": {"paths": 4, "code_trials": 2 * 10**4, "record3_trials": 500,
                 "record5_trials": 100, "simulate_trials": 500},
    },
    "exact": {
        "full": {"conjugacy_trials": 50, "orbits": 60, "induced": 150,
                 "induced_cap": 2000, "measure_depth": 9},
        "tiny": {"conjugacy_trials": 5, "orbits": 5, "induced": 5,
                 "induced_cap": 2000, "measure_depth": 5},
    },
    "pressure": {
        "full": {"configs": [("gauss", 20, 2), ("gauss", 12, 3), ("brun(3)", 12, 2),
                             ("brun(3)", 14, 1), ("gasket", 20, 2)]},
        "tiny": {"configs": [("gauss", 20, 2)]},
    },
}

WORKLOADS = {
    "walk-long": walk_long,
    "walk-wide": walk_wide,
    "exact": exact,
    "pressure": pressure,
}

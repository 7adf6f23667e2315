"""Span tracing of the mcf layers, from outside the package.

``Tracer.install`` rebinds every public function of the six layer modules to
a timing wrapper in every ``mcf`` namespace that holds it, so calls made
through names other modules imported (``mcf.thermo.find_positive_path``,
``mcf.stochastic.batch_fire_steps`` inside ``estimate_order_prob``,
``mcf.cli.cylinder_measure``) are timed too.  ``mcf.cli.main`` is a click
group, so its ``main`` method is wrapped on the instance.  Spans stay in
memory until ``write``; counters are derived from the wrapped calls'
arguments, return values and exceptions.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("graph", "induction", "catalog", "stochastic", "thermo", "cli")
ENGINES = ("batch_fire_steps", "batch_record_paths", "batch_code_points")


def public_functions(module):
    """Module-level functions a layer defines and does not mark private."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


# -- counters, from the arguments and results of wrapped calls --------------


def _engine_work(counters, trials, engine_steps, walk_steps):
    counters["stochastic.engine_steps"] += engine_steps
    counters["stochastic.walk_steps"] += walk_steps
    counters["stochastic.lane_slots"] += engine_steps * trials


def _fire_steps(counters, args, fired, exc):
    if exc is not None:
        return
    max_steps = args["max_steps"]
    done = (fired >= 0).all(axis=0)
    # a lane steps until its last stop fires, or to the cap when one never does
    last = fired.max(axis=0).clip(min=0)
    last[~done] = max_steps
    engine = int(last.max()) if last.size else 0
    _engine_work(counters, args["trials"], engine, int(last.sum()))
    counters["stochastic.truncated"] += int((~done).sum())


def _record_paths(counters, args, rec, exc):
    if exc is None:
        _engine_work(counters, args["trials"], args["n_steps"], int((rec >= 0).sum()))


def _code_points(counters, args, rec, exc):
    if exc is None:
        _engine_work(counters, args["trials"], args["n_steps"], int((rec >= 0).sum()))
        counters["stochastic.code_ties"] += int((rec == -2).any(axis=1).sum())


def _induction_run(counters, args, result, exc):
    # by name: each set-up round imports mcf afresh, with new exception classes
    counters["induction.runs"] += 1
    if exc is not None and type(exc).__name__ == "BoundaryTieError":
        counters["induction.ties"] += 1


def _step(counters, args, result, exc):
    if exc is None:
        counters["induction.steps"] += 1


def _conjugacy(counters, args, result, exc):
    if exc is None:
        counters["catalog.trials"] += result["trials"]
        counters["catalog.agreements"] += result["agreements"]
        counters["catalog.ties"] += result["ties"]
        counters["catalog.escapes"] += result["escapes"]


def _alphabet(counters, args, letters, exc):
    if exc is None:
        counters["thermo.letters"] += len(letters)


def _radii(counters, args, radii, exc):
    if exc is None:
        counters["thermo.tuple_products"] += int(radii.size)


def _partition_sum(counters, args, result, exc):
    counters["thermo.partition_sum_calls"] += 1


def _solve(counters, args, result, exc):
    if exc is None:
        key = "thermo.kappa_residual_max"
        counters[key] = max(counters[key], abs(float(result[1])))


HOOKS = {
    "stochastic.batch_fire_steps": _fire_steps,
    "stochastic.batch_record_paths": _record_paths,
    "stochastic.batch_code_points": _code_points,
    "induction.orbit": _induction_run,
    "induction.induced_step": _induction_run,
    "induction.step": _step,
    "catalog.conjugacy_check": _conjugacy,
    "thermo.build_induced_alphabet": _alphabet,
    "thermo.tuple_log_radii": _radii,
    "thermo.partition_sum": _partition_sum,
    "thermo.solve_kappa": _solve,
}


class Tracer:
    """Spans ``(name, start, end, parent)`` of calls into the mcf layers."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._undo = []

    def reset(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []

    def count(self, key, n=1):
        self.counters[key] += n

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[i] = (name, t0, t1, parent)
                if hook is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(tracer.counters, bound.arguments, result, exc)

        return traced

    def install(self):
        """Rebind the public functions of every layer in every mcf namespace."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"mcf.{layer}"]
            for name, fn in public_functions(module).items():
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        namespaces = [m for k, m in sys.modules.items()
                      if k == "mcf" or k.startswith("mcf.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._undo.append((ns, attr, value))
        group = sys.modules["mcf.cli"].main
        group.main = self._wrap("cli.main", group.main)
        self._undo.append((group, "main", None))

    def uninstall(self):
        for obj, attr, value in reversed(self._undo):
            if value is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, value)
        self._undo = []

    def write(self, path):
        """Spans as tab-separated rows: name, start, end, parent row."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, t0, t1, parent in self.spans:
                fh.write(f"{name}\t{t0!r}\t{t1!r}\t{parent}\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counters, wall_s):
    """Per-layer self times, stage times and counters of one traced pass.

    A span's self time is its duration minus that of its direct children;
    spans nest strictly because the benchmark is single-threaded.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    busy = dict.fromkeys(LAYERS, 0.0)
    inclusive = defaultdict(float)
    calls = Counter()
    top = 0.0
    for (name, t0, t1, parent), c in zip(spans, child):
        layer = name.split(".", 1)[0]
        busy[layer] += (t1 - t0) - c
        inclusive[name] += t1 - t0
        calls[layer] += 1
        if parent < 0:
            top += t1 - t0
    k = Counter(counters)
    st = {e: inclusive[f"stochastic.{e}"] for e in ENGINES}
    engine_s = sum(st.values())
    m = {f"{layer}.busy_s": busy[layer] for layer in LAYERS}
    m.update({
        "other_s": wall_s - top,
        "stochastic.fire_s": st["batch_fire_steps"],
        "stochastic.code_s": st["batch_code_points"],
        "stochastic.record_s": st["batch_record_paths"],
        "stochastic.order_prob_s": inclusive["stochastic.estimate_order_prob"],
        "stochastic.engine_steps": k["stochastic.engine_steps"],
        "stochastic.walk_steps": k["stochastic.walk_steps"],
        "stochastic.s_per_engine_step": _ratio(engine_s, k["stochastic.engine_steps"]),
        "stochastic.ns_per_walk_step": 1e9 * _ratio(engine_s, k["stochastic.walk_steps"]),
        "stochastic.lane_use": _ratio(k["stochastic.walk_steps"], k["stochastic.lane_slots"]),
        "stochastic.truncated": k["stochastic.truncated"],
        "stochastic.code_ties": k["stochastic.code_ties"],
        "induction.steps": k["induction.steps"],
        "induction.steps_per_s": _ratio(k["induction.steps"], busy["induction"]),
        "induction.ties": k["induction.ties"],
        "induction.tie_share": _ratio(k["induction.ties"], k["induction.runs"]),
        "catalog.trials_per_s": _ratio(k["catalog.trials"],
                                       inclusive["catalog.conjugacy_check"]),
        "catalog.ties": k["catalog.ties"],
        "catalog.escapes": k["catalog.escapes"],
        "catalog.agreement_share": _ratio(k["catalog.agreements"], k["catalog.trials"]),
        "graph.calls": calls["graph"],
        "graph.positive_path_s": inclusive["graph.find_positive_path"],
        "thermo.alphabet_s": inclusive["thermo.build_induced_alphabet"],
        "thermo.letters": k["thermo.letters"],
        "thermo.letters_per_s": _ratio(k["thermo.letters"],
                                       inclusive["thermo.build_induced_alphabet"]),
        "thermo.radii_s": inclusive["thermo.tuple_log_radii"],
        "thermo.tuple_products": k["thermo.tuple_products"],
        "thermo.tuple_products_per_s": _ratio(k["thermo.tuple_products"],
                                              inclusive["thermo.tuple_log_radii"]),
        "thermo.solve_s": inclusive["thermo.solve_kappa"],
        "thermo.partition_sum_calls": k["thermo.partition_sum_calls"],
        "thermo.kappa_residual_max": k["thermo.kappa_residual_max"],
        "cli.calls": calls["cli"],
        "cli.output_bytes": k["cli.output_bytes"],
    })
    return m

"""Spans and counts at the package's layer boundaries, recorded by wrapping.

The package is not modified.  `instrument` replaces, for the duration of a
`with` block, each public function one layer calls in another with a wrapper
that records a span.  A function is replaced where its caller looks it up
(for example `meansets.experiments.sample_sphere`, not
`meansets.freegroup.sample_sphere`), and the graphs handed to the solvers
get wrapped `distance` (a span) and `neighbors` (a count) as instance
attributes.  A span's self time is its duration minus the time its child
spans cover; layers never queue work, so there is no waiting time to report.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "experiments", "freegroup", "measures", "graphs", "meanset", "multivertex")
SOLVERS = frozenset({"meanset.mean_set_tree", "meanset.mean_set_exact"})

# (module of the caller, attribute the caller looks up, span name)
_FUNCTION_SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "run_decay_experiment", "experiments.run_decay_experiment"),
    ("cli", "load_measure", "measures.load_measure"),
    ("cli", "measure_mean_set", "meanset.measure_mean_set"),
    ("cli", "increments", "multivertex.increments"),
    ("cli", "positivity_hypotheses", "multivertex.positivity_hypotheses"),
    ("cli", "genuine_dimension", "multivertex.genuine_dimension"),
    ("cli", "first_moment", "multivertex.first_moment"),
    ("cli", "second_moment", "multivertex.second_moment"),
    ("cli", "simulate_walk", "multivertex.simulate_walk"),
    ("experiments", "run_table_cell", "experiments.run_table_cell"),
    ("experiments", "sample_sphere", "freegroup.sample_sphere"),
    ("experiments", "word_to_str", "freegroup.word_to_str"),
    ("experiments", "draw", "measures.draw"),
    ("experiments", "mean_set_tree", "meanset.mean_set_tree"),
    ("experiments", "measure_mean_set", "meanset.measure_mean_set"),
    ("experiments", "sample_mean_set", "meanset.sample_mean_set"),
    ("meanset", "empirical", "measures.empirical"),
    # measure_mean_set dispatches to the solver inside the meanset layer
    ("meanset", "mean_set_exact", "meanset.mean_set_exact"),
)


class Tracer:
    """In-memory span totals: calls, self time and escaped errors per name."""

    def __init__(self, capture=()):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.solver_atoms = 0
        self.solver_distance_calls = 0
        self.walk_steps = 0
        self.captured: dict = {name: [] for name in capture}
        self._stack: list = []  # [child seconds, span name] per open span

    def span(self, name: str, fn):
        layer = name.split(".", 1)[0]
        stack = self._stack
        calls, self_s, errors = self.calls, self.self_s, self.errors
        captured = self.captured.get(name)
        solver = name in SOLVERS
        distance = name.endswith(".distance")
        walk = name == "multivertex.simulate_walk"

        def wrapper(*args, **kwargs):
            if solver:
                self.solver_atoms += len(args[1])
            elif distance and stack and stack[-1][1] in SOLVERS:
                self.solver_distance_calls += 1
            elif walk:
                self.walk_steps += args[1]
            frame = [0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[name] += dt - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dt
            if captured is not None:
                captured.append((args, result))
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def wrap_graph(self, graph, layer: str):
        """Give one graph object a traced distance and a counted neighbors."""
        graph.distance = self.span(f"{layer}.distance", graph.distance)
        graph.neighbors = self.counter(f"{layer}.neighbors", graph.neighbors)
        return graph


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer boundary the workloads cross; restore on exit."""
    from meansets import cli, experiments, meanset
    from meansets.measures import AtomicMeasure

    modules = {"cli": cli, "experiments": experiments, "meanset": meanset}
    saved = []

    def patch(obj, attr, value):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    try:
        for module, attr, name in _FUNCTION_SPANS:
            target = modules[module]
            patch(target, attr, tracer.span(name, getattr(target, attr)))

        load_graph = tracer.span("graphs.load_graph", cli.load_graph)
        patch(cli, "load_graph", lambda path: tracer.wrap_graph(load_graph(path), "graphs"))

        cayley = experiments.CayleyGraph
        patch(experiments, "CayleyGraph",
              lambda rank: tracer.wrap_graph(cayley(rank), "freegroup"))

        from_masses = tracer.span("measures.from_masses", AtomicMeasure.from_masses)

        class TracedMeasure(AtomicMeasure):
            """What `experiments` finds as AtomicMeasure: only from_masses is traced."""

            __slots__ = ()

            @staticmethod
            def from_masses(masses):
                return from_masses(masses)

        patch(experiments, "AtomicMeasure", TracedMeasure)
        yield tracer
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metric values of one traced round, by metric name."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum((s for n, s in self_s.items() if n.startswith(layer + ".")), 0.0)
        out[f"{layer}.errors"] = tracer.errors[layer]
    for name in (
        "experiments.run_table_cell", "experiments.run_decay_experiment", "cli.main",
        "freegroup.sample_sphere", "freegroup.word_to_str", "freegroup.distance",
        "measures.from_masses", "measures.draw", "measures.empirical",
        "measures.load_measure", "graphs.load_graph", "graphs.distance",
        "meanset.mean_set_tree", "meanset.mean_set_exact",
        "multivertex.increments", "multivertex.genuine_dimension",
        "multivertex.positivity_hypotheses", "multivertex.simulate_walk",
    ):
        out[f"{name}.self_s"] = self_s[name]
    for name in (
        "freegroup.sample_sphere", "freegroup.distance", "graphs.distance",
        "meanset.mean_set_tree", "meanset.mean_set_exact",
    ):
        out[f"{name}.calls"] = calls[name]
    for name in ("freegroup.neighbors", "graphs.neighbors"):
        out[f"{name}.calls"] = counts[name]
    distances = calls["graphs.distance"]
    out["graphs.neighbors_per_distance"] = counts["graphs.neighbors"] / distances if distances else 0.0
    atoms = tracer.solver_atoms
    out["meanset.evals_per_solve"] = tracer.solver_distance_calls / atoms if atoms else 0.0
    steps = tracer.walk_steps
    out["multivertex.step_ns"] = self_s["multivertex.simulate_walk"] * 1e9 / steps if steps else 0.0
    return out

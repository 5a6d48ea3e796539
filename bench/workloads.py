"""The four workloads: seeded inputs, the ops that run them, and their checks.

A workload turns the benchmark seed into one round of ops.  An op calls the
package's public API (`run_table_cell`) or the `meanset-lab` entry point
(`meansets.cli.main`, in process, stdout captured) on generated inputs; the
program never sees the benchmark seed itself, only seeds and files derived
from it.  Functions are looked up on their modules at call time, so the
wrappers of a traced run are the ones called.

Each workload also knows how to check one op's output against the
independent references in `oracles`, how to turn an output into the bytes
compared between rounds and between traced and untraced passes, and how to
join a round's outputs into the text whose SHA-256 is pinned for seed 42.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random

import oracles

GRID_LENGTHS = (5, 10, 20, 50)
GRID_SAMPLES = (2, 4, 6, 8, 10, 12, 14, 16)
DECAY_MASSES = (4, 1, 3, 1, 3)  # path(5), singleton mean-set {2}
DECAY_SAMPLES = (4, 8, 16, 32, 64)
WALK_INSTANCES = {
    # name: (edges, masses, mean-set, genuine dimension)
    "two-point-line": ([(0, 1)], {0: 1, 1: 1}, [0, 1], 1),
    "uniform-cycle6": ([(i, (i + 1) % 6) for i in range(6)], {i: 1 for i in range(6)},
                       list(range(6)), 5),
}


def _cli(argv: list[str]) -> str:
    from meansets import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"meanset-lab {argv[0]} exited {code}")
    return buf.getvalue()


def _write(path: str, lines) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{a} {b}\n" for a, b in lines)
    return path


class Workload:
    """One round of ops built from a seed; subclasses fill `ops`.

    `ops` is a list of (call, work units); `check(i, out)` returns None or
    what is wrong with op i's output.
    """

    name = ""
    unit = ""
    capture: tuple = ()  # span names whose calls a traced op hands to check_captured

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: list = []

    def text(self, out) -> str:
        return out

    def round_text(self, outs: list) -> str:
        return "".join(outs)

    def check(self, i: int, out) -> str | None:
        raise NotImplementedError

    def check_captured(self, captured: dict) -> str | None:
        """Check the (args, result) pairs a traced op captured, by span name."""
        return None


class TableF4(Workload):
    """Every (L, n) cell of the F4 sphere-sampling table, 10 trials each.

    Ten trials keep a round near one second, so each cell repeats often
    enough in a run for its upper-quartile repeat to be a steady estimate.
    """

    name = "table-f4"
    unit = "trials"
    capture = ("meanset.mean_set_tree",)

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        lengths, samples, self.trials = ((5,), (2, 4), 5) if tiny else (GRID_LENGTHS, GRID_SAMPLES, 10)
        self.cells = [(length, n) for length in lengths for n in samples]
        self.ops = [(functools.partial(self._cell, length, n), self.trials)
                    for length, n in self.cells]

    def _cell(self, length, n):
        from meansets import experiments

        return experiments.run_table_cell(4, length, n, self.trials, self.seed)

    def text(self, cell) -> str:
        return repr((cell.rank, cell.length, cell.n, cell.trials, cell.histogram, cell.histogram_min))

    def round_text(self, cells) -> str:
        from meansets.experiments import table_to_csv

        return table_to_csv(cells)

    def check(self, i, cell):
        length, n = self.cells[i]
        if (cell.rank, cell.length, cell.n, cell.trials) != (4, length, n, self.trials):
            return f"cell identity {cell.rank, cell.length, cell.n, cell.trials}"
        for hist in (cell.histogram, cell.histogram_min):
            if sum(hist.values()) != self.trials or min(hist) < 0:
                return f"histogram {hist} does not count {self.trials} trials"
        if length == 5:
            # cheap enough to replay in full: sampler and solver both re-derived
            expected = oracles.table_cell_histograms(4, length, n, self.trials, self.seed)
            if expected != (cell.histogram, cell.histogram_min):
                return f"histograms {cell.histogram}, {cell.histogram_min}; oracle {expected}"
        return None

    def check_captured(self, captured):
        for (graph, mu, c), result in captured["meanset.mean_set_tree"]:
            _, nums = mu.numerators()
            vertices, best = oracles.word_mean_set(nums, c)
            if sorted(result.vertices) != vertices or result.min_weight != best:
                return f"mean_set_tree gave {sorted(result.vertices)}, oracle {vertices}"
        return None


class DecayPath5(Workload):
    """`meanset-lab decay` on the criterion-6 path(5) instance."""

    name = "decay-path5"
    unit = "trials"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        n_ops, self.trials = (2, 5) if tiny else (8, 240)
        graph = _write(os.path.join(workdir, "path5.txt"), [(i, i + 1) for i in range(4)])
        measure = _write(os.path.join(workdir, "path5-mu.txt"), enumerate(DECAY_MASSES))
        samples = ",".join(map(str, DECAY_SAMPLES))
        self.op_seeds = [self.rng.randrange(2**32) for _ in range(n_ops)]
        units = self.trials * len(DECAY_SAMPLES)
        self.ops = [
            (functools.partial(_cli, ["decay", "--graph", graph, "--measure", measure,
                                      "--samples", samples, "--trials", str(self.trials),
                                      "--seed", str(s)]), units)
            for s in self.op_seeds
        ]

    def check(self, i, out):
        misses = oracles.path_decay_misses(list(DECAY_MASSES), DECAY_SAMPLES, self.trials,
                                           self.op_seeds[i])
        rows = [line.split(",") for line in out.splitlines()[1:]]
        got = [(int(r[0]), int(r[1]), int(r[2])) for r in rows]
        expected = [(n, self.trials, m) for n, m in zip(DECAY_SAMPLES, misses)]
        if got != expected:
            return f"decay rows {got}; oracle {expected}"
        for r, (n, trials, m) in zip(rows, expected):
            if abs(float(r[3]) - m / trials) > 1e-5 * max(m / trials, 1e-9):
                return f"miss_rate {r[3]} for {m}/{trials}"
        return None


def _graph_edges(kind: str, size: int, rng: random.Random) -> list:
    if kind == "tree":  # uniform attachment: small diameter
        return [(rng.randrange(v), v) for v in range(1, size)]
    if kind == "long-tree":  # attachment to one of the last four: long branches
        return [(rng.randrange(max(0, v - 4), v), v) for v in range(1, size)]
    if kind == "sparse-cycles":  # uniform tree plus 10% extra edges
        edges = {(rng.randrange(v), v) for v in range(1, size)}
        while len(edges) < size - 1 + size // 10:
            u, v = sorted(rng.sample(range(size), 2))
            edges.add((u, v))
        return sorted(edges)
    if kind == "grid":  # w x 25 grid, 20 x 25 at full size
        w = max(2, size // 25)
        h = size // w
        right = [(i * w + j, i * w + j + 1) for i in range(h) for j in range(w - 1)]
        down = [(i * w + j, (i + 1) * w + j) for i in range(h - 1) for j in range(w)]
        return right + down
    raise ValueError(kind)


class ExplicitScan(Workload):
    """Cold `meanset-lab meanset --graph` on generated 500-vertex graphs.

    At 1,000 vertices one op takes 0.3-0.5 s and too few repeats fit in a
    run for each op's upper-quartile repeat to be steady; at 500 vertices the
    quadratic search from every vertex takes under a tenth of a second.
    """

    name = "explicit-scan"
    unit = "solves"
    KINDS = ("tree", "long-tree", "sparse-cycles", "grid")

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        size = 40 if tiny else 500
        self.instances = []
        for i, kind in enumerate(self.KINDS):
            edges = _graph_edges(kind, size, self.rng)
            adj: dict = {}
            for u, v in edges:
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
            masses = self._masses(adj)
            c = 1 + i % 2
            gpath = _write(os.path.join(workdir, f"graph{i}.txt"), edges)
            mpath = _write(os.path.join(workdir, f"measure{i}.txt"), masses.items())
            self.instances.append((adj, masses, c))
            self.ops.append((functools.partial(
                _cli, ["meanset", "--graph", gpath, "--measure", mpath, "--class", str(c)]), 1))

    def _masses(self, adj) -> dict:
        """3-8 atoms, two of them the ends of a double-sweep diameter.

        On a tree the farthest vertex from any vertex is an end of a
        diameter, so a search from each vertex runs until it has covered the
        graph, and the work of an op depends on the graph's size, not on
        where the seed put the atoms.
        """
        start = self.rng.choice(sorted(adj))
        far = oracles.bfs(adj, start)
        end1 = max(far, key=lambda v: (far[v], v))
        far = oracles.bfs(adj, end1)
        end2 = max(far, key=lambda v: (far[v], v))
        atoms = {end1, end2}
        want = self.rng.randint(3, 8)
        while len(atoms) < want:
            atoms.add(self.rng.choice(sorted(adj)))
        return {v: self.rng.randint(1, 9) for v in sorted(atoms)}

    def round_text(self, outs):
        return "".join(_canonical(out, ("vertices", "min_weight", "class")) for out in outs)

    def check(self, i, out):
        adj, masses, c = self.instances[i]
        vertices, best = oracles.graph_mean_set(adj, masses, c)
        expected = {"vertices": vertices, "min_weight": oracles.fraction_text(best), "class": c}
        got = json.loads(out)
        if {k: got.get(k) for k in expected} != expected:
            return f"meanset {got}; oracle {expected}"
        return None


class Walk(Workload):
    """`meanset-lab walk`, 100k steps, on a 1- and a 5-dimensional walk."""

    name = "walk"
    unit = "steps"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.steps, n_ops = (1000, 2) if tiny else (100_000, 4)
        names = sorted(WALK_INSTANCES)
        files = {}
        for name in names:
            edges, masses, _, _ = WALK_INSTANCES[name]
            files[name] = (_write(os.path.join(workdir, f"{name}.txt"), edges),
                           _write(os.path.join(workdir, f"{name}-mu.txt"), masses.items()))
        self.instances = []
        for i in range(n_ops):
            name = names[i % len(names)]
            gpath, mpath = files[name]
            self.instances.append(name)
            argv = ["walk", "--graph", gpath, "--measure", mpath, "--steps", str(self.steps),
                    "--seed", str(self.rng.randrange(2**32))]
            self.ops.append((functools.partial(_cli, argv), self.steps))

    def round_text(self, outs):
        keys = ("mean_set", "base", "dimension", "first_moment", "second_moment",
                "hypotheses", "steps", "orthant_visits", "last_visit")
        return "".join(_canonical(out, keys) for out in outs)

    def check(self, i, out):
        _, _, meanset, dim = WALK_INSTANCES[self.instances[i]]
        got = json.loads(out)
        if got["mean_set"] != meanset or got["dimension"] != dim:
            return f"walk mean_set {got['mean_set']} dimension {got['dimension']}"
        if any(x != "0/1" for x in got["first_moment"]) or len(got["first_moment"]) != len(meanset) - 1:
            return f"first moment {got['first_moment']} is not zero"
        if got["steps"] != self.steps or not 0 <= got["orthant_visits"] <= self.steps:
            return f"walk counts {got['steps']}, {got['orthant_visits']}"
        return None


def _canonical(out: str, keys) -> str:
    """The result fields of one JSON payload, so added side fields keep the digest."""
    payload = json.loads(out)
    return json.dumps({k: payload[k] for k in keys}, sort_keys=True) + "\n"


WORKLOADS = {w.name: w for w in (TableF4, DecayPath5, ExplicitScan, Walk)}

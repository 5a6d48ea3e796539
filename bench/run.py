"""Benchmark of the meansets package, stdlib only, its load run from one process.

Run from the repository root:

    python3 bench/run.py --workload table-f4 --seed 42 --seconds 25 --trace 0

Workloads (see workloads.json for why each was chosen and what it stresses):
table-f4, explicit-scan and walk, which BENCHMARK.json lists, and
decay-path5, which it leaves out: on a shared 2-core Xeon host its times
spread between runs by more than the bound.  A workload is one round of ops
built from --seed.  The timed section repeats whole rounds until --seconds
have passed, so every run measures the same mix of ops, each op many times.

--trace 0 times the rounds with nothing wrapped and prints the end-to-end
metrics: setup_s (the upper quartile of the set-ups made before the
timing and every two seconds between its rounds, each a fresh interpreter
importing the package, then the inputs, their files and one warm-up op),
throughput (a round's work units over the sum of its ops' times),
op_p50_s (the median of those op times over the round's ops), op_tail_s
(over every op timed) and peak_rss_mib (the process's peak resident set,
read once the timing is over).  An op's time is the upper quartile of its
repeats in the run.  On a shared host the processor runs faster, by up to
2x, for stretches of tens of seconds as the load of its other tenants
changes; the slow plateau between those stretches is the steady state.  A
minimum or a median depends on how much of a run such a stretch happened
to cover; the upper quartile reads the plateau unless it covered most of
the run.

--trace 1 runs one round untraced and then the same round with every layer
boundary wrapped (see spans.py), and prints the per-layer metrics; its
counts repeat exactly for a given seed.

Every output is checked (oracles.py); later rounds and the traced pass must
reproduce the first untraced round byte for byte, and for seed 42 the
round's SHA-256 must equal the digest pinned in workloads.json.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it give each metric with its unit, the
failed ratio, the tail percentile and the run's provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_EVERY_S = 2.0
FRESH_IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import meansets.cli"
PINNED_SEED = 42


def _load_spec() -> dict:
    with open(BENCH / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def _provenance(seed: int, workload: str, trace: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "meansets").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_round(workload) -> tuple[list, list]:
    outs, latencies = [], []
    for call, _units in workload.ops:
        t0 = perf_counter()
        out = call()
        latencies.append(perf_counter() - t0)
        outs.append(out)
    return outs, latencies


def _tail(latencies: list) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten ops beyond it."""
    xs = sorted(latencies)
    k = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def _upper_quartile(xs) -> float:
    return statistics.quantiles(xs, n=4)[2] if len(xs) > 1 else xs[0]


def _check(workload, i: int, out) -> str | None:
    try:
        return workload.check(i, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # unreadable output
        return f"op {i}: cannot read output: {exc!r}"


def _check_first_round(workload, outs, pinned: str | None) -> tuple[list, str]:
    """Per-op failure messages of the first round, and the round's digest."""
    problems = [_check(workload, i, out) for i, out in enumerate(outs)]
    digest = _digest(workload.round_text(outs))
    if pinned is not None and digest != pinned:
        problems = [p or f"round digest {digest} != pinned {pinned}" for p in problems]
    return problems, digest


def _fresh_import() -> None:
    """Start an interpreter that imports the package, and wait for it to exit."""
    subprocess.run([sys.executable, "-c", FRESH_IMPORT, str(SRC)], check=True)


def _setup(cls, seed: int, workdir: str, tiny: bool, rep: int):
    """Set the workload up once; return it and the time taken.

    A set-up is a fresh import of the package, in a child process, then the
    inputs, their files and one warm-up op; the import in this process is
    done once, untimed, because its time would be a single noisy sample.
    """
    t0 = perf_counter()
    _fresh_import()
    rep_dir = os.path.join(workdir, f"setup{rep}")
    os.mkdir(rep_dir)
    workload = cls(seed, rep_dir, tiny)
    workload.ops[0][0]()  # warm-up
    return workload, perf_counter() - t0


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the result record (see the module docstring)."""
    if not (SRC / "meansets" / "__init__.py").is_file():
        raise FileNotFoundError(f"package sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import meansets  # noqa: F401
    import meansets.cli  # noqa: F401
    sys.path.insert(0, str(BENCH))
    import spans
    import workloads

    spec = _load_spec()["workloads"][name]
    pinned = spec["digests"].get(str(seed)) if not tiny else None
    work_root = BENCH / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        setup = functools.partial(_setup, workloads.WORKLOADS[name], seed, workdir, tiny)
        workload, setup_s = setup(0)
        record = {"provenance": _provenance(seed, name, int(trace)),
                  "unit_of_work": workload.unit}
        if trace:
            record.update(_traced(workload, pinned, spans))
        else:
            record.update(_timed(workload, seconds, pinned, setup, setup_s))
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work_root.rmdir()


def _timed(workload, seconds: float, pinned, setup, setup_s: float) -> dict:
    """Repeat rounds for `seconds`, setting up again every SETUP_EVERY_S.

    The set-ups between rounds are spread over the run for the same reason
    an op's repeats are: the host's speed changes within a run.
    """
    rounds, latencies, setup_times = [], [], [setup_s]
    start = perf_counter()
    next_setup = start + SETUP_EVERY_S
    while not rounds or perf_counter() - start < seconds:
        outs, lats = _run_round(workload)
        rounds.append(outs)
        latencies.append(lats)
        if perf_counter() >= next_setup:
            setup_times.append(setup(len(setup_times))[1])
            next_setup = perf_counter() + SETUP_EVERY_S
    n_rounds = len(rounds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems, digest = _check_first_round(workload, rounds[0], pinned)
    first = [workload.text(out) for out in rounds[0]]
    for outs in rounds[1:]:
        problems += [None if workload.text(out) == ref else "differs from the first round"
                     for out, ref in zip(outs, first)]
    units = sum(u for _, u in workload.ops)
    typical = [_upper_quartile(op_lats) for op_lats in zip(*latencies)]
    flat = [x for lats in latencies for x in lats]
    tail, pct, beyond = _tail(flat)
    return {
        "attempted": len(flat),
        "problems": [p for p in problems if p],
        "digest": digest,
        "pinned": pinned,
        "detail": {"rounds": n_rounds, "ops": len(flat), "ops_per_round": len(typical),
                   "units": units * n_rounds, "timed_s": sum(flat),
                   "tail_percentile": pct, "tail_beyond": beyond,
                   "setup_times_s": setup_times},
        "metrics": {
            "setup_s": _upper_quartile(setup_times),
            "throughput": units / sum(typical),
            "op_p50_s": statistics.median(typical),
            "op_tail_s": tail,
            "peak_rss_mib": peak_rss_mib,
        },
    }


def _traced(workload, pinned, spans) -> dict:
    """One round, each op run untraced and then traced, back to back."""
    tracer = spans.Tracer(capture=workload.capture)
    plain, plain_lat, traced, traced_lat, captured_problems = [], [], [], [], []
    for call, _units in workload.ops:
        t0 = perf_counter()
        plain.append(call())
        plain_lat.append(perf_counter() - t0)
        with spans.instrument(tracer):
            t0 = perf_counter()
            traced.append(call())
            traced_lat.append(perf_counter() - t0)
        captured_problems.append(workload.check_captured(tracer.captured))
        for calls in tracer.captured.values():
            calls.clear()
    problems, digest = _check_first_round(workload, plain, pinned)
    for a, b, captured in zip(plain, traced, captured_problems):
        same = workload.text(a) == workload.text(b)
        problems.append(captured or (None if same else "traced output differs from untraced"))
    metrics = spans.layer_metrics(tracer)
    metrics["trace_overhead"] = sum(traced_lat) / sum(plain_lat) - 1
    return {
        "attempted": len(problems),
        "problems": [p for p in problems if p],
        "digest": digest,
        "traced_digest": _digest(workload.round_text(traced)),
        "pinned": pinned,
        "detail": {"ops": len(workload.ops), "untraced_s": sum(plain_lat),
                   "traced_s": sum(traced_lat)},
        "metrics": metrics,
    }


def _report(record: dict, spec_metrics: list) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    prov = record["provenance"]
    print("provenance " + json.dumps(prov, sort_keys=True))
    detail = record["detail"]
    print("detail " + json.dumps(detail, sort_keys=True))
    metrics = {}
    for m in spec_metrics:
        value = record["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = ""
        if m["name"] == "throughput":
            note = (f"  ({record['unit_of_work']} per second at each op's upper-quartile time;"
                    f" {detail['units'] / detail['timed_s']:.6g} over all {detail['ops']} ops)")
        elif m["name"] == "op_p50_s":
            note = (f"  (median over {detail['ops_per_round']} ops of each op's upper quartile"
                    f" of {detail['rounds']} repeats)")
        elif m["name"] == "op_tail_s":
            note = (f"  (p{detail['tail_percentile']:.1f} of {detail['ops']} ops,"
                    f" {detail['tail_beyond']} beyond)")
        print(f"{m['name']} {value:.6g} {m['unit']}{note}")
    attempted = record["attempted"]
    failed = len(record["problems"])
    print(f"failed_ratio {failed / attempted:.6g} ratio  ({failed} of {attempted} ops)")
    for problem in record["problems"][:10]:
        print(f"FAILED {problem}")
    pin = record["pinned"]
    status = "not pinned for this seed" if pin is None else (
        "matches pin" if record["digest"] == pin else "DOES NOT match pin")
    print(f"digest {record['digest']} ({status})")
    if "traced_digest" in record:
        same = record["traced_digest"] == record["digest"]
        print(f"traced_digest {record['traced_digest']} ({'equal' if same else 'DIFFERENT'})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(_load_spec()["workloads"]))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few small ops, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size == "tiny")
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = _report(record, spec["per_layer" if args.trace else "end_to_end"])
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    # a terminated run still removes its files: run() cleans up in finally
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())

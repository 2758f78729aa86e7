#!/usr/bin/env python3
"""Benchmark harness for lppairs: timed workloads, answer checks, traced layers.

    python3 bench/run.py --workload census55 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The harness imports `lppairs` from
./src, numpy and the standard library only, and writes only below
./.bench_build/.  With --trace 0 it repeats the workload's operation until
--seconds have passed (always at least once), checks every answer, and
prints one line per metric followed by a JSON result line.  With --trace 1
it replays the workload in process with one worker, records spans around
calls between layers, runs standalone layer passes, checks the pinned work
counts in bench/expected.json and prints the per-layer metrics.

A wrong answer is never posted as a number: the result line then carries
no metrics, and the exit code is 1.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from importlib import resources
from pathlib import Path

import numpy

import tracing
from speed import SpeedProbe
from tracing import Trace, duration, percentile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "lppairs"

WORKLOADS = ("census55", "search33", "pipeline_small")

# Instance lengths per size; "tiny" exists for bench/selftest.py.
# layers: the search instances whose tasks feed the traced layer passes.
SIZES = {
    "full": {
        "census": 55,
        "search": 33,
        "pipeline": (15, 21),
        "layers": {"census55": (33,), "search33": (33,), "pipeline_small": (15, 21)},
        "sample_leaves": 60_000,
        "replay_passes": 4,
    },
    "tiny": {
        "census": 15,
        "search": 15,
        "pipeline": (15,),
        "layers": {"census55": (15,), "search33": (15,), "pipeline_small": (15,)},
        "sample_leaves": 400,
        "replay_passes": 1,
    },
}
SEARCH_WORKERS = 2
VERIFY_CALLS_PER_PASS = 3
SETUP_REPEATS = 5
THETA_INV_MATRICES = 20_000
SPECTRAL_CALLS = 500
CANONICALIZE_CALLS = 20
REPLAY_PAIRS = 2
# The two cross-matchings run_task pairs its four instances into.
MATCHINGS = (((0, 0), (1, 1)), ((0, 1), (1, 0)))


def import_lppairs():
    if not (SRC / "lppairs" / "__init__.py").is_file():
        raise SystemExit(f"error: no lppairs package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    modules = ("bmfm", "cli", "compress", "oracle", "search", "seqio", "spectral")
    # A namespace of modules: the package itself re-exports a function
    # called `compress`, which hides the submodule of that name.
    return types.SimpleNamespace(
        version=importlib.import_module("lppairs").__version__,
        **{name: importlib.import_module(f"lppairs.{name}") for name in modules},
    )


def key_digest(keys) -> str:
    """sha256 over the sorted canonical pair keys, one 'u,v' bit-string line each."""
    lines = sorted(
        "".join(map(str, a)) + "," + "".join(map(str, b)) for a, b in keys
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def count_lines(path) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.strip())


class Run:
    """State of one harness invocation: inputs, answer tally, work files."""

    def __init__(self, args, lp, expected):
        self.workload = args.workload
        self.seed = args.seed
        self.size = SIZES[args.size]
        self.rng = random.Random(args.seed)
        self.lp = lp
        self.expected = expected["instances"]
        self.attempted = 0
        self.failed = 0
        self.trace: Trace | None = None
        self.keep_files = False
        self.outputs: list[tuple] = []  # (checkpoint, archive) of traced searches
        self.task_leaves: dict[tuple, int] = {}  # (length, d1, d2, index) -> leaves
        self.oracles: dict = {}
        self.work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
        self._dirs = 0

    def span(self, name, **attrs):
        if self.trace is None:
            return contextlib.nullcontext({"attrs": attrs})
        return self.trace.span(name, **attrs)

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.work / f"d{self._dirs}"
        path.mkdir(parents=True)
        return path

    def discard(self, path) -> None:
        if not self.keep_files:
            shutil.rmtree(path)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"WRONG {what}: {problem}", file=sys.stderr)

    def factors(self, length: int) -> tuple[int, int]:
        return tuple(self.expected[str(length)]["factors"])

    def pick_order(self, length: int) -> tuple[int, int]:
        d1, d2 = self.factors(length)
        return self.rng.choice(((d1, d2), (d2, d1)))


# ------------------------------------------------------------------ answers


def census_problems(run, length, results) -> list[str]:
    out = []
    for delta, (cands, pairs, expanded) in results.items():
        want = run.expected[str(length)]["census"][str(delta)]
        got = [len(cands), len(pairs), len(expanded)]
        if got != want:
            out.append(f"census {length}/{delta}: candidates/pairs/expanded {got}, expected {want}")
    return out


def search_problems(run, records, summary, checkpoint) -> list[str]:
    want = run.expected[str(summary["length"])]
    got = {
        "tasks": summary["tasks"],
        "completed": summary["completed"],
        "records": len(records),
        "summary_records": summary["records"],
        "raw_records": count_lines(str(checkpoint) + ".records"),
        "key_digest": key_digest(r.key for r in records),
    }
    expect = {
        "tasks": want["tasks"],
        "completed": want["tasks"],
        "records": want["records"],
        "summary_records": want["records"],
        "raw_records": want["raw_records"],
        "key_digest": want["key_digest"],
    }
    return [
        f"search {summary['length']} {summary['factors']}: {k} {got[k]}, expected {expect[k]}"
        for k in expect
        if got[k] != expect[k]
    ]


# ----------------------------------------------------------- workload ops
# Each op runs once, records its answer check, and returns its (start, end)
# perf_counter stamps.


def census_op(run) -> tuple[float, float]:
    length = run.size["census"]
    census = run.lp.search.compressed_census
    start = time.perf_counter()
    results = {d: census(length, d) for d in run.factors(length)}
    end = time.perf_counter()
    run.record(f"census {length}", census_problems(run, length, results))
    return start, end


def search_op(run, length, factors, threads, sampled=False) -> tuple[float, float]:
    search = run.lp.search
    path = run.fresh_dir()
    checkpoint = path / "run.ckpt"
    config = search.SearchConfig(
        threads=threads, checkpoint_path=str(checkpoint), archive_path=str(path / "run.jsonl")
    )
    start = time.perf_counter()
    with run.span("search.run_search", length=length, resume=False) as span:
        records, summary = search.run_search(length, *factors, config)
        span["attrs"]["records"] = len(records)
    end = time.perf_counter()
    if not sampled:
        run.record(f"search {length}", search_problems(run, records, summary, checkpoint))
    if run.trace is not None:
        run.outputs.append((checkpoint, config.archive_path))
    run.discard(path)
    return start, end


def fresh_and_resume(run, length, factors, path):
    """A fresh search with checkpoint and archive, then a resume of it."""
    search = run.lp.search
    checkpoint = str(path / "run.ckpt")
    out = []
    for archive, resume in (("fresh.jsonl", False), ("resumed.jsonl", True)):
        config = search.SearchConfig(checkpoint_path=checkpoint, archive_path=str(path / archive))
        with run.span("search.run_search", length=length, resume=resume) as span:
            records, summary = search.run_search(length, *factors, config, resume=resume)
            span["attrs"]["records"] = len(records)
        out.append((records, summary))
    if run.trace is not None:
        run.outputs.append((checkpoint, str(path / "fresh.jsonl")))
    return out


def pipeline_op(run) -> tuple[float, float]:
    lengths = list(run.size["pipeline"])
    run.rng.shuffle(lengths)
    plan = [(length, run.pick_order(length), run.fresh_dir()) for length in lengths]
    start = time.perf_counter()
    with run.span("pipeline.pass"):
        results = [fresh_and_resume(run, length, f, path) for length, f, path in plan]
    end = time.perf_counter()
    for (length, factors, path), ((records, summary), (resumed, _)) in zip(plan, results):
        problems = search_problems(run, records, summary, path / "run.ckpt")
        if {r.key for r in records} != run.oracles[length]:
            problems.append(f"search {length} {factors}: key set differs from oracle_lp({length})")
        if (path / "fresh.jsonl").read_bytes() != (path / "resumed.jsonl").read_bytes():
            problems.append(f"search {length} {factors}: resumed archive differs from fresh archive")
        run.record(f"pipeline {length}", problems)
        run.discard(path)
    return start, end


def verify_op(run) -> tuple[float, float]:
    sink = io.StringIO()
    start = time.perf_counter()
    with run.span("cli.verify"), contextlib.redirect_stdout(sink):
        code = run.lp.cli.main(["verify"])
    end = time.perf_counter()
    run.record("verify", [] if code == 0 else [f"lp verify exited {code}"])
    return start, end


def oracle_keys(run) -> dict:
    return {length: run.lp.oracle.oracle_lp(length) for length in run.size["pipeline"]}


# ----------------------------------------------------------- timed run


def timed_loop(run, op, seconds) -> list[tuple[float, float]]:
    """Repeat op until `seconds` have passed, at least once."""
    spans: list[tuple[float, float]] = []
    start = time.perf_counter()
    while not spans or time.perf_counter() - start < seconds:
        spans.append(op())
        if run.failed:
            break
    return spans


def measure_setup() -> tuple[float, float]:
    """Median wall time of a fresh interpreter that imports lppairs: raw,
    and corrected for CPU speed like the operations."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import lppairs.cli"
    spans = []
    with SpeedProbe(every_cpu=True) as probe:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True)
            spans.append((start, time.perf_counter()))
    raw = statistics.median(end - start for start, end in spans)
    return raw, statistics.median(probe.corrected(start, end) for start, end in spans)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_run(run, seconds) -> tuple[dict, list[tuple]]:
    """End-to-end metrics (BENCHMARK.json names) plus the lines to print."""
    fixture_start = time.perf_counter()
    run.work.mkdir(parents=True, exist_ok=True)
    verify_spans: list[tuple[float, float]] = []
    if run.workload == "census55":
        op = lambda: census_op(run)
    elif run.workload == "search33":
        # One factor order for every seed: at length 33 the two orders
        # differ by ~15% in time, which would make the per-seed spread bimodal.
        length = run.size["search"]
        op = lambda: search_op(run, length, run.factors(length), SEARCH_WORKERS)
    else:
        def op():
            span = pipeline_op(run)
            verify_spans.extend(verify_op(run) for _ in range(VERIFY_CALLS_PER_PASS))
            return span
    fixture_s = time.perf_counter() - fixture_start
    setup_raw_s, setup_s = measure_setup()
    setup_s += fixture_s
    if run.workload == "pipeline_small":
        run.oracles = oracle_keys(run)  # reference answers: untimed, outside setup_s
    with SpeedProbe(every_cpu=run.workload == "search33") as probe:
        spans = timed_loop(run, op, seconds)

    wall_ms = [1000.0 * (end - start) for start, end in spans]
    ms = [1000.0 * probe.corrected(start, end) for start, end in spans]
    slowdown = statistics.median(probe.slowdown(start, end) for start, end in spans)
    metrics = {
        "setup_s": setup_s,
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": percentile(ms, 90),
        "peak_rss_mb": peak_rss_mb(),
    }
    n = len(ms)
    lines = [("setup_s", setup_s, "s", SETUP_REPEATS), ("setup_raw_s", setup_raw_s, "s", SETUP_REPEATS)]
    if run.workload == "census55":
        lines.append(("census_s", statistics.median(wall_ms) / 1000.0, "s", n))
    elif run.workload == "search33":
        lines.append(("search_s", statistics.median(wall_ms) / 1000.0, "s", n))
    else:
        verify_ms = [1000.0 * (end - start) for start, end in verify_spans]
        lines += [
            ("pipeline_ms_p50", statistics.median(wall_ms), "ms", n),
            ("pipeline_ms_p90", percentile(wall_ms, 90), "ms", n),
            ("verify_ms_p50", statistics.median(verify_ms), "ms", len(verify_ms)),
            ("verify_ms_p90", percentile(verify_ms, 90), "ms", len(verify_ms)),
        ]
    lines += [
        ("cpu_slowdown_p50", slowdown, "x", n),
        ("op_ms_p50", metrics["op_ms_p50"], "ms", n),
        ("op_ms_p90", metrics["op_ms_p90"], "ms", n),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", None),
    ]
    return metrics, lines


# ----------------------------------------------------------- traced run


def leaf_table(run, length, factors):
    """Tasks and their (held, streamed) leaf counts, split as run_task splits them."""
    search, count = run.lp.search, run.lp.bmfm.count
    _, _, expanded1 = search.compressed_census(length, factors[0])
    _, _, expanded2 = search.compressed_census(length, factors[1])
    tasks = search.build_tasks(expanded1, expanded2)
    leaves = []
    for task in tasks:
        held = streamed = 0
        for u, v in MATCHINGS:
            n_u, n_v = count(task.instance(*u)), count(task.instance(*v))
            if n_u and n_v:
                held += min(n_u, n_v)
                streamed += max(n_u, n_v)
        leaves.append((held, streamed))
    return tasks, leaves


def choose_sample(rng, leaves, budget) -> list[int]:
    """Seeded task sample whose total leaf count stays within budget."""
    order = list(range(len(leaves)))
    rng.shuffle(order)
    chosen, total = [], 0
    for index in order:
        n = sum(leaves[index])
        if total + n <= budget:
            chosen.append(index)
            total += n
    return sorted(chosen)


@contextlib.contextmanager
def sampled_tasks(run, length, factors, chosen, leaves):
    """run_search sees only the chosen tasks, renumbered from 0."""
    search = run.lp.search
    build = search.build_tasks
    for new, old in enumerate(chosen):
        run.task_leaves[(length, *factors, new)] = sum(leaves[old])

    def build_sample(pairs1, pairs2):
        tasks = build(pairs1, pairs2)
        return [dataclasses.replace(tasks[old], index=new) for new, old in enumerate(chosen)]

    with tracing.patched([(search, "build_tasks", build_sample)]):
        yield


def replay(run, plan) -> list[tuple[float, float]]:
    """The workload, in process with one worker; returns its operations' stamps."""
    if run.workload == "census55":
        return [census_op(run)]
    if run.workload == "search33":
        length, factors, chosen, leaves = plan
        with sampled_tasks(run, length, factors, chosen, leaves):
            return [search_op(run, length, factors, threads=1, sampled=True)]
    ops = []
    for _ in range(run.size["replay_passes"]):
        ops.append(pipeline_op(run))
        ops += [verify_op(run) for _ in range(VERIFY_CALLS_PER_PASS)]
    return ops


def check_pinned_counts(run, trace, tables) -> None:
    """Census counts, task counts and leaf totals must repeat the pins exactly."""
    problems = []
    by_id = {s["id"]: s for s in trace.spans}
    stages = ("pairgen.enum_candidates", "pairgen.match_pairs", "pairgen.expand_pairs")
    for s in trace.spans:
        if s["name"] in stages:
            census = by_id[s["parent"]]["attrs"]
            want = run.expected[str(census["length"])]["census"][str(census["delta"])]
            want = want[stages.index(s["name"])]
            if s["attrs"]["n"] != want:
                problems.append(f"{s['name']} {census['length']}/{census['delta']}: {s['attrs']['n']}, expected {want}")
        if s["name"] == "search.build_tasks":
            want = run.expected[str(s["attrs"]["length"])]["tasks"]
            if s["attrs"]["tasks"] != want:
                problems.append(f"build_tasks {s['attrs']['length']}: {s['attrs']['tasks']} tasks, expected {want}")
    for length, (_, leaves) in tables.items():
        want = run.expected[str(length)]
        got = (sum(h for h, _ in leaves), sum(s for _, s in leaves))
        if got != (want["leaves_held"], want["leaves_streamed"]):
            problems.append(f"leaves {length}: held/streamed {got}, expected {(want['leaves_held'], want['leaves_streamed'])}")
    run.record("pinned work counts", problems)


def rate_pass(run, name, calls, fn) -> float:
    """Time `calls` calls of fn as one span; returns calls per second."""
    with run.span(f"pass.{name}", calls=calls) as span:
        for _ in range(calls):
            fn()
    return calls / duration(span)


def layer_passes(run, tables, samples) -> dict:
    """Standalone per-layer rates, outside the replayed pipeline."""
    lp = run.lp
    rates = {}
    instances = []
    for length, (tasks, leaves) in tables.items():
        for index in samples[length]:
            task = tasks[index]
            for u, v in MATCHINGS:
                pair = (task.instance(*u), task.instance(*v))
                if lp.bmfm.count(pair[0]) and lp.bmfm.count(pair[1]):
                    instances += [(length, inst) for inst in pair]

    def no_op(*_):
        return None

    for name, enumerate_fn in (
        ("enumerate_with_spectrum", lp.bmfm.enumerate_with_spectrum),
        ("enumerate_matrices", lp.bmfm.enumerate_matrices),
    ):
        with run.span(f"pass.{name}") as span:
            leaves = sum(enumerate_fn(inst, no_op) for _, inst in instances)
        rates[f"bmfm.{name}.leaves_per_s"] = leaves / duration(span)
        span["attrs"]["leaves"] = leaves

    matrices = []
    for length, inst in instances:
        def keep(matrix, length=length):
            matrices.append((matrix, length))
            return len(matrices) < THETA_INV_MATRICES
        lp.bmfm.enumerate_matrices(inst, keep)
        if len(matrices) >= THETA_INV_MATRICES:
            break
    contexts = {length: lp.compress.CrtContext(len(m.rows), len(m.rows[0])) for m, length in matrices}
    with run.span("pass.theta_inv", calls=len(matrices)) as span:
        for matrix, length in matrices:
            lp.compress.theta_inv(matrix, contexts[length])
    rates["compress.theta_inv.per_s"] = len(matrices) / duration(span)

    # Fixed input for the exact checks: the bundled length-77 pair.
    fixture = resources.files("lppairs.data") / "lp77.txt"
    u, v = lp.seqio.read_sequences(str(fixture)).sequences
    lam = (len(u) + 1) // 2
    rates["spectral.exact_complementary.per_s"] = rate_pass(
        run, "exact_complementary", SPECTRAL_CALLS, lambda: lp.spectral.exact_complementary(u, v, lam))
    rates["spectral.paf.per_s"] = rate_pass(run, "paf", SPECTRAL_CALLS, lambda: lp.spectral.paf(u))
    rates["search.canonicalize_lp.per_s"] = rate_pass(
        run, "canonicalize_lp", CANONICALIZE_CALLS, lambda: lp.search.canonicalize_lp(u, v, lam))

    for checkpoint, archive in run.outputs:
        lp.seqio.load_checkpoint(checkpoint)
        lp.seqio.load_archive(archive)
    return rates


def traced_run(run) -> tuple[dict, list[tuple]]:
    run.keep_files = True
    run.work.mkdir(parents=True, exist_ok=True)
    layer_lengths = run.size["layers"][run.workload]
    orders = {length: run.pick_order(length) for length in layer_lengths}
    tables = {length: leaf_table(run, length, orders[length]) for length in layer_lengths}
    samples = {
        length: choose_sample(run.rng, tables[length][1], run.size["sample_leaves"])
        for length in layer_lengths
    }
    plan = None
    if run.workload == "search33":
        length = run.size["search"]
        plan = (length, orders[length], samples[length], tables[length][1])
    if run.workload == "pipeline_small":
        run.oracles = oracle_keys(run)

    # A warm-up fills count()'s memo and the lazy tables; then traced and
    # untraced replays alternate, and the spans of the last traced one are kept.
    # Replay times are corrected for CPU speed like the timed run's.
    replay(run, plan)
    walls = {"traced": [], "untraced": []}
    with SpeedProbe() as probe:
        for label in ("traced", "untraced") * REPLAY_PAIRS:
            if label == "traced":
                trace = run.trace = Trace()
                run.outputs = []
                instrumented = tracing.instrument(run.lp, trace)
            else:
                run.trace = None
                instrumented = contextlib.nullcontext()
            with instrumented, run.span("replay"):
                ops = replay(run, plan)
            walls[label].append(sum(probe.corrected(start, end) for start, end in ops))
    walls = {label: statistics.median(times) for label, times in walls.items()}
    # The kept replay's top-level spans, at the same speed correction.
    root = next(s for s in trace.spans if s["name"] == "replay")
    span_sum = sum(
        probe.corrected(s["start"], s["end"]) for s in trace.spans if s["parent"] == root["id"]
    )
    run.trace = trace
    with tracing.instrument(run.lp, trace), trace.span("layers"):
        if run.workload == "census55":
            # census55 has no search of its own: a sampled search of the
            # layer instance gives the search, bmfm and seqio figures.
            length = layer_lengths[0]
            with sampled_tasks(run, length, orders[length], samples[length], tables[length][1]):
                search_op(run, length, orders[length], threads=1, sampled=True)
        rates = layer_passes(run, tables, samples)
    check_pinned_counts(run, trace, tables)

    metrics, lines = per_layer_metrics(run, trace, walls, rates, tables)
    trace_dir = WORK_ROOT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{run.workload}-seed{run.seed}.jsonl"
    trace.write(trace_path)
    sample_leaves = sum(
        sum(tables[length][1][i]) for length in layer_lengths for i in samples[length]
    )
    lines += [
        ("replay_span_sum_s", span_sum, "s", 1),
        ("replay_span_gap_pct", 100.0 * (span_sum - walls["untraced"]) / walls["untraced"], "%", None),
        ("layer_sample_tasks", sum(len(samples[n]) for n in layer_lengths), "count", None),
        ("layer_sample_leaves", sample_leaves, "count", None),
        ("replay_untraced_s", walls["untraced"], "s", REPLAY_PAIRS),
        ("replay_traced_s", walls["traced"], "s", REPLAY_PAIRS),
    ]
    print(f"# spans written to {trace_path.relative_to(ROOT)}")
    return metrics, lines


def per_layer_metrics(run, trace, walls, rates, tables) -> tuple[dict, list[tuple]]:
    replay_spans = trace.under("replay")
    every = trace.spans

    def named(spans, name):
        return [s for s in spans if s["name"] == name]

    def seconds(spans, name):
        return sum(duration(s) for s in named(spans, name))

    def attr_sum(spans, name, key):
        return sum(s["attrs"][key] for s in named(spans, name))

    tasks = named(every, "search.run_task")
    for s in tasks:
        key = (s["attrs"]["length"], *s["attrs"]["factors"], s["attrs"]["index"])
        if key not in run.task_leaves:
            _, leaves = leaf_table(run, key[0], key[1:3])
            for index, pair in enumerate(leaves):
                run.task_leaves[(key[0], *key[1:3], index)] = sum(pair)
    task_ms = [1000.0 * duration(s) for s in tasks]
    task_leaves = sum(
        run.task_leaves[(s["attrs"]["length"], *s["attrs"]["factors"], s["attrs"]["index"])]
        for s in tasks
    )
    candidates = attr_sum(replay_spans, "pairgen.enum_candidates", "n")
    raw_records = attr_sum(every, "search.run_task", "records")
    records = sum(
        s["attrs"]["records"] for s in named(every, "search.run_search") if not s["attrs"]["resume"]
    )
    m = {
        "pairgen.enum_candidates.s": seconds(replay_spans, "pairgen.enum_candidates"),
        "pairgen.candidates": candidates,
        "pairgen.match_pairs.s": seconds(replay_spans, "pairgen.match_pairs"),
        "pairgen.pairs": attr_sum(replay_spans, "pairgen.match_pairs", "n"),
        "pairgen.expand_pairs.s": seconds(replay_spans, "pairgen.expand_pairs"),
        "pairgen.expanded": attr_sum(replay_spans, "pairgen.expand_pairs", "n"),
        "search.compressed_census.s": seconds(replay_spans, "search.compressed_census"),
        "search.build_tasks.s": seconds(every, "search.build_tasks"),
        "search.tasks": attr_sum(every, "search.build_tasks", "tasks"),
        "search.run_task.s": seconds(every, "search.run_task"),
        "search.run_task.ms_p50": statistics.median(task_ms),
        "search.run_task.ms_p90": percentile(task_ms, 90),
        "search.raw_records": raw_records,
        "search.records": records,
        "bmfm.count.s": seconds(every, "bmfm.count"),
        "bmfm.count.calls": len(named(every, "bmfm.count")),
        "bmfm.leaves_held": sum(h for _, leaves in tables.values() for h, _ in leaves),
        "bmfm.leaves_streamed": sum(s for _, leaves in tables.values() for _, s in leaves),
        "seqio.save_checkpoint.ms_p50": statistics.median(
            1000.0 * duration(s) for s in named(every, "seqio.save_checkpoint")),
        "seqio.write_archive.s": seconds(every, "seqio.write_archive"),
        "seqio.load_archive.s": seconds(every, "seqio.load_archive"),
        "seqio.load_checkpoint.ms": statistics.median(
            1000.0 * duration(s) for s in named(every, "seqio.load_checkpoint")),
        "trace.overhead_pct": 100.0 * (walls["traced"] - walls["untraced"]) / walls["untraced"],
    }
    m["pairgen.candidates_per_s"] = candidates / m["pairgen.enum_candidates.s"]
    m["pairgen.pairs_per_candidate"] = m["pairgen.pairs"] / candidates
    m["search.run_task.leaves_per_s"] = task_leaves / m["search.run_task.s"]
    # A task sample can hold no record at all: nothing then repeats.
    m["search.dedup_ratio"] = records / raw_records if raw_records else 1.0
    m.update(rates)

    lines = [
        (f"self_s {name}", row[2], "s", row[0])
        for name, row in sorted(tracing.self_times(trace.spans).items())
    ]
    lines.append(("search.run_task.samples", len(task_ms), "count", None))
    return m, lines


# ----------------------------------------------------------- main


def machine_info(lp) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": sum(p.read_text().count("\n") for p in SRC.rglob("*.py")),
        "lppairs": lp.version,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full",
                   help="instance size; 'tiny' is for the harness self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    lp = import_lppairs()
    run = Run(args, lp, expected)
    print(f"# lppairs bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("# info " + json.dumps(machine_info(lp), sort_keys=True))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics: dict = {}
    try:
        if args.trace:
            metrics, lines = traced_run(run)
        else:
            metrics, lines = timed_run(run, args.seconds)
    except Exception:  # a crash in the program is a failed operation, not a number
        traceback.print_exc()
        run.attempted += 1
        run.failed += 1
    finally:
        run.trace = None
        shutil.rmtree(run.work, ignore_errors=True)

    correct = run.failed == 0
    if correct:
        for name, value, unit, n in lines:
            print(f"{name} = {value:.6g} {unit}" + (f" (n={n})" if n is not None else ""))
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            print(f"error: harness produced no value for {missing}", file=sys.stderr)
            return 2
    print(f"fail_ratio = {run.failed / max(run.attempted, 1):g} ({run.failed}/{run.attempted})")
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        } if correct else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Spans for the traced benchmark run, recorded from outside the package.

The traced run swaps selected module attributes of `lppairs` for timing
wrappers while a replay runs, so every call a layer makes into another
layer's public function becomes a span.  Nothing in `src/` changes; a
function is only seen where another module looks it up by name at call
time (for example `search.count`, `seqio.save_checkpoint`).

Per-leaf calls (`theta_inv`, the enumeration visitors) are deliberately
not wrapped: a wrapper there would cost a noticeable share of the ~70 us a
leaf takes.  Their rates come from the standalone layer passes instead.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time


class Trace:
    """Spans kept in memory and written out once at the end.

    Each span is a dict with id, parent, name, start, end and attrs; the
    traced code is single-threaded, so spans nest strictly.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def under(self, root_name: str) -> list[dict]:
        """Spans below the (single) top-level span called root_name."""
        roots = {s["id"] for s in self.spans if s["parent"] is None and s["name"] == root_name}
        inside = set(roots)
        out = []
        for s in self.spans:  # parents always precede children
            if s["parent"] in inside:
                inside.add(s["id"])
                out.append(s)
        return out

    def write(self, path) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s["id"],
                    "parent": s["parent"],
                    "name": s["name"],
                    "start_s": s["start"] - t0,
                    "end_s": s["end"] - t0,
                    "attrs": s["attrs"],
                }, sort_keys=True) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total seconds, self seconds).

    Self time is a span's duration minus the time its direct children
    cover; children never overlap because the traced code is serial.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration(s)
    table: dict[str, list] = {}
    for s in spans:
        row = table.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration(s)
        row[2] += duration(s) - child_time.get(s["id"], 0.0)
    return {name: tuple(row) for name, row in table.items()}


def _len_attr(key):
    def describe(span, args, result):
        span["attrs"][key] = len(result)
        return result
    return describe


def _candidates(span, args, result):
    # enum_candidates is a generator; time it by draining it inside the span.
    out = list(result)
    delta, delta2 = args[0], args[1]
    span["attrs"].update(n=len(out), delta=delta, length=delta * delta2)
    return iter(out)


def _census(span, args, result):
    span["attrs"].update(length=args[0], delta=args[1])
    return result


def _task(span, args, result):
    task, ctx = args[0], args[1]
    span["attrs"].update(
        length=ctx.ell, factors=[ctx.d1, ctx.d2], index=task.index, records=len(result)
    )
    return result


def _build(span, args, result):
    first = args[0][0]
    span["attrs"].update(tasks=len(result), length=first.delta * first.delta2)
    return result


def _wrap(trace: Trace, name: str, fn, describe):
    def wrapper(*args, **kwargs):
        with trace.span(name) as span:
            result = fn(*args, **kwargs)
            if describe is not None:
                result = describe(span, args, result)
        return result
    return wrapper


def _targets(lp):
    search, seqio, cli = lp.search, lp.seqio, lp.cli
    return (
        (search, "compressed_census", "search.compressed_census", _census),
        (search, "enum_candidates", "pairgen.enum_candidates", _candidates),
        (search, "match_pairs", "pairgen.match_pairs", _len_attr("n")),
        (search, "expand_pairs", "pairgen.expand_pairs", _len_attr("n")),
        (search, "build_tasks", "search.build_tasks", _build),
        (search, "run_task", "search.run_task", _task),
        (search, "count", "bmfm.count", None),
        (search, "enumerate_with_spectrum", "bmfm.enumerate_with_spectrum", None),
        (search, "exact_complementary", "spectral.exact_complementary", None),
        (search, "canonicalize_lp", "search.canonicalize_lp", None),
        (seqio, "save_checkpoint", "seqio.save_checkpoint", None),
        (seqio, "load_checkpoint", "seqio.load_checkpoint", None),
        (seqio, "write_archive", "seqio.write_archive", None),
        (seqio, "load_archive", "seqio.load_archive", None),
        (seqio, "read_sequences", "seqio.read_sequences", None),
        (cli, "paf", "spectral.paf", None),
        (cli, "psd", "spectral.psd", None),
        (cli, "first_failing_lag", "spectral.first_failing_lag", None),
    )


@contextlib.contextmanager
def patched(changes):
    """Set (module, attribute, value) triples; restore the originals on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in changes]
    for module, attr, value in changes:
        setattr(module, attr, value)
    try:
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def instrument(lp, trace: Trace):
    """Context manager: every target call records a span in trace."""
    return patched([
        (module, attr, _wrap(trace, name, getattr(module, attr), describe))
        for module, attr, name, describe in _targets(lp)
    ])


def percentile(values, q: float) -> float:
    """The q-th percentile (0 < q < 100), inclusive method; one value is itself."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]

"""Text file formats: sequence files, result archives, search checkpoints.

Everything here is line-oriented and human-diffable.  Sequence files carry a
single header declaring the length; archives are JSON lines sorted by
canonical key with a trailing summary record; checkpoints are a small JSON
document whose fingerprint ties them to one exact search configuration.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .spectral import exact_complementary

SEQ_MAGIC = "# lp-seq v1"


@dataclass(frozen=True)
class SequenceFile:
    length: int
    sequences: tuple[tuple[int, ...], ...]


def _parse_error(path, lineno: int, message: str) -> ValueError:
    return ValueError(f"{path}:{lineno}: {message}")


def read_sequences(path) -> SequenceFile:
    """Parse a sequence file, reporting malformed content with line numbers."""
    lines = Path(path).read_text().splitlines()
    length = None
    sequences = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if length is None:
                if not line.startswith(SEQ_MAGIC):
                    raise _parse_error(path, lineno, f"expected header '{SEQ_MAGIC} length=<n>'")
                tail = line[len(SEQ_MAGIC):].strip()
                if not tail.startswith("length="):
                    raise _parse_error(path, lineno, "header is missing 'length='")
                try:
                    length = int(tail[len("length="):])
                except ValueError:
                    raise _parse_error(path, lineno, f"bad length value {tail[len('length='):]!r}") from None
                if length < 1:
                    raise _parse_error(path, lineno, f"length must be positive, got {length}")
            continue
        if length is None:
            raise _parse_error(path, lineno, "data before header line")
        fields = line.split(",")
        try:
            entries = tuple(int(f.strip()) for f in fields)
        except ValueError:
            raise _parse_error(path, lineno, f"non-integer entry in {line!r}") from None
        if len(entries) != length:
            raise _parse_error(
                path, lineno, f"expected {length} entries, found {len(entries)}"
            )
        sequences.append(entries)
    if length is None:
        raise _parse_error(path, 1, "missing header line")
    return SequenceFile(length=length, sequences=tuple(sequences))


def write_sequences(path, length: int, sequences) -> None:
    rows = [f"{SEQ_MAGIC} length={length}"]
    for seq in sequences:
        entries = tuple(int(x) for x in seq)
        if len(entries) != length:
            raise ValueError(f"sequence of length {len(entries)} in a length-{length} file")
        rows.append(",".join(str(x) for x in entries))
    Path(path).write_text("\n".join(rows) + "\n")


def _bits(s: str) -> tuple[int, ...]:
    if set(s) - {"0", "1"}:
        raise ValueError(f"non-binary digits in {s!r}")
    return tuple(int(c) for c in s)


def record_to_json(record) -> str:
    """One archive line for a LegendrePairRecord."""
    doc = {
        "u": "".join(str(x) for x in record.u),
        "v": "".join(str(x) for x in record.v),
        "canon_u": "".join(str(x) for x in record.canon_u),
        "canon_v": "".join(str(x) for x in record.canon_v),
        "lambda": record.lam,
        "rho_u": record.rho_u,
        "rho_v": record.rho_v,
        "task": record.task,
        "instances": list(list(pair) for pair in record.instances),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_archive(path, records, summary: dict) -> None:
    """Write records (already sorted) plus a trailing summary line."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(record_to_json(record) + "\n")
        fh.write(json.dumps({"summary": summary}, sort_keys=True, separators=(",", ":")) + "\n")


def load_archive(path):
    """Read an archive back; re-verifies every record and the summary count.

    Returns (records, summary) where each record is the parsed JSON document
    with u/v expanded to integer tuples.
    """
    records = []
    summary = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            if "summary" in doc:
                summary = doc["summary"]
                continue
            u = _bits(doc["u"])
            v = _bits(doc["v"])
            if not exact_complementary(u, v, doc["lambda"]):
                raise _parse_error(path, lineno, "record fails the complementarity re-check")
            doc["u"] = u
            doc["v"] = v
            doc["canon_u"] = _bits(doc["canon_u"])
            doc["canon_v"] = _bits(doc["canon_v"])
            records.append(doc)
    if summary is None:
        raise ValueError(f"{path}: archive has no summary record")
    if summary.get("records") != len(records):
        raise ValueError(
            f"{path}: summary declares {summary.get('records')} records, found {len(records)}"
        )
    return records, summary


@dataclass(frozen=True)
class Checkpoint:
    fingerprint: str
    n_tasks: int
    completed: frozenset
    partial_offset: int


def _bitmap_hex(completed, n_tasks: int) -> str:
    buf = bytearray((n_tasks + 7) // 8)
    for i in completed:
        buf[i // 8] |= 1 << (i % 8)
    return bytes(buf).hex()


def _bitmap_parse(hex_string: str, n_tasks: int) -> frozenset:
    buf = bytes.fromhex(hex_string)
    return frozenset(
        i for i in range(n_tasks) if buf[i // 8] & (1 << (i % 8))
    )


def save_checkpoint(path, checkpoint: Checkpoint) -> None:
    """Atomic write: the previous checkpoint survives a crash mid-save."""
    doc = {
        "fingerprint": checkpoint.fingerprint,
        "n_tasks": checkpoint.n_tasks,
        "completed": _bitmap_hex(checkpoint.completed, checkpoint.n_tasks),
        "partial_offset": checkpoint.partial_offset,
    }
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path) -> Checkpoint:
    doc = json.loads(Path(path).read_text())
    n_tasks = int(doc["n_tasks"])
    return Checkpoint(
        fingerprint=doc["fingerprint"],
        n_tasks=n_tasks,
        completed=_bitmap_parse(doc["completed"], n_tasks),
        partial_offset=int(doc["partial_offset"]),
    )

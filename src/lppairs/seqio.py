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


@dataclass(frozen=True)
class LegendrePairRecord:
    u: tuple[int, ...]
    v: tuple[int, ...]
    canon_u: tuple[int, ...]
    canon_v: tuple[int, ...]
    lam: int
    rho_u: int
    rho_v: int
    task: int
    instances: tuple[tuple[int, int], tuple[int, int]]

    @property
    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(sorted((self.canon_u, self.canon_v)))


_VECTORS = ("u", "v", "canon_u", "canon_v")
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")
_INTS = (("lambda", "lam"), ("rho_u", "rho_u"), ("rho_v", "rho_v"), ("task", "task"))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# the fields of a record line, keys sorted: what json.dumps(doc, sort_keys=True,
# separators=(",", ":")) writes for a record, at a quarter of its cost
_LINE = ('{"canon_u":"%s","canon_v":"%s","instances":[[%d,%d],[%d,%d]],"lambda":%d,'
         '"rho_u":%d,"rho_v":%d,"task":%d,"u":"%s","v":"%s"}')


def record_to_json(record: LegendrePairRecord) -> str:
    """One archive or records-file line for a record (its vectors are binary)."""
    (a, b), (c, d) = record.instances
    return _LINE % (
        bytes(record.canon_u).translate(_TO_DIGITS).decode(), bytes(record.canon_v).translate(_TO_DIGITS).decode(),
        a, b, c, d, record.lam, record.rho_u, record.rho_v, record.task,
        bytes(record.u).translate(_TO_DIGITS).decode(), bytes(record.v).translate(_TO_DIGITS).decode())


def record_from_json(line: str) -> LegendrePairRecord:
    """The record of one `record_to_json` line; ValueError names a bad field."""
    doc = json.loads(line)
    if not isinstance(doc, dict):
        raise ValueError(f"record line is not a JSON object: {line.strip()[:60]!r}")
    fields = {}
    for name in _VECTORS:
        bits = doc.get(name)
        if not isinstance(bits, str) or not bits:
            raise ValueError(f"record field {name!r} is missing or not a digit string")
        if bits.strip("01"):
            raise ValueError(f"record field {name!r}: non-binary digits in {bits!r}")
        fields[name] = tuple(bits.encode().translate(_FROM_DIGITS))
    for name, attr in _INTS:
        if not _is_int(doc.get(name)):
            raise ValueError(f"record field {name!r} is missing or not an integer")
        fields[attr] = doc[name]
    pairs = doc.get("instances")
    if not (isinstance(pairs, list) and len(pairs) == 2 and all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_int, p)) for p in pairs)):
        raise ValueError("record field 'instances' is not two pairs of integers")
    fields["instances"] = tuple(tuple(p) for p in pairs)
    return LegendrePairRecord(**fields)


def write_archive(path, records, summary: dict) -> None:
    """Write records (already sorted) plus a trailing summary line."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(record_to_json(record) + "\n")
        fh.write(json.dumps({"summary": summary}, sort_keys=True, separators=(",", ":")) + "\n")


def read_records(path, text: str, length: int, lam: int) -> list[LegendrePairRecord]:
    """The records of the lines of `text`, read from `path`, of a search of
    this length and lambda: each must have u and v of `length`, carry `lam`
    and pass the complementarity re-check.  ValueError names path:line."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = record_from_json(line)
            if (len(record.u), len(record.v), record.lam) != (length, length, lam):
                raise ValueError(
                    f"record of lengths {len(record.u)}, {len(record.v)} and lambda "
                    f"{record.lam} where length {length} and lambda {lam} are expected")
            if not exact_complementary(record.u, record.v, lam):
                raise ValueError("record fails the complementarity re-check")
        except ValueError as exc:
            raise _parse_error(path, lineno, str(exc)) from None
        records.append(record)
    return records


def load_archive(path):
    """Read an archive back; re-verifies every record and the summary count.

    The last line is the summary; the records above it are read by
    `read_records` at the summary's `length` and `lambda`.  Returns
    (records, summary): the LegendrePairRecords in file order and the
    summary dict.
    """
    body, _, last = Path(path).read_text().rstrip().rpartition("\n")
    try:
        summary = json.loads(last).get("summary")
    except (ValueError, AttributeError):
        summary = None
    if not isinstance(summary, dict):
        raise ValueError(f"{path}: archive has no summary record as its last line")
    records = read_records(path, body, summary.get("length"), summary.get("lambda"))
    if summary.get("records") != len(records):
        raise ValueError(
            f"{path}: summary declares {summary.get('records')} records, found {len(records)}"
        )
    return records, summary


@dataclass(frozen=True)
class Checkpoint:
    """A search's progress: tasks 0..done-1 are complete, and their records
    fill the first `partial_offset` bytes of the `.records` sidecar."""

    fingerprint: str
    n_tasks: int
    done: int
    partial_offset: int


def save_checkpoint(path, checkpoint: Checkpoint) -> None:
    """Atomic write: the previous checkpoint survives a crash mid-save."""
    doc = {
        "fingerprint": checkpoint.fingerprint,
        "n_tasks": checkpoint.n_tasks,
        "done": checkpoint.done,
        "partial_offset": checkpoint.partial_offset,
    }
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; ValueError if it is not one `save_checkpoint` could write."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # an empty or truncated file, or not text at all
        raise ValueError(f"{path}: checkpoint is not JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: checkpoint is not a JSON object")
    if not isinstance(doc.get("fingerprint"), str):
        raise ValueError(f"{path}: checkpoint field 'fingerprint' is missing or not a string")
    for name in ("n_tasks", "partial_offset"):
        if not (_is_int(doc.get(name)) and doc[name] >= 0):
            raise ValueError(f"{path}: checkpoint field {name!r} is missing or not a count")
    if not (_is_int(doc.get("done")) and 0 <= doc["done"] <= doc["n_tasks"]):
        raise ValueError(f"{path}: checkpoint field 'done' is missing or not a count of at most n_tasks")
    return Checkpoint(doc["fingerprint"], doc["n_tasks"], doc["done"], doc["partial_offset"])

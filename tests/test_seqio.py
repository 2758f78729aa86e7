"""Sequence files, result archives, and checkpoints."""

import json
import os
import random
import re

import pytest

from lppairs import seqio
from lppairs.compress import CrtContext
from lppairs.search import (
    SearchConfig,
    build_tasks,
    canonicalize_lp,
    compressed_census,
    run_search,
    run_task,
)


def test_sequence_roundtrip(tmp_path):
    path = tmp_path / "seqs.txt"
    seqs = [(0, 1, 1, 0, 1), (1, 1, 0, 1, 0)]
    seqio.write_sequences(path, 5, seqs)
    sf = seqio.read_sequences(path)
    assert sf.length == 5
    assert [tuple(s) for s in sf.sequences] == seqs


def test_read_requires_header(tmp_path):
    path = tmp_path / "noheader.txt"
    path.write_text("0,1,1\n")
    with pytest.raises(ValueError, match="1:"):
        seqio.read_sequences(path)


@pytest.mark.parametrize("text,message", [
    ("# lp-seq v2 length=3\n0,1,1\n", "expected header '# lp-seq v1 length=<n>'"),
    ("# lp-seq v1 size=3\n0,1,1\n", "header is missing 'length='"),
    ("# lp-seq v1 length=x\n", "bad length value 'x'"),
    ("# lp-seq v1 length=0\n", "length must be positive, got 0"),
    ("", "missing header line"),
], ids=["magic", "no-length", "length-x", "length-0", "blank"])
def test_read_refuses_a_malformed_header(tmp_path, text, message):
    path = tmp_path / "header.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: {message}")):
        seqio.read_sequences(path)


def test_read_reports_line_numbers(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("# lp-seq v1 length=5\n0,1,1,0,1\n0,1\n")
    with pytest.raises(ValueError, match="3:"):
        seqio.read_sequences(path)
    path.write_text("# lp-seq v1 length=5\n0,x,1,0,1\n")
    with pytest.raises(ValueError, match="2:"):
        seqio.read_sequences(path)


def test_read_skips_comments(tmp_path):
    path = tmp_path / "comments.txt"
    path.write_text("# lp-seq v1 length=3\n# a note\n1,0,1\n\n0,1,1\n")
    sf = seqio.read_sequences(path)
    assert len(sf.sequences) == 2


def _small_archive(tmp_path):
    out = tmp_path / "arch.jsonl"
    records, summary = run_search(15, 3, 5, SearchConfig(archive_path=str(out)))
    return out, records, summary


def test_archive_roundtrip(tmp_path):
    out, records, summary = _small_archive(tmp_path)
    loaded, loaded_summary = seqio.load_archive(out)
    assert loaded_summary["records"] == summary["records"] == len(loaded)
    assert loaded == records


@pytest.mark.parametrize("length,d1,d2,raw", [(15, 3, 5, 40), (21, 3, 7, 41)])
def test_record_codec_roundtrips_every_raw_record(length, d1, d2, raw):
    _, _, e1 = compressed_census(length, d1)
    _, _, e2 = compressed_census(length, d2)
    ctx = CrtContext(d1, d2)
    records = [r for t in build_tasks(e1, e2) for r in run_task(t, ctx)]
    assert len(records) == raw
    for record in records:
        line = seqio.record_to_json(record)
        assert seqio.record_from_json(line) == record
        assert seqio.record_to_json(seqio.record_from_json(line)) == line


def test_record_line_is_the_sorted_compact_json_object():
    # the format string must write what json.dumps writes for the record's
    # fields: keys sorted, no spaces, vectors as digit strings
    rng = random.Random(410)
    for _ in range(300):
        n = rng.randint(1, 80)
        vectors = {name: tuple(rng.randint(0, 1) for _ in range(n)) for name in ("u", "v", "canon_u", "canon_v")}
        ints = {name: rng.choice((rng.randint(-3, 3), rng.randint(0, 10 ** 12))) for name in ("lam", "rho_u", "rho_v", "task")}
        instances = tuple((rng.randint(0, 1), rng.randint(0, 1)) for _ in range(2))
        record = seqio.LegendrePairRecord(**vectors, **ints, instances=instances)
        doc = {name: "".join(map(str, bits)) for name, bits in vectors.items()}
        doc.update({"lambda": record.lam, "rho_u": record.rho_u, "rho_v": record.rho_v, "task": record.task})
        doc["instances"] = [list(pair) for pair in instances]
        assert seqio.record_to_json(record) == json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _damaged(line, field, value=None):
    doc = json.loads(line)
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    return json.dumps(doc)


@pytest.mark.parametrize("field,value", [
    ("u", None), ("canon_v", None), ("rho_u", None), ("task", None), ("instances", None),
    ("u", 101), ("v", ""), ("lambda", "8"), ("rho_v", True), ("rho_v", 1.5),
    ("instances", [[0, 0]]), ("instances", [[0, 0], [1]]), ("instances", [[0, 0], [1, "1"]]),
    ("u", "012"), ("v", "1 0"), ("canon_u", "0\u00b91"), ("canon_v", "-11"),
])
def test_record_from_json_names_the_bad_field(field, value):
    line = _damaged(seqio.record_to_json(canonicalize_lp((1, 1, 0), (1, 0, 1), 2)), field, value)
    with pytest.raises(ValueError, match=repr(field)):
        seqio.record_from_json(line)


@pytest.mark.parametrize("line", ["[1]", "7", "null", '"u"', "{", ""])
def test_record_from_json_refuses_other_documents(line):
    with pytest.raises(ValueError):
        seqio.record_from_json(line)


# a length-3 pair in a length-15 archive, and u and v of unequal lengths: the
# first once loaded, the second failed without its line number
_SHORT = seqio.record_to_json(canonicalize_lp((1, 1, 0), (1, 0, 1), 2))


@pytest.mark.parametrize("line", [
    "[1]", '{"summary":[]}', '{"v":"1"}', _SHORT, _SHORT.replace('"v":"101"', '"v":"10"'),
])
def test_archive_rejects_a_malformed_line(tmp_path, line):
    out, _, _ = _small_archive(tmp_path)
    lines = out.read_text().splitlines()
    lines[0] = line
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=":1:"):
        seqio.load_archive(out)


def test_archive_rejects_corrupted_record(tmp_path):
    out, _, _ = _small_archive(tmp_path)
    lines = out.read_text().splitlines()
    doc = json.loads(lines[0])
    doc["u"] = doc["u"][::-1][:-1] + ("1" if doc["u"][0] == "0" else "0")
    lines[0] = json.dumps(doc)
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        seqio.load_archive(out)


def test_archive_rejects_wrong_summary_count(tmp_path):
    out, _, _ = _small_archive(tmp_path)
    lines = out.read_text().splitlines()
    summary = json.loads(lines[-1])
    summary["summary"]["records"] += 1
    lines[-1] = json.dumps(summary)
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        seqio.load_archive(out)


def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "cp.json"
    cp = seqio.Checkpoint(fingerprint="abc123", n_tasks=11, done=4, partial_offset=512)
    seqio.save_checkpoint(path, cp)
    assert seqio.load_checkpoint(path) == cp
    assert json.loads(path.read_text())["done"] == 4
    for done in (0, 11):  # no task done, every task done
        seqio.save_checkpoint(path, seqio.Checkpoint("abc123", 11, done, 0))
        assert seqio.load_checkpoint(path).done == done


def test_checkpoint_write_is_atomic(tmp_path):
    # the temp file used for atomic replacement must not linger
    path = tmp_path / "cp.json"
    seqio.save_checkpoint(path, seqio.Checkpoint("f", 3, 1, 0))
    assert os.listdir(tmp_path) == ["cp.json"]


@pytest.mark.parametrize("change,message", [
    ({"fingerprint": None}, "'fingerprint'"),
    ({"n_tasks": None}, "'n_tasks'"),
    ({"done": None}, "'done'"),
    ({"partial_offset": None}, "'partial_offset'"),
    ({"fingerprint": 5}, "'fingerprint'"),
    ({"n_tasks": "11"}, "'n_tasks'"),
    ({"n_tasks": -1}, "'n_tasks'"),
    ({"n_tasks": True}, "'n_tasks'"),
    ({"partial_offset": 1.5}, "'partial_offset'"),
    ({"partial_offset": -1}, "'partial_offset'"),
    ({"done": "4"}, "'done'"),
    ({"done": True}, "'done'"),
    ({"done": -1}, "'done'"),
    ({"done": 12}, "'done'"),  # more than n_tasks
    ({"n_tasks": 3}, "'done'"),  # fewer than done
])
def test_load_checkpoint_refuses_a_malformed_document(tmp_path, change, message):
    path = tmp_path / "cp.json"
    seqio.save_checkpoint(path, seqio.Checkpoint("abc123", 11, 4, 512))
    doc = json.loads(path.read_text())
    for field, value in change.items():
        if value is None:
            del doc[field]
        else:
            doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        seqio.load_checkpoint(path)


@pytest.mark.parametrize("text", ["[1, 2]", "null", "3", "{"])
def test_load_checkpoint_refuses_a_non_object(tmp_path, text):
    path = tmp_path / "cp.json"
    path.write_text(text)
    with pytest.raises(ValueError):
        seqio.load_checkpoint(path)


@pytest.mark.parametrize("cut", [0, 20])
def test_load_checkpoint_names_a_checkpoint_that_is_not_json(tmp_path, cut):
    # an empty or truncated checkpoint once failed with json's bare
    # "Expecting value", which does not say which file is bad
    path = tmp_path / "cp.json"
    seqio.save_checkpoint(path, seqio.Checkpoint("abc123", 11, 4, 512))
    path.write_bytes(path.read_bytes()[:cut])
    data = path.read_bytes()
    with pytest.raises(ValueError) as caught:
        seqio.load_checkpoint(path)
    assert str(caught.value).startswith(f"{path}: checkpoint is not JSON")
    assert path.read_bytes() == data
    assert [p.name for p in tmp_path.iterdir()] == ["cp.json"]

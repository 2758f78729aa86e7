"""Sequence files, result archives, and checkpoints."""

import json
import os

import pytest

from lppairs import seqio
from lppairs.search import SearchConfig, run_search


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
    for rec, doc in zip(records, loaded):
        assert doc["u"] == rec.u
        assert doc["v"] == rec.v
        assert doc["canon_u"] == rec.canon_u
        assert doc["lambda"] == rec.lam
        assert doc["rho_u"] == rec.rho_u


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
    cp = seqio.Checkpoint(
        fingerprint="abc123",
        n_tasks=11,  # not a byte multiple, exercises bitmap padding
        completed=frozenset({0, 3, 9, 10}),
        partial_offset=512,
    )
    seqio.save_checkpoint(path, cp)
    back = seqio.load_checkpoint(path)
    assert back.fingerprint == cp.fingerprint
    assert back.n_tasks == cp.n_tasks
    assert back.completed == cp.completed
    assert back.partial_offset == cp.partial_offset
    assert 3 in back.completed and 4 not in back.completed
    seqio.save_checkpoint(path, seqio.Checkpoint("abc123", 11, frozenset(range(11)), 0))
    assert seqio.load_checkpoint(path).completed == frozenset(range(11))


def test_checkpoint_write_is_atomic(tmp_path):
    # the temp file used for atomic replacement must not linger
    path = tmp_path / "cp.json"
    seqio.save_checkpoint(path, seqio.Checkpoint("f", 3, frozenset({1}), 0))
    assert os.listdir(tmp_path) == ["cp.json"]

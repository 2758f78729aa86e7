"""Command-line behavior: output, file handling, exit codes; the public names."""

import argparse
import cmath
import json
import re
import shlex
import shutil
from pathlib import Path

import pytest

from lppairs import seqio
from lppairs.cli import build_parser, main
from lppairs.search import canonicalize_lp
from lppairs.spectral import dft

README = Path(__file__).resolve().parent.parent / "README.md"
SEARCH_15 = ["search", "--length", "15", "--factors", "3,5"]


def _bundled_path() -> str:
    from importlib import resources

    return str(resources.files("lppairs.data") / "lp77.txt")


def _fixture_pair():
    return seqio.read_sequences(_bundled_path())


def test_star_import_resolves_every_public_name():
    import lppairs

    namespace = {}
    exec("from lppairs import *", namespace)
    assert len(set(lppairs.__all__)) == len(lppairs.__all__)
    assert set(lppairs.__all__) <= namespace.keys()


def test_verify_bundled_fixture(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "lambda: 39" in out
    assert "kappa: u=39 v=39" in out
    assert "legendre pair: yes" in out


def test_verify_reports_first_failing_lag(tmp_path, capsys):
    sf = _fixture_pair()
    u = list(sf.sequences[0])
    u[0] ^= 1
    bad = tmp_path / "bad.txt"
    seqio.write_sequences(bad, 77, [u, sf.sequences[1]])
    assert main([str("verify"), str(bad)]) == 1
    assert "FAILED at lag" in capsys.readouterr().out


@pytest.mark.parametrize("length,u,v,reason", [
    (5, (0,) * 5, (0,) * 5, "paf check: FAILED at lag 1"),
    (3, (1,) * 3, (1,) * 3, "paf check: FAILED at lag 1"),
    # PAF sums are lambda = 3 at every nonzero lag, densities 4 and 1
    (5, (1, 1, 1, 1, 0), (1, 0, 0, 0, 0), "density check: FAILED"),
    (1, (1,), (0,), "length check: FAILED"),
    (4, (1, 1, 0, 0), (1, 0, 1, 0), "length check: FAILED"),
], ids=["zeros", "ones", "density", "length-1", "even-length"])
def test_verify_refuses_non_legendre_pairs(tmp_path, capsys, length, u, v, reason):
    path = tmp_path / "pair.txt"
    seqio.write_sequences(path, length, [u, v])
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert reason in out
    assert "legendre pair: yes" not in out


def test_verify_accepts_paley_pair_of_length_211(tmp_path, capsys):
    # 211 is a prime = 3 mod 4: 0 and the quadratic residues form a
    # (211, 106, 53) difference set, so u = v is a Legendre pair
    ell = 211
    residues = {j * j % ell for j in range(1, ell)}
    u = tuple(int(j == 0 or j in residues) for j in range(ell))
    path = tmp_path / "paley211.txt"
    seqio.write_sequences(path, ell, [u, u])
    assert main(["verify", str(path)]) == 0
    assert "legendre pair: yes" in capsys.readouterr().out

    omega = cmath.exp(2j * cmath.pi / ell)
    mu = dft(u)
    for k in range(ell):
        direct = sum(x * omega ** (j * k % ell) for j, x in enumerate(u))
        assert abs(mu[k] - direct) < 1e-9


def test_verify_parse_error_has_line_number(tmp_path, capsys):
    path = tmp_path / "trunc.txt"
    path.write_text("# lp-seq v1 length=5\n0,1,1\n")
    assert main(["verify", str(path)]) == 2
    assert ":2:" in capsys.readouterr().err


def test_verify_missing_file(tmp_path):
    assert main(["verify", str(tmp_path / "nope.txt")]) == 2


def test_verify_requires_two_sequences(tmp_path):
    path = tmp_path / "one.txt"
    seqio.write_sequences(path, 3, [(1, 0, 1)])
    assert main(["verify", str(path)]) == 2


def test_verify_rejects_non_binary(tmp_path):
    path = tmp_path / "ints.txt"
    seqio.write_sequences(path, 3, [(1, 2, 1), (1, 0, 1)])
    assert main(["verify", str(path)]) == 2


def test_pairs_summary_counts(capsys):
    assert main(["pairs", "--length", "15", "--delta", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["pairs"] == 3
    assert summary["expanded"] == 4
    assert len(lines) == 1 + summary["pairs"]


def test_pairs_expanded_listing(capsys):
    assert main(["pairs", "--length", "15", "--delta", "5", "--expanded"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 4


@pytest.mark.parametrize("delta", ["0", "-3"])
def test_pairs_refuses_a_delta_below_one(delta, capsys):
    assert main(["pairs", "--length", "15", "--delta", delta]) == 2
    assert f"delta must be at least 1, got {delta}" in capsys.readouterr().err


def test_bmfm_count_and_listing(capsys):
    assert main(["bmfm", "--rows", "1,1", "--cols", "1,1", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["bmfm", "--rows", "1,1", "--cols", "1,1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert set(out[:-1]) == {"10|01", "01|10"}
    assert out[-1] == "total: 2"


def test_search_writes_archive_and_stats_reads_it(tmp_path, capsys):
    archive = tmp_path / "out.jsonl"
    assert main(["search", "--length", "15", "--factors", "3,5",
                 "--out", str(archive)]) == 0
    summary = json.loads(capsys.readouterr().out.strip())["summary"]
    assert summary["records"] == 8

    csv = tmp_path / "hist.csv"
    assert main(["stats", str(archive), "--out", str(csv)]) == 0
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "energy,count"
    counts = [int(r.split(",")[1]) for r in rows[1:]]
    assert sum(counts) == 2 * summary["records"]
    assert all(c % 2 == 0 for c in counts)  # both members of a record share their energy


@pytest.mark.parametrize("damage", ["missing", "short"])
def test_search_resume_refuses_a_missing_or_short_records_file(tmp_path, damage, capsys):
    cp = tmp_path / "cp.json"
    argv = ["search", "--length", "21", "--factors", "3,7", "--checkpoint", str(cp)]
    assert main(argv + ["--stop-after", "3"]) == 0
    sidecar = Path(str(cp) + ".records")
    lines = sidecar.read_text().splitlines(keepends=True)
    if damage == "missing":
        sidecar.unlink()
    else:
        sidecar.write_text("".join(lines[: len(lines) // 2]))
    capsys.readouterr()
    assert main(argv + ["--resume", "--out", str(tmp_path / "out.jsonl")]) == 2
    assert "refusing to resume" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


# such an --out once failed only when the archive was written, after every
# task had run, and such a --checkpoint only after both censuses
@pytest.mark.parametrize("flag,bad", [
    *(pytest.param("--out", bad, id=bad) for bad in ("missing/x.jsonl", "file/x.jsonl", ".")),
    *(pytest.param("--checkpoint", bad, id=f"checkpoint-{bad}")
      for bad in ("missing/cp.json", "file/cp.json", ".")),
])
def test_search_refuses_an_archive_folder_before_the_census(tmp_path, monkeypatch, capsys, flag, bad):
    from lppairs import search

    (tmp_path / "file").write_text("")
    calls = []
    for name in ("compressed_census", "run_task"):
        monkeypatch.setattr(search, name, lambda *a, name=name: calls.append(name))
    paths = {"--checkpoint": tmp_path / "cp.json", "--out": tmp_path / "out.jsonl", flag: tmp_path / bad}
    argv = ["search", "--length", "21", "--factors", "3,7", "--checkpoint", str(paths["--checkpoint"]),
            "--out", str(paths["--out"])]
    assert main(argv) == 2
    assert "missing or not writable" in capsys.readouterr().err
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("out", ["missing/x.jsonl", "file/x.jsonl", ".", "locked/x.jsonl"])
def test_pairs_refuses_an_unwritable_out_before_the_census(tmp_path, monkeypatch, capsys, out):
    # such an --out once failed only after the whole census had run
    import os

    from lppairs import cli

    (tmp_path / "file").write_text("")
    (tmp_path / "locked").mkdir()
    real_access = os.access
    # root may write to any folder, so a folder without write permission is simulated
    monkeypatch.setattr(os, "access", lambda path, mode: "locked" not in str(path) and real_access(path, mode))
    calls = []
    monkeypatch.setattr(cli, "compressed_census", lambda *a: calls.append(a))
    assert main(["pairs", "--length", "33", "--delta", "11", "--out", str(tmp_path / out)]) == 2
    assert "missing or not writable" in capsys.readouterr().err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "locked"]


def test_search_rejects_bad_factorization(capsys):
    assert main(["search", "--length", "15", "--factors", "3,4"]) == 2
    assert main(["search", "--length", "45", "--factors", "3,15"]) == 2
    assert main(["search", "--length", "15", "--factors", "3,5,1"]) == 2


def test_search_worker_count_comes_from_threads_only(monkeypatch, tmp_path):
    # the environment sets no worker count: a stray variable changes nothing
    monkeypatch.setenv("LP_THREADS", "zero")
    one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    assert main([*SEARCH_15, "--out", str(one)]) == 0
    assert main([*SEARCH_15, "--threads", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
    assert build_parser().parse_args(SEARCH_15).threads == 1


def _drop_key(text: str, key: str) -> str:
    doc = json.loads(text)
    del doc[key]
    return json.dumps(doc)


def _rename_rho_u(text: str) -> str:
    # same length, so the checkpoint's byte offset still ends a line
    first, rest = text.split("\n", 1)
    return first.replace('"rho_u"', '"rho_w"') + "\n" + rest


def _old_format(text: str) -> str:
    # a checkpoint of the completed-task bitmap, before the count of done tasks
    doc = json.loads(text)
    del doc["done"]
    doc["completed"] = "01"
    return json.dumps(doc)


# each damage but the old format once made the resume crash with a traceback
@pytest.mark.parametrize("target,damage,message", [
    ("checkpoint", lambda t: _drop_key(t, "fingerprint"), "'fingerprint'"),
    ("checkpoint", lambda t: json.dumps(dict(json.loads(t), done="")), "'done'"),
    ("checkpoint", lambda t: "[1, 2]", "not a JSON object"),
    ("records", _rename_rho_u, "'rho_u'"),
    ("checkpoint", _old_format, "'done'"),
    # once reported as a bare JSON error, without the file and line
    ("records", lambda t: "{" + t, "cp.json.records:1: Expecting property name"),
    # the fingerprint is intact, so only the task count can refuse it
    ("checkpoint", lambda t: json.dumps(dict(json.loads(t), n_tasks=json.loads(t)["n_tasks"] + 1)),
     "task count mismatch"),
])
def test_search_resume_refuses_malformed_run_files(tmp_path, capsys, target, damage, message):
    cp = tmp_path / "cp.json"
    argv = [*SEARCH_15, "--checkpoint", str(cp)]
    assert main(argv + ["--stop-after", "1"]) == 0
    path = cp if target == "checkpoint" else Path(str(cp) + ".records")
    path.write_text(damage(path.read_text()))
    sidecar = Path(str(cp) + ".records")
    before = (cp.read_bytes(), sidecar.read_bytes())
    capsys.readouterr()
    assert main(argv + ["--resume", "--out", str(tmp_path / "out.jsonl")]) == 2
    assert message in capsys.readouterr().err
    assert (cp.read_bytes(), sidecar.read_bytes()) == before
    assert not (tmp_path / "out.jsonl").exists()


def test_search_resume_refuses_a_record_of_another_lambda(tmp_path, capsys):
    # such a record was once resumed into the archive, which `lp stats`
    # then refused on its complementarity re-check
    cp, out = tmp_path / "c.ckpt", tmp_path / "a.jsonl"
    argv = [*SEARCH_15, "--checkpoint", str(cp), "--out", str(out)]
    assert main(argv) == 0
    sidecar = Path(str(cp) + ".records")
    lines = sidecar.read_text().splitlines(keepends=True)
    assert '"lambda":8' in lines[2]
    lines[2] = lines[2].replace('"lambda":8', '"lambda":9')
    sidecar.write_text("".join(lines))
    before = (cp.read_bytes(), sidecar.read_bytes(), out.read_bytes())
    capsys.readouterr()
    assert main(argv + ["--resume"]) == 2
    assert f"{sidecar}:3: record of lengths 15, 15 and lambda 9" in capsys.readouterr().err
    assert (cp.read_bytes(), sidecar.read_bytes(), out.read_bytes()) == before


# a length-3 pair in a length-15 archive, and u and v of unequal lengths: the
# first once passed `lp stats`, the second failed without its line number;
# a line that is not JSON was once reported without its place
_SHORT = seqio.record_to_json(canonicalize_lp((1, 1, 0), (1, 0, 1), 2))


@pytest.mark.parametrize("damage", [
    lambda line: _drop_key(line, "u"),
    lambda line: "[1]",
    lambda line: _SHORT,
    lambda line: _SHORT.replace('"v":"101"', '"v":"10"'),
    lambda line: "{" + line,
])
def test_stats_refuses_a_malformed_archive_line(tmp_path, capsys, damage):
    archive = tmp_path / "a.jsonl"
    assert main([*SEARCH_15, "--out", str(archive)]) == 0
    first, rest = archive.read_text().split("\n", 1)
    archive.write_text(damage(first) + "\n" + rest)
    capsys.readouterr()
    assert main(["stats", str(archive)]) == 2
    assert f"{archive}:1:" in capsys.readouterr().err


@pytest.mark.parametrize("keep", [0, 1])
def test_stats_refuses_an_archive_without_a_summary(tmp_path, capsys, keep):
    # an empty file, and a record line with no summary line after it
    archive = tmp_path / "a.jsonl"
    assert main([*SEARCH_15, "--out", str(archive)]) == 0
    archive.write_text("".join(archive.read_text().splitlines(keepends=True)[:keep]))
    capsys.readouterr()
    assert main(["stats", str(archive)]) == 2
    assert "archive has no summary record" in capsys.readouterr().err


def test_oracle_subcommands(capsys):
    assert main(["oracle", "lp", "--length", "3"]) == 0
    assert capsys.readouterr().out.strip().endswith("total: 1")
    assert main(["oracle", "bmfm", "--rows", "1,1", "--cols", "1,1",
                 "--count"]) == 0
    assert capsys.readouterr().out.strip() == "total: 2"
    assert main(["oracle", "feasible", "--rows", "2,0", "--cols", "2,0"]) == 1
    assert main(["oracle", "orbit", "--vector", "1,0,0,0,0"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "orbit size: 5"


def test_oracle_caps_surface_as_usage_errors(capsys):
    assert main(["oracle", "lp", "--length", "23"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["0", "-3"])
def test_oracle_orbit_refuses_a_compression_size_below_one(size, capsys):
    assert main(["oracle", "orbit", "--vector", "1,0,0,0,0,0", "--compress", size]) == 2
    assert "compression size must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["search", "--length", "15", "--factors", "3,5", "--threads", "0"],
    ["search", "--length", "15", "--factors", "3,5", "--threads", "-1"],
    ["search", "--length", "15", "--factors", "3,5", "--stop-after", "-3"],
    ["search", "--length", "15", "--factors", "3,5", "--stop-after", "0"],
    ["search", "--length", "15", "--factors", "3,5", "--resume"],  # no --checkpoint
    ["search", "--length", "15", "--factors", "15,1"],
    ["search", "--length", "15", "--factors", "1,15"],
])
def test_out_of_range_options_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err


# each case is a subcommand's argv ending in a removed option: one that only
# tuned float matching, or the held-slice size (now fixed); argparse must
# reject it as unknown
@pytest.mark.parametrize("flag", [
    [*SEARCH_15, "--tolerance", "1e-6"],
    [*SEARCH_15, "--bucket-precision", "6"],
    [*SEARCH_15, "--exhaustive-match"],
    ["pairs", "--length", "15", "--delta", "5", "--tolerance", "1e-6"],
    [*SEARCH_15, "--max-bucket-memory", "2000000"],
])
def test_search_has_no_float_matching_options(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(flag)
    assert exc.value.code == 2


# README examples too slow for the suite; they are parsed but not run.
README_SLOW = {
    "lp pairs --length 55 --delta 11 --expanded",
    "lp search --length 55 --factors 5,11 --out lp55.jsonl --checkpoint lp55.ckpt",
    "lp search --length 55 --factors 5,11 --out lp55.jsonl --checkpoint lp55.ckpt --resume",
}
# README examples whose documented outcome is a verified negative (exit 1).
README_NEGATIVE = {"lp oracle feasible --rows 2,2 --cols 3,1"}


def _readme_commands() -> list[list[str]]:
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.splitlines():
            if line.startswith("lp "):
                commands.append(shlex.split(line, comments=True))
    return commands


def test_readme_commands_parse_and_cheap_ones_run(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    joined = {" ".join(argv) for argv in commands}
    assert len(commands) >= 15
    assert README_SLOW <= joined and README_NEGATIVE <= joined
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {' '.join(argv)}")

    # run in README order, so `lp stats records.jsonl` reads the archive
    # that the search example before it wrote
    monkeypatch.chdir(tmp_path)
    shutil.copy(_bundled_path(), "pair.txt")
    for argv in commands:
        line = " ".join(argv)
        if line not in README_SLOW:
            assert main(argv[1:]) == (1 if line in README_NEGATIVE else 0), line
    capsys.readouterr()


def _parser_options(parser) -> set[str]:
    options = {option for action in parser._actions for option in action.option_strings}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _parser_options(sub)
    return options


def test_readme_prose_names_only_real_options():
    # the sh blocks are parsed above; a backticked option in the prose must
    # be an option of some lp subcommand too, so no removed flag lingers
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    named = {m for span in re.findall(r"`([^`]+)`", prose) for m in re.findall(r"--[\w-]+", span)}
    assert {"--threads", "--stop-after", "--checkpoint", "--resume"} <= named
    assert named <= _parser_options(build_parser())

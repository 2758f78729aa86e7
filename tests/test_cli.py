"""Command-line behavior: output, file handling, exit codes; the public names."""

import json
import re
import shlex
import shutil
from pathlib import Path

import pytest

from lppairs import seqio
from lppairs.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


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
    total = sum(int(r.split(",")[1]) for r in rows[1:])
    assert total == 2 * summary["records"]


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


def test_search_rejects_bad_factorization(capsys):
    assert main(["search", "--length", "15", "--factors", "3,4"]) == 2
    assert main(["search", "--length", "45", "--factors", "3,15"]) == 2
    assert main(["search", "--length", "15", "--factors", "3,5,1"]) == 2


def test_search_threads_env_default(monkeypatch, tmp_path):
    monkeypatch.setenv("LP_THREADS", "2")
    archive = tmp_path / "env.jsonl"
    assert main(["search", "--length", "15", "--factors", "3,5",
                 "--out", str(archive)]) == 0
    monkeypatch.setenv("LP_THREADS", "zero")
    assert main(["search", "--length", "15", "--factors", "3,5"]) == 2


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


@pytest.mark.parametrize("argv", [
    ["search", "--length", "15", "--factors", "3,5", "--threads", "0"],
    ["search", "--length", "15", "--factors", "3,5", "--max-bucket-memory", "-5"],
    ["search", "--length", "15", "--factors", "3,5", "--max-bucket-memory", "0"],
    ["search", "--length", "15", "--factors", "3,5", "--stop-after", "0"],
])
def test_out_of_range_options_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err


SEARCH_15 = ["search", "--length", "15", "--factors", "3,5"]


# each case is a subcommand's argv ending in an option that only tuned float
# matching; argparse must reject it as unknown
@pytest.mark.parametrize("flag", [
    [*SEARCH_15, "--tolerance", "1e-6"],
    [*SEARCH_15, "--bucket-precision", "6"],
    [*SEARCH_15, "--exhaustive-match"],
    ["pairs", "--length", "15", "--delta", "5", "--tolerance", "1e-6"],
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

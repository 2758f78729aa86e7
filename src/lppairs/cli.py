"""Command-line interface.

Subcommands wrap the library layers: ``verify`` (exact Legendre-pair check
of a two-sequence file), ``pairs`` (compressed-pair census for one factor),
``bmfm`` (binary matrices with fixed marginals), ``search`` (the full
pipeline), ``stats`` (correlation-energy histogram of an archive), and
``oracle`` (brute-force reference implementations).

Exit codes: 0 success / pair confirmed, 1 verified negative, 2 usage or
parse error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from importlib import resources

from . import seqio
from .bmfm import MarginalInstance, count, enumerate_matrices
from .errors import InvariantViolation
from .oracle import oracle_bmfm, oracle_feasible_subsets, oracle_lp, oracle_orbit
from .search import SearchConfig, _validate_length, compressed_census, correlation_energy, run_search
from .spectral import first_failing_lag, proper_divisors, psd
from .spectral import paf  # noqa: F401  bench/tracing.py patches this name


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _default_threads() -> int:
    raw = os.environ.get("LP_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"LP_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise ValueError(f"LP_THREADS must be positive, got {n}")
    return n


def _bundled_fixture() -> str:
    return str(resources.files("lppairs.data") / "lp77.txt")


def cmd_verify(args) -> int:
    path = args.file if args.file else _bundled_fixture()
    sf = seqio.read_sequences(path)
    if len(sf.sequences) != 2:
        raise ValueError(
            f"{path}: expected exactly two sequences, found {len(sf.sequences)}"
        )
    u, v = sf.sequences
    for name, seq in (("first", u), ("second", v)):
        if any(x not in (0, 1) for x in seq):
            raise ValueError(f"{path}: {name} sequence is not binary")
    ell = sf.length
    print(f"length: {ell}")
    try:
        _validate_length(ell)
    except ValueError as exc:
        print(f"length check: FAILED ({exc})")
        return 1
    print(f"kappa: u={sum(u)} v={sum(v)}")

    lam = (ell + 1) // 2
    print(f"lambda: {lam}")
    failure = first_failing_lag(u, v, lam)
    if failure is not None:
        lag, value = failure
        print(f"paf check: FAILED at lag {lag} (sum {value}, expected {lam})")
        return 1
    print(f"paf check: ok at all {ell - 1} nonzero lags")
    if sum(u) != lam or sum(v) != lam:
        print(f"density check: FAILED (expected {lam} for both)")
        return 1

    psd_sum = psd(u) + psd(v)
    for d in proper_divisors(ell):
        print(f"psd sum at divisor index {d}: {psd_sum[d]:.6f}")
    print(f"rho: u={correlation_energy(u)} v={correlation_energy(v)}")
    print("legendre pair: yes")
    return 0


def _pair_doc(pair) -> dict:
    return {
        "q": list(pair.q.vector),
        "p": list(pair.p.vector),
        "p_canon": list(pair.p_canon),
        "r": pair.r,
        "lambda": pair.lam,
        "stabilizer_q": list(pair.s_q),
        "stabilizer_p": list(pair.s_p),
    }


def cmd_pairs(args) -> int:
    cands, pairs, expanded = compressed_census(args.length, args.delta)
    lines = [json.dumps(_pair_doc(p), separators=(",", ":"))
             for p in (expanded if args.expanded else pairs)]
    summary = json.dumps({"summary": {
        "length": args.length,
        "delta": args.delta,
        "candidates": len(cands),
        "pairs": len(pairs),
        "expanded": len(expanded),
    }}, separators=(",", ":"))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines + [summary]) + "\n")
    else:
        for line in lines:
            print(line)
    print(summary)
    return 0


def cmd_bmfm(args) -> int:
    inst = MarginalInstance(_csv_ints(args.rows), _csv_ints(args.cols))
    if args.count:
        print(count(inst))
        return 0
    total = enumerate_matrices(
        inst, lambda m: print("|".join("".join(str(x) for x in row) for row in m.rows))
    )
    print(f"total: {total}")
    return 0


def cmd_search(args) -> int:
    factors = _csv_ints(args.factors)
    if len(factors) != 2:
        raise ValueError(f"--factors takes exactly two values, got {args.factors!r}")
    config = SearchConfig(
        threads=args.threads,
        max_bucket_memory=args.max_bucket_memory,
        stop_after=args.stop_after,
        checkpoint_path=args.checkpoint,
        archive_path=args.out,
    )
    records, summary = run_search(
        args.length, factors[0], factors[1], config, resume=args.resume
    )
    if not args.out:
        for record in records:
            print(seqio.record_to_json(record))
    print(json.dumps({"summary": summary}, separators=(",", ":")))
    return 0


def cmd_stats(args) -> int:
    records, _ = seqio.load_archive(args.archive)
    histogram = Counter()
    for record in records:
        histogram[record["rho_u"]] += 1
        histogram[record["rho_v"]] += 1
    lines = ["energy,count"] + [
        f"{energy},{histogram[energy]}" for energy in sorted(histogram)
    ]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    return 0


def cmd_oracle_lp(args) -> int:
    keys = sorted(oracle_lp(args.length))
    for cu, cv in keys:
        print("".join(str(x) for x in cu), "".join(str(x) for x in cv))
    print(f"total: {len(keys)}")
    return 0


def cmd_oracle_bmfm(args) -> int:
    n, hits = oracle_bmfm(_csv_ints(args.rows), _csv_ints(args.cols))
    if not args.count:
        for grid in hits:
            print("|".join("".join(str(x) for x in row) for row in grid))
    print(f"total: {n}")
    return 0


def cmd_oracle_feasible(args) -> int:
    ok = oracle_feasible_subsets(_csv_ints(args.rows), _csv_ints(args.cols))
    print("feasible" if ok else "infeasible")
    return 0 if ok else 1


def cmd_oracle_orbit(args) -> int:
    sizes = _csv_ints(args.compress) if args.compress else ()
    orbit = oracle_orbit(_csv_ints(args.vector), compression_sizes=sizes)
    if args.full:
        for member, tags in orbit:
            extras = "".join(
                f" c{size}=" + ",".join(str(x) for x in tags[size])
                for size in sorted(tags)
            )
            print(",".join(str(x) for x in member) + extras)
    print(f"orbit size: {len(orbit)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lp",
        description="Legendre pair search via compressed complementary sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a two-sequence file for the Legendre pair property")
    p.add_argument("file", nargs="?", default=None,
                   help="sequence file (default: the bundled length-77 pair)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pairs", help="compressed complementary pair census for one factor")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--delta", type=int, required=True, help="compression factor")
    p.add_argument("--expanded", action="store_true",
                   help="list decimation-expanded pairs instead of class pairs")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("bmfm", help="binary matrices with fixed row and column sums")
    p.add_argument("--rows", required=True, help="comma-separated row sums")
    p.add_argument("--cols", required=True, help="comma-separated column sums")
    p.add_argument("--count", action="store_true", help="print the count only")
    p.set_defaults(func=cmd_bmfm)

    p = sub.add_parser("search", help="full Legendre pair search over one factorization")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--factors", required=True, help="coprime factor pair, e.g. 7,11")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--max-bucket-memory", type=int, default=2_000_000,
                   help="most matrices held at once; larger sides are held in slices")
    p.add_argument("--stop-after", type=int, default=None,
                   help="stop once this many records have been collected")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--resume", action="store_true",
                   help="continue from --checkpoint instead of starting over")
    p.add_argument("--out", default=None, help="archive path (default: print records)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("stats", help="correlation-energy histogram of a result archive")
    p.add_argument("archive")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_stats)

    o = sub.add_parser("oracle", help="brute-force reference implementations")
    osub = o.add_subparsers(dest="oracle_command", required=True)

    p = osub.add_parser("lp", help="all canonical Legendre pair keys at a small length")
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(func=cmd_oracle_lp)

    p = osub.add_parser("bmfm", help="matrix enumeration by exhaustive bit patterns")
    p.add_argument("--rows", required=True)
    p.add_argument("--cols", required=True)
    p.add_argument("--count", action="store_true")
    p.set_defaults(func=cmd_oracle_bmfm)

    p = osub.add_parser("feasible", help="marginal feasibility by exhaustive subset pairs")
    p.add_argument("--rows", required=True)
    p.add_argument("--cols", required=True)
    p.set_defaults(func=cmd_oracle_feasible)

    p = osub.add_parser("orbit", help="shift+decimation orbit of a vector")
    p.add_argument("--vector", required=True, help="comma-separated entries")
    p.add_argument("--compress", default=None,
                   help="comma-separated compression sizes to tag members with")
    p.add_argument("--full", action="store_true", help="list every orbit member")
    p.set_defaults(func=cmd_oracle_orbit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", None) is None and args.command == "search":
        try:
            args.threads = _default_threads()
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: construct, verify, dim, search, sweep.

Exit codes are part of the contract so sweeps can run under CI:
0 success, 1 usage or file error, 2 validation failure (or ledger
mismatch), 3 below the nonemptiness threshold, 4 malformed series file.
Commands raise their refusals; ``main`` is the one map from a refusal to
its exit code and its one stderr line.  ``--out`` has one writer.

The sweep emits one CSV row per (g, k) cell with a nonnegative expected
dimension, in grid order (g ascending, then k), with the fixed column
order ``g,k,rho_K,rho_2g2,threshold_ok,corollary_excess,validated,
ledger_total,ledger_matches,stability``.  Output is byte-stable for fixed
inputs regardless of worker count.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import cache

from .chain import Split, SplitLineBundle
from .construct import ThresholdError, construct
from .ledger import (
    LedgerRefusal,
    corollary_range,
    count_dimension,
    rho_canonical,
    rho_general,
    theorem_threshold,
)
from .search import (
    DEFAULT_CAP_RANK1,
    DEFAULT_CAP_RANK2,
    SearchSpace,
    enumerate_series,
)
from .series import LimitSeries, ParseError, parse_series, serialize_series, validate_all
from .stability import check_stable, external_stable_case

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_THRESHOLD = 3
EXIT_PARSE = 4

CSV_COLUMNS = (
    "g,k,rho_K,rho_2g2,threshold_ok,corollary_excess,validated,"
    "ledger_total,ledger_matches,stability"
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _bundle_text(c) -> str:
    b = c.bundle
    if isinstance(b, Split):
        tail = " (free choice)" if c.is_generic else ""
        return f"O({b.first.p}P+{b.first.q}Q) + O({b.second.p}P+{b.second.q}Q){tail}"
    if isinstance(b, SplitLineBundle):
        return f"O({b.p}P+{b.q}Q)"
    return f"indecomposable deg {b.degree}, marked ({b.marked_u},{b.marked_v})"


def _text_dump(s: LimitSeries) -> str:
    lines = [
        f"limit series: genus {s.genus}, rank {s.rank}, sections {s.sections}, "
        f"degree {s.degree}, twist {s.twist}"
    ]
    for i, c in enumerate(s.components, start=1):
        lines.append(f"component {i}: {_bundle_text(c)}")
        lines.append("  rows: " + "  ".join(f"({u},{v})" for u, v in c.table.rows))
    for n, node in enumerate(s.nodes, start=1):
        forced = (
            ", ".join(f"{a}->{b}" for a, b in node.forced_pairs)
            if node.forced_pairs
            else "none"
        )
        lines.append(
            f"node {n}: {node.free_parameter_count} free parameters, forced: {forced}"
        )
    return "\n".join(lines) + "\n"


def _write(payload: str, out: str | None, note: str = "") -> None:
    """Write ``payload`` to the file ``out`` byte for byte, or to stdout."""
    if out:
        # newline="" keeps "\n" on every platform: the file is the payload
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
        print(f"wrote {out}{note}")
    else:
        sys.stdout.write(payload)


def cmd_construct(args) -> int:
    s = construct(args.g, args.k, force=args.force)
    report = validate_all(s)
    _write(serialize_series(s) if args.format == "structured" else _text_dump(s), args.out)
    if external_stable_case(args.g, args.k):
        print(
            "note: external-construction case; the glued bundle here is strictly "
            "semistable and a stable representative is certified externally"
        )
    if report.all_passed:
        print("all checks passed")
        return EXIT_OK
    for line in report.summary_lines():
        print(line)
    return EXIT_VALIDATION


def _load(path: str) -> LimitSeries:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line_no = data.count(b"\n", 0, e.start) + 1
        raise ParseError(line_no, f"not UTF-8 text: {e.reason} at byte {e.start}") from None
    return parse_series(text)


def cmd_verify(args) -> int:
    s = _load(args.file)
    report = validate_all(s)
    for line in report.summary_lines():
        print(line)
    return EXIT_OK if report.all_passed else EXIT_VALIDATION


def cmd_dim(args) -> int:
    s = _load(args.file)
    ledger = count_dimension(s)
    for line in ledger.summary_lines():
        print(line)
    rho = rho_canonical(s.genus, s.sections)
    match = ledger.total == rho
    print(f"total {ledger.total} {'=' if match else '!='} rho {rho}")
    return EXIT_OK if match else EXIT_VALIDATION


def cmd_search(args) -> int:
    try:
        space = SearchSpace(args.g, args.r, args.k, prefix_length=args.prefix)
        report = enumerate_series(space, limit=args.max, cap=args.cap)
    except RecursionError:  # the transfer step recurses once per component
        raise ValueError(f"search at g={args.g}, k={args.k} is too deep") from None
    for line in report.summary_lines():
        print(line)
    if args.show_solutions:
        for key in report.solutions:
            print("---")
            sys.stdout.write(key)
    return EXIT_OK


def _sweep_cell(cell: tuple[int, int]) -> str:
    g, k = cell
    rho_k = rho_canonical(g, k)
    rho_plain = rho_general(2, 2 * g - 2, g, k)
    lo, hi = corollary_range(k)
    threshold_ok = g >= theorem_threshold(k)
    excess = lo <= g < hi
    validated = False
    ledger_total = ""
    ledger_matches = ""
    stability = ""
    if threshold_ok:
        s = construct(g, k)
        try:
            ledger = count_dimension(s)
        except LedgerRefusal:
            pass  # count_dimension runs validate_all and refuses a failing series
        else:
            validated = True
            ledger_total = str(ledger.total)
            ledger_matches = "true" if ledger.total == rho_k else "false"
            stability = (
                "external" if external_stable_case(g, k) else check_stable(s).verdict
            )
    fields = [
        str(g),
        str(k),
        str(rho_k),
        str(rho_plain),
        "true" if threshold_ok else "false",
        "true" if excess else "false",
        "true" if validated else "false",
        ledger_total,
        ledger_matches,
        stability,
    ]
    return ",".join(fields)


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    if args.g_min > args.g_max or args.k_min > args.k_max:
        raise ValueError("empty sweep range")
    if args.k_min < 2:
        raise ValueError("sweep needs k >= 2")
    cells = [
        (g, k)
        for g in range(args.g_min, args.g_max + 1)
        for k in range(args.k_min, args.k_max + 1)
        if rho_canonical(g, k) >= 0
    ]
    # the pool forks all its workers up front, so never ask for more than
    # there are cells or CPUs
    workers = min(args.workers, len(cells), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(cell) for cell in cells]
    _write("\n".join([CSV_COLUMNS] + rows) + "\n", args.out, f" ({len(rows)} rows)")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call.

    Parsing reads the parser and never changes it, and ``parse_args``
    returns a fresh namespace each time, so one call's options and
    defaults never reach the next.
    """
    parser = _Parser(prog="ellchain", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="generate a limit series and validate it")
    p.add_argument("--g", type=int, required=True, help="genus (number of components)")
    p.add_argument("--k", type=int, required=True, help="number of sections")
    p.add_argument("--out", help="write the series file here")
    p.add_argument("--format", choices=("structured", "text"), default="structured")
    p.add_argument(
        "--force",
        action="store_true",
        help="generate below the theorem threshold (validation verdict still reported)",
    )
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="validate a series file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dim", help="itemized dimension count of a series file")
    p.add_argument("file")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("search", help="exhaustive oracle over the balanced ansatz")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, default=2, choices=(1, 2))
    p.add_argument("--max", type=int, default=None, help="store at most this many solutions")
    p.add_argument("--prefix", type=int, default=None, help="enumerate only the first N components")
    p.add_argument("--workers", type=int, default=1, help="accepted; has no effect on the search")
    p.add_argument(
        "--cap",
        type=int,
        default=None,
        help=f"genus cap (defaults: {DEFAULT_CAP_RANK2} rank 2, {DEFAULT_CAP_RANK1} rank 1)",
    )
    p.add_argument("--show-solutions", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="CSV report over a (g, k) grid")
    p.add_argument("--g-min", type=int, required=True)
    p.add_argument("--g-max", type=int, required=True)
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--out", help="CSV path (stdout if omitted)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the one refusal map: every refusal ends in its documented exit code
    # and one stderr line, not a traceback; the subclasses of ValueError
    # come first
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ThresholdError as e:
        print(f"not constructed: {e}", file=sys.stderr)
        return EXIT_THRESHOLD
    except LedgerRefusal as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

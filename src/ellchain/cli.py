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
inputs regardless of the calls made before in the process.

The sweep certifies each k once per process (``_certify``).  Its base b
is the least genus from the threshold t up at which ``construct(b, k)``
ends in a free tail; from there each genus is one step U of the last
(:mod:`ellchain.construct`), which keeps every check, adds 3 to the
ledger total, as to rho_K, and keeps a stable verdict.  So the
certificate prices the cells t..b from their own series (``_direct``),
and when the base is priced and stable, cell (g, k) for any g > b is
its total plus 3(g - b), stable: a sweep cell is arithmetic, whatever
the genus.  Every cell of a k whose base is refused or not stable is
priced from its own series.  ``construct``, ``verify`` and ``dim``
still check every line of the series they read or write.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .chain import Split, SplitLineBundle
from .construct import ThresholdError, construct
from .fileformat import ParseError, load_series, serialize_series
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
from .series import LimitSeries, validate_all
from .stability import VERDICT_STABLE, check_stable, external_stable_case

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


def cmd_verify(args) -> int:
    s = load_series(args.file)
    report = validate_all(s)
    for line in report.summary_lines():
        print(line)
    return EXIT_OK if report.all_passed else EXIT_VALIDATION


def cmd_dim(args) -> int:
    s = load_series(args.file)
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
        report = enumerate_series(
            space, limit=args.max, cap=args.cap, count_only=not args.show_solutions
        )
    except RecursionError:  # the transfer step recurses once per component
        raise ValueError(f"search at g={args.g}, k={args.k} is too deep") from None
    for line in report.summary_lines():
        print(line)
    write = sys.stdout.write
    for key in report.solutions:  # none unless --show-solutions
        write("---\n")
        write(key)
    return EXIT_OK


def _direct(g: int, k: int) -> tuple[int, str] | None:
    """Cell (g, k) priced from its own series: the ledger total and the stability.

    ``None`` when ``count_dimension``, which runs ``validate_all``, refuses
    the series.  ``_certify`` prices the cells from the threshold to the
    base with it; it prices every cell of a k whose base is not shown
    stable, and it is the reference the rule is tested against.
    """
    s = construct(g, k)
    try:
        ledger = count_dimension(s)
    except LedgerRefusal:
        return None
    return ledger.total, ("external" if external_stable_case(g, k) else check_stable(s).verdict)


@cache
def _certify(k: int) -> tuple[tuple[int, str] | None, ...]:
    """The cells of k from its threshold t to its base b, each by ``_direct``.

    The base b is t when the last component of ``construct(t, k)`` pins
    nothing (k = 2 and 4), and t + 1 otherwise: the least genus whose last
    component is a free tail.  From b on, ``construct(g + 1, k)`` is U of
    ``construct(g, k)``, and U keeps every check of ``validate_all`` (see
    :mod:`ellchain.construct`): the old components and nodes are S of
    checked ones, the new component is T of a validated free tail, and the
    new node holds with equality, since every free-tail row lies on
    u + v = a - 1.  U adds one unforced node (4 gluing parameters) and one
    free component (1 modulus, 2 endomorphisms), so the ledger total
    steps by 3, as rho_K = 3g - 3 - k(k + 1)/2 does.  A chain of
    ``check_stable`` at genus g, cut to its first b components, is a chain
    at b, since S keeps every candidate and forced pair; so when none
    survives at b, none survives at any g >= b.  Hence a sweep prices cell
    (g, k) for g > b as ``(total(b) + 3(g - b), "stable")`` when the base
    is priced and stable, and by ``_direct`` otherwise: the argument only
    covers a stable base.

    Made once per k and process, so a sweep cell makes no library call.
    """
    t = theorem_threshold(k)
    b = t if construct(t, k).components[-1].pins_nothing else t + 1
    return tuple(_direct(g, k) for g in range(t, b + 1))


def _sweep_cell(g: int, k: int) -> str:
    """The CSV row of cell (g, k)."""
    rho_k = rho_canonical(g, k)
    rho_plain = rho_general(2, 2 * g - 2, g, k)
    lo, hi = corollary_range(k)
    t = theorem_threshold(k)
    threshold_ok = g >= t
    excess = lo <= g < hi
    priced = None
    if threshold_ok:
        cells = _certify(k)
        b, base = t + len(cells) - 1, cells[-1]
        if g <= b:
            priced = cells[g - t]
        elif base and base[1] == VERDICT_STABLE:
            priced = base[0] + 3 * (g - b), VERDICT_STABLE
        # a cell the certificate does not show to pass is priced on its own
        priced = priced or _direct(g, k)
    if priced is None:
        validated, ledger_total, ledger_matches, stability = "false", "", "", ""
    else:
        total, stability = priced
        validated, ledger_total = "true", str(total)
        ledger_matches = "true" if total == rho_k else "false"
    fields = [
        str(g),
        str(k),
        str(rho_k),
        str(rho_plain),
        "true" if threshold_ok else "false",
        "true" if excess else "false",
        validated,
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
    rows = [
        _sweep_cell(g, k)
        for g in range(args.g_min, args.g_max + 1)
        for k in range(args.k_min, args.k_max + 1)
        if rho_canonical(g, k) >= 0
    ]
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
    p.add_argument("--workers", type=int, default=1, help="accepted; has no effect")
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
    p.add_argument("--workers", type=int, default=1, help="accepted; has no effect")
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

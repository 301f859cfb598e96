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

The sweep certifies each k once per process, at the largest genus any
call has asked for (``_certify``): it validates, prices and
stability-checks that one series, and by the shift identity of
:mod:`ellchain.construct` one pass over it prices the cell of every
genus up to that top.  The certificate holds those cells, so a sweep
cell is one lookup.  A cell the certificate does not show to pass is
priced from its own series (``_direct``).  ``construct``, ``verify`` and
``dim`` still check every line of the series they read or write.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .chain import Indecomposable, Split, SplitLineBundle
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
from .series import (
    Component,
    LimitSeries,
    ParseError,
    parse_series,
    serialize_series,
    validate_all,
)
from .stability import VERDICT_SEMISTABLE, VERDICT_STABLE, check_stable, external_stable_case

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
    the series.  The fallback of every cell a certificate does not show to
    pass, and the reference the certificates are tested against.
    """
    s = construct(g, k)
    try:
        ledger = count_dimension(s)
    except LedgerRefusal:
        return None
    return ledger.total, ("external" if external_stable_case(g, k) else check_stable(s).verdict)


def _least_shifted(c: Component) -> int:
    """The least entry of a validated rank-two component that S moves by one."""
    b = c.bundle
    v = c.table.rows[-1][1]  # v is nonincreasing down a validated table
    if isinstance(b, Indecomposable):
        return min(v, b.marked_v, b.degree - b.marked_u - b.marked_v)
    return min(v, b.first.q, b.second.q)


def _certify(k: int, top: int) -> tuple[tuple[int, str] | None, ...]:
    """The cells of one k up to ``top``, read off ``construct(top, k)`` checked once.

    From the threshold of k up, the entries a sweep reads, entry g is cell
    (g, k) as ``_direct`` prices it, or ``None`` where the top series does
    not show it to pass.  Entry 0 is ``None``.

    The first g components and g - 1 nodes of the top series are
    S**(top - g) of ``construct(g, k)``, where S adds 1 to every v,
    summand q and marked v and to the genus and twist, and 2 to every
    degree (see :mod:`ellchain.construct`).  Every check of
    ``validate_all`` compares quantities that S moves by the same amount,
    and every check but the degree sum reads one component or one node:
    ``component_failures`` and ``node_failures`` decide them, and only
    ``series_failures`` reads the header, the counts and the degree sum.
    So when the top series passes, the series of genus g passes unless
    S**-(top - g) makes an entry negative or the twist nonpositive, or
    its degree sum breaks condition (a); one pass over the components
    checks those three for every g, keeping the least entry S moves by
    one (``_least_shifted``) and the degree sum of components 1..g.
    Cell g's ledger is the top ledger's items on nodes 1..g-1 and
    components 1..g plus the stability term 1, and its chains are the top
    series' chains cut after component g: one survives exactly when a top
    chain survives or dies at a node past g - 1.

    A ledger refusal of the top series refuses every cell; any other error
    is a defect and ends the sweep, as on the direct path.
    """
    s = construct(top, k)
    try:
        ledger = count_dimension(s)
    except LedgerRefusal:
        return (None,) * (top + 1)
    report = check_stable(s)
    last_kill = max((chain.killed_at for chain in report.killed), default=0)
    cells: list[tuple[int, str] | None] = [None]
    least = _least_shifted(s.components[0])
    degrees = priced = 0
    gluing = (0, *ledger.gluing_params)  # the node into component g, none into the first
    for g, (c, moduli, endo, glue) in enumerate(
        zip(s.components, ledger.moduli, ledger.endo_dims, gluing), start=1
    ):
        shift = top - g
        twist = s.twist - shift
        least = min(least, _least_shifted(c))
        degrees += c.degree
        priced += glue + moduli - endo
        if (
            least < shift
            or twist < 1
            or degrees - 2 * g * shift - 2 * (g - 1) * twist != s.degree - 2 * shift
        ):
            cells.append(None)
        elif external_stable_case(g, k):
            cells.append((priced + 1, "external"))
        else:
            semistable = report.survivors or last_kill > g - 1
            cells.append((priced + 1, VERDICT_SEMISTABLE if semistable else VERDICT_STABLE))
    return tuple(cells)


# the cells of each k, by k: made by the first sweep that reaches the
# threshold of k, and made again at a larger top when a sweep asks for one
_CERTIFICATES: dict[int, tuple[tuple[int, str] | None, ...]] = {}


def _certificate(k: int, top: int) -> tuple[tuple[int, str] | None, ...]:
    cells = _CERTIFICATES.get(k)
    if cells is None or len(cells) <= top:
        cells = _CERTIFICATES[k] = _certify(k, top)
    return cells


def _sweep_cell(g: int, k: int, top: int) -> str:
    """The CSV row of cell (g, k) in a sweep whose largest genus is ``top``."""
    rho_k = rho_canonical(g, k)
    rho_plain = rho_general(2, 2 * g - 2, g, k)
    lo, hi = corollary_range(k)
    threshold_ok = g >= theorem_threshold(k)
    excess = lo <= g < hi
    priced = None
    if threshold_ok:
        priced = _certificate(k, top)[g] or _direct(g, k)
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
        _sweep_cell(g, k, args.g_max)
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

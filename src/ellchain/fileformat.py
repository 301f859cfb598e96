"""The series file format, built on :mod:`ellchain.series`, which imports nothing back.

* ``parse_series`` reads a file on the writer's layout by slices: whole-file
  ``u`` and ``v`` columns, decoded as JSON a chunk of rows at a time and
  cut into the tables, and each component record read by one pattern
  match.  Any other file, or a record or row off that layout, is read
  record by record, each component record reading the run of row records
  below it;
  the per-token checks run only on the way to a ``ParseError``;
* ``serialize_series`` is one join of the series head, the component
  blocks and the node lines, rendered by ``series_head``,
  ``component_block`` and ``node_line``; the search oracle keys its
  leaves with the same renderers;
* ``load_series`` reads a file's bytes as UTF-8 text; a ``ParseError`` names
  the line, and quotes at most 40 characters of a token or list it refuses.
"""

from __future__ import annotations

import json
import re
from itertools import islice

from .chain import ChainCurve, Indecomposable, Split, SplitLineBundle
from .series import (
    DIR_FIRST,
    DIR_MARKED,
    DIR_SECOND,
    BundleLike,
    Component,
    LimitSeries,
    NodeGluing,
    VanishingTable,
    _column_table,
    forced_pairs_failure,
)

FORMAT_HEADER = "ellchain-series"
FORMAT_VERSION = "v1"


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _shown(token: str, show=repr) -> str:
    """``show(token)``; past 40 characters, that of its first 40 and its
    length, so a message stays one short line whatever the file holds."""
    return show(token) if len(token) <= 40 else f"{show(token[:40])}... ({len(token)} characters)"


_ROW = "  row %s %s\n"


def series_head(s: LimitSeries) -> str:
    """The header and parameter lines of ``s``'s file, newline-terminated."""
    return (
        f"{FORMAT_HEADER} {FORMAT_VERSION}\n"
        f"genus {s.genus} rank {s.rank} sections {s.sections} "
        f"degree {s.degree} twist {s.twist}\n"
    )


def component_block(i: int, c: Component) -> str:
    """Component ``i``'s record and its row records, newline-terminated."""
    b = c.bundle
    if isinstance(b, Split):
        kind = f"split {b.first.p} {b.first.q} {b.second.p} {b.second.q}"
    elif isinstance(b, SplitLineBundle):
        kind = f"line {b.p} {b.q}"
    else:
        kind = f"indec {b.degree} {b.marked_u} {b.marked_v}"
    # one %-format writes all rows (and, below, a whole matching), which
    # keeps the per-component call from slowing the writer; "%s" writes
    # str(x), the text an f-string field gives an int table entry and any
    # matching entry
    us, vs = c.table.us, c.table.vs
    entries = [None] * (2 * len(us))  # row by row: each u, then its v
    entries[::2], entries[1::2] = us, vs
    return f"component {i} {kind} moduli {c.moduli_freedom}\n" + _ROW * len(us) % tuple(entries)


def node_line(n: int, node: NodeGluing) -> str:
    """Node ``n``'s record, newline-terminated; no forced pairs is ``-``."""
    matching = node.matching
    entries = " ".join(["%s"] * len(matching)) % matching
    pairs = node.forced_pairs
    forced = " ".join([f"{a}:{b}" for a, b in pairs]) if pairs else "-"
    return f"node {n} matching {entries} forced {forced}\n"


def serialize_series(s: LimitSeries) -> str:
    """Canonical textual form; parse/serialize round-trips byte-identically.

    The head, then every component block, then every node line: the same
    renderers the search oracle keys its leaves with.  Forced pairs other
    than ``()`` that ``forced_pairs_failure`` refuses raise ``ValueError``
    naming the node.
    """
    for n, node in enumerate(s.nodes, start=1):
        if node.forced_pairs != () and (why := forced_pairs_failure(node.forced_pairs)):
            raise ValueError(f"node {n}: {why}")
    return "".join(
        [
            series_head(s),
            *(component_block(i, c) for i, c in enumerate(s.components, start=1)),
            *(node_line(n, node) for n, node in enumerate(s.nodes, start=1)),
        ]
    )


# (record kind, coefficient count) -> bundle constructor
_BUNDLE_RECORDS = {
    ("split", 4): lambda p1, q1, p2, q2: Split(SplitLineBundle(p1, q1), SplitLineBundle(p2, q2)),
    ("line", 2): SplitLineBundle,
    ("indec", 3): Indecomposable,
}


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"expected integer {what}, got {_shown(token)}") from None


def _parse_ints(tokens: list[str], line_no: int, what: str) -> list[int]:
    """``tokens`` as integers, read by one ``map(int, ...)``.

    Only when that fails are they re-read one at a time by ``_parse_int``,
    so that the error names the first bad token.
    """
    try:
        return list(map(int, tokens))
    except ValueError:
        return [_parse_int(t, line_no, what) for t in tokens]


def _component_record(tokens: list[str], line_no: int, index: int) -> tuple[BundleLike, int]:
    """The bundle and moduli freedom of component record ``tokens``, which
    must be component ``index``; a malformed record raises ``ParseError``."""
    if len(tokens) < 3:
        raise ParseError(line_no, "truncated component record")
    (i,) = _parse_ints(tokens[1:2], line_no, "component index")
    if i != index:
        raise ParseError(line_no, f"component index {i} out of order")
    bkind = tokens[2]
    rest = tokens[3:]
    if len(rest) < 2 or rest[-2] != "moduli":
        raise ParseError(line_no, "component record must end with 'moduli <n>'")
    (moduli,) = _parse_ints(rest[-1:], line_no, "moduli freedom")
    coeffs = _parse_ints(rest[:-2], line_no, "bundle coefficient")
    make = _BUNDLE_RECORDS.get((bkind, len(coeffs)))
    why = ""
    if make is not None:
        try:
            return make(*coeffs), moduli
        except ValueError as e:
            why = f": {e}"
    raise ParseError(line_no, f"bad bundle record {_shown(bkind)} {_shown(str(coeffs), str)}{why}")


def _node_record(tokens: list[str], line_no: int, index: int, k: int) -> NodeGluing:
    """The gluing of node record ``tokens``, which must be node ``index`` of
    a series with ``k`` sections; a malformed record raises ``ParseError``."""
    if len(tokens) < 4 or tokens[2] != "matching":
        raise ParseError(line_no, "expected 'node <i> matching ... forced ...'")
    (i,) = _parse_ints(tokens[1:2], line_no, "node index")
    if i != index:
        raise ParseError(line_no, f"node index {i} out of order")
    try:
        split_at = tokens.index("forced")
    except ValueError:
        raise ParseError(line_no, "node record missing 'forced'") from None
    matching = tuple(_parse_ints(tokens[3:split_at], line_no, "matching entry"))
    if len(matching) != k:
        raise ParseError(line_no, f"matching has {len(matching)} entries, expected {k}")
    forced_tokens = tokens[split_at + 1 :]
    if not forced_tokens:
        raise ParseError(line_no, "empty 'forced' field; '-' writes no pairs")
    forced: list[tuple[str, str]] = []
    if forced_tokens != ["-"]:
        for t in forced_tokens:
            sides = t.split(":")
            if len(sides) != 2 or not all(x in (DIR_FIRST, DIR_SECOND, DIR_MARKED) for x in sides):
                raise ParseError(line_no, f"bad forced pair {_shown(t)}")
            forced.append((sides[0], sides[1]))
    return NodeGluing(matching, tuple(forced))


# row lines as the writer lays them out, each ended by "\n"; they are matched
# a chunk at a time, as the matcher holds some state for every line it
# has matched (about 10 MB for one match over the 30,000 row lines of a
# g = 1000, k = 30 file)
_ROW_LINES = re.compile(r"(?:  row -?[0-9]+ -?[0-9]+\n)*")
_ROW_CHUNK = 1024
# a component record as the writer writes it, matched one record at a time
_RECORD = re.compile(
    r"component ([0-9]+) (?:split ([0-9]+ [0-9]+) ([0-9]+ [0-9]+)|line ([0-9]+ [0-9]+)"
    r"|indec ([0-9]+ [0-9]+ [0-9]+)) moduli ([01])"
)


def _parse_layout(
    lines: list[str], g: int, k: int
) -> tuple[list[Component], list[NodeGluing]] | None:
    """The components and nodes of ``lines``, read by slices of the layout
    ``serialize_series`` writes; ``None`` for a file off that layout.

    ``lines`` has the writer's count, ``2 + g(k + 1) + (g - 1)``, and
    ``k >= 1``.  The component records sit at stride ``k + 1``.  Every
    other line of the blocks must be a row line exactly as the writer
    writes it, which a ``fullmatch`` over the join of each chunk of them
    decides line by line (a whole-text token count would take ``row 1``
    and a ``2`` on the next line).  The same chunk, its ``row`` words
    turned into commas, is then one JSON array, decoded by one
    ``json.loads``; its even and odd entries extend whole-file ``u`` and
    ``v`` columns, sliced per component.  JSON reads ``-0`` as ``0``, as
    ``int`` does, and refuses a leading zero; CPython refuses an entry
    past its int-string digit limit.  Each component record must be one
    that ``_RECORD`` matches, with its own index, and its bundle is built
    from the match's groups (a free split's two equal texts give one
    summand).  A node line equal to the writer's line for the identity,
    unforced gluing is that gluing; any other node line is read by the
    line parser's own record code.  A row chunk that JSON refuses, any
    other component record, a node line that code refuses, or a bundle
    that refuses its fields gives ``None``, and the line parser reads the
    file and names the error; so a series read here is the one the line
    parser reads.
    """
    stride = k + 1
    end = 2 + g * stride
    body = lines[2:end]
    records = body[::stride]
    del body[::stride]
    u_column: list[int] = []
    v_column: list[int] = []
    identity = tuple(range(1, k + 1))
    unforced = NodeGluing(identity)
    tail = f" matching {' '.join(map(str, identity))} forced -"
    components: list[Component] = []
    nodes: list[NodeGluing] = []
    try:
        for at in range(0, len(body), _ROW_CHUNK):
            rows = "\n".join(body[at : at + _ROW_CHUNK]) + "\n"
            if not _ROW_LINES.fullmatch(rows):
                return None
            entries = json.loads("[" + rows[6:-1].replace("\n  row ", ",").replace(" ", ",") + "]")
            u_column += islice(entries, 0, None, 2)
            v_column += islice(entries, 1, None, 2)
        us, vs = tuple(u_column), tuple(v_column)
        for i, record in enumerate(records):
            match = _RECORD.fullmatch(record)
            if not match or int(match[1]) != i + 1:
                return None
            _, pq1, pq2, pq, indec, moduli = match.groups()
            if indec:
                bundle = Indecomposable(*map(int, indec.split()))
            else:
                bundle = first = SplitLineBundle(*map(int, (pq1 or pq).split()))
                if pq1:
                    second = first if pq2 == pq1 else SplitLineBundle(*map(int, pq2.split()))
                    bundle = Split(first, second)
            at = i * k
            table = _column_table(us[at : at + k], vs[at : at + k])
            components.append(Component(bundle, table, int(moduli)))
        for n, line in enumerate(lines[end:], start=1):
            if line == f"node {n}{tail}":
                nodes.append(unforced)
                continue
            fields = line.split()
            if fields[:1] != ["node"]:
                return None
            nodes.append(_node_record(fields, end + n, n, k))
    except ValueError:  # a row JSON refuses, a ParseError, or a bundle's own refusal
        return None
    return components, nodes


def _parse_lines(
    lines: list[str], g: int, k: int
) -> tuple[list[Component], list[NodeGluing]]:
    """The components and nodes of ``lines``, read record by record; a
    malformed line raises ``ParseError``.

    Records are read in one loop over the lines.  A component record reads
    the run of ``row <u> <v>`` records below it, blank lines skipped, and
    builds its table from that run's integers, by one comprehension.  Only
    a field or run that does not read that way is re-read one token at a
    time, so the error names the line and token it always named, and the
    per-token checks run only on the way to it.  A run of the wrong length
    fails at the record that ends it, or just past the last line; a run
    ended by an unknown record is left to the loop, which names that
    record.
    """
    components: list[Component] = []
    nodes: list[NodeGluing] = []
    at = 2  # index of the next line to read; its line number is at + 1
    ended: list[str] = []  # the record that ended a run of rows, split once
    while at < len(lines):
        tokens, ended = ended or lines[at].split(), []
        at += 1
        line_no = at
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "component":
            bundle, moduli = _component_record(tokens, line_no, len(components) + 1)
            # the run of row records below it, blank lines skipped
            run: list[list[str]] = []
            first = at
            for at in range(first, len(lines)):
                tokens = lines[at].split()
                if tokens:
                    if tokens[0] != "row":
                        ended = tokens
                        break
                    run.append(tokens)
            else:
                at = len(lines)
            try:
                rows = [(int(u), int(v)) for _, u, v in run]
            except ValueError:
                for line_no, tokens in enumerate(map(str.split, lines[first:at]), start=first + 1):
                    if tokens and len(tokens) != 3:
                        raise ParseError(line_no, "expected 'row <u> <v>'") from None
                    for token, what in zip(tokens[1:], "uv"):
                        _parse_int(token, line_no, what)
                raise
            # an unknown record that ends the run is the loop's to name
            if len(rows) != k and (not ended or ended[0] in ("component", "node")):
                raise ParseError(
                    at + 1, f"component {len(components) + 1} has {len(rows)} rows, expected {k}"
                )
            components.append(Component(bundle, VanishingTable(rows), moduli))
        elif kind == "row":
            raise ParseError(line_no, "row outside a component record")
        elif kind == "node":
            nodes.append(_node_record(tokens, line_no, len(nodes) + 1, k))
        else:
            raise ParseError(line_no, f"unknown record {_shown(kind)}")
    if len(components) != g:
        raise ParseError(len(lines), f"{len(components)} components, expected genus {g}")
    if len(nodes) != g - 1:
        raise ParseError(len(lines), f"{len(nodes)} nodes, expected {g - 1}")
    return components, nodes


def parse_series(text: str) -> LimitSeries:
    """Read the text of a series file; a malformed line raises ``ParseError``.

    The head is read first.  A file with as many lines as
    ``serialize_series`` writes for its genus and sections is then read by
    slices of that layout (``_parse_layout``): whole-file ``u`` and ``v``
    columns, decoded by one ``json.loads`` per chunk of row lines and cut
    into each component's table, with no row pair built.  Any other file,
    and any file the slices refuse, is read record by record
    (``_parse_lines``), which raises every ``ParseError`` past the head.
    A decode refusal is one of those: a leading zero, which the line
    parser reads, or an entry past CPython's int-string digit limit, which
    it names.  The slices read a node record off the writer's identity
    line with the line parser's own code, and refuse a component record
    off the writer's layout, so a file gives the same series, or the same
    error at the same line, either way.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty input")
    # int() also reads '_' separators, a '+' sign and non-ASCII digits, none
    # of which the format writes; one scan of the text keeps parsing cheap
    if not text.isascii() or "_" in text or "+" in text:
        at = next(i for i, ch in enumerate(text) if not ch.isascii() or ch in "_+")
        raise ParseError(len(text[: at + 1].splitlines()), f"unexpected character {text[at]!r}")
    head = lines[0].split()
    if len(head) != 2 or head[0] != FORMAT_HEADER:
        raise ParseError(1, f"expected '{FORMAT_HEADER} <version>' header")
    if head[1] != FORMAT_VERSION:
        raise ParseError(1, f"unknown format version {_shown(head[1])}")
    if len(lines) < 2:
        raise ParseError(2, "missing parameter line")
    params = lines[1].split()
    expected_keys = ["genus", "rank", "sections", "degree", "twist"]
    if len(params) != 10 or params[0::2] != expected_keys:
        raise ParseError(2, f"expected '{' '.join(k + ' <n>' for k in expected_keys)}'")
    try:
        g, r, k, d, a = map(int, params[1::2])
    except ValueError:
        g, r, k, d, a = (_parse_int(params[i], 2, params[i - 1]) for i in (1, 3, 5, 7, 9))
    if g < 1:
        raise ParseError(2, f"genus must be >= 1, got {g}")
    read = None
    if k >= 1 and len(lines) == 2 + g * (k + 1) + g - 1:
        read = _parse_layout(lines, g, k)
    components, nodes = read or _parse_lines(lines, g, k)
    return LimitSeries(
        chain=ChainCurve(g),
        rank=r,
        sections=k,
        degree=d,
        twist=a,
        components=tuple(components),
        nodes=tuple(nodes),
    )


def load_series(path: str) -> LimitSeries:
    """The series file at ``path``, read as UTF-8 text by ``parse_series``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line_no = data.count(b"\n", 0, e.start) + 1
        raise ParseError(line_no, f"not UTF-8 text: {e.reason} at byte {e.start}") from None
    del data  # the parse need not hold the file's bytes as well as its text
    return parse_series(text)

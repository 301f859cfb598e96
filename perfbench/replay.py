"""Traced replay of one op through the package's public functions.

After the traced run times an op through ``cli.main`` (span ``cli.op``),
``replay`` repeats the op's library work call by call, each call a span
whose parent is the op span.  Span times are in calibrated seconds, like
the end-to-end timings.  The spans and counters give the per-layer
metrics; nothing inside the package is instrumented.

What the replay cannot see: ``count_dimension``'s own nested
``validate_all`` (its time is inside ``ledger.count_dimension``), and the
series rebuild a search does per leaf (``search.leaf_replay`` times
``validate_all`` plus the key over the emitted solutions, so it is a lower
bound on the search's leaf cost).
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path


class Tracer:
    """Spans kept in memory as ``[id, parent, op_id, name, start, seconds]``.

    ``seconds`` is a span's own time: its wall time less the host samples
    the sampler took inside it (see hostspin.py).  ``scale`` turns a
    finished op's spans into calibrated seconds.
    """

    def __init__(self, sampler):
        self.sampler = sampler
        self.spans: list[list] = []
        self.counters: Counter = Counter()

    def add(self, name, start, seconds, parent, op_id) -> int:
        self.spans.append([len(self.spans), parent, op_id, name, start, seconds])
        return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name, parent, op_id):
        sampled = self.sampler.seconds
        start = time.perf_counter()
        rec = [len(self.spans), parent, op_id, name, start, None]
        self.spans.append(rec)
        try:
            yield rec[0]
        finally:
            rec[5] = time.perf_counter() - start - (self.sampler.seconds - sampled)

    def scale(self, first_id: int, factor: float):
        for rec in self.spans[first_id:]:
            rec[5] *= factor


def replay(ellchain, tracer: Tracer, parent: int, op_id: int, argv: list[str]):
    args = ellchain.cli.build_parser().parse_args(argv)
    handler = {
        "sweep": _sweep,
        "construct": _construct,
        "verify": _verify,
        "dim": _dim,
        "search": _search,
    }[args.command]
    handler(ellchain, _Scope(tracer, parent, op_id), args)


class _Scope:
    """Spans of one op, all children of its ``cli.op`` span."""

    def __init__(self, tracer: Tracer, parent: int, op_id: int):
        self.tracer, self.parent, self.op_id = tracer, parent, op_id
        self.count = tracer.counters

    def span(self, name, parent=None):
        return self.tracer.span(name, self.parent if parent is None else parent, self.op_id)


def _validate(e, t: _Scope, s) -> bool:
    with t.span("series.validate_all"):
        ok = e.validate_all(s).all_passed
    t.count["series.validate_all.calls"] += 1
    t.count["series.validate_all.rejects"] += not ok
    return ok


def _sweep(e, t: _Scope, args):
    for g in range(args.g_min, args.g_max + 1):
        for k in range(args.k_min, args.k_max + 1):
            if e.rho_canonical(g, k) < 0 or g < e.theorem_threshold(k):
                continue
            with t.span("construct"):
                s = e.construct(g, k)
            if not _validate(e, t, s):
                continue
            with t.span("ledger.count_dimension"):
                e.count_dimension(s)
            if e.external_stable_case(g, k):
                continue
            with t.span("stability.check_stable"):
                report = e.check_stable(s)
            t.count["stability.chains_killed"] += len(report.killed)
            t.count["stability.chains_surviving"] += len(report.survivors)


def _construct(e, t: _Scope, args):
    try:
        with t.span("construct"):
            s = e.construct(args.g, args.k, force=args.force)
    except ValueError:
        return
    _validate(e, t, s)
    with t.span("series.serialize"):
        text = e.serialize_series(s)
    t.count["series.serialize.bytes"] += len(text.encode())


def _parse_file(e, t: _Scope, path: str):
    data = Path(path).read_bytes()
    t.count["series.parse.bytes"] += len(data)
    try:
        with t.span("series.parse"):
            return e.parse_series(data.decode("utf-8"))
    except e.ParseError:
        t.count["series.parse.rejects"] += 1
        return None


def _verify(e, t: _Scope, args):
    s = _parse_file(e, t, args.file)
    if s is not None:
        _validate(e, t, s)


def _dim(e, t: _Scope, args):
    s = _parse_file(e, t, args.file)
    if s is None:
        return
    try:
        with t.span("ledger.count_dimension"):
            e.count_dimension(s)
    except ValueError:
        t.count["ledger.count_dimension.rejects"] += 1


def _prefix_series(e, key: str, g: int):
    # a prefix key serializes a pseudo-series of ``length`` components on a
    # genus-g chain; parse it as genus ``length`` and restore the chain
    head, body = key.split("\n", 1)
    length = int(head.split()[1])
    lines = body.split("\n")
    lines[1] = lines[1].replace(f"genus {g} ", f"genus {length} ", 1)
    s = e.parse_series("\n".join(lines))
    return replace(s, chain=e.ChainCurve(g, length)), length


def _search(e, t: _Scope, args):
    space = e.SearchSpace(args.g, args.r, args.k, prefix_length=args.prefix)
    try:
        with t.span("search.enumerate") as enum_span:
            report = e.enumerate_series(space, limit=args.max, cap=args.cap)
    except (RuntimeError, ValueError):
        t.count["search.errors"] += 1
        return
    pruned = dict(report.pruned)
    t.count["search.tables_expanded"] += report.nodes_expanded
    t.count["search.pruned_capacity"] += pruned["capacity"]
    t.count["search.direction_conflicts"] += pruned["direction-conflict"]
    t.count["search.solutions"] += report.count

    # rebuild outside the timed leaf span; the package's own rebuild is
    # invisible to the replay
    if args.prefix is None:
        leaves = [(e.parse_series(key), key) for key in report.solutions]
    else:
        leaves = [(_prefix_series(e, key, args.g), key) for key in report.solutions]
    mismatched = 0
    with t.span("search.leaf_replay", parent=enum_span):
        if args.prefix is None:
            for s, key in leaves:
                if not e.validate_all(s).all_passed or e.canonical_key(s) != key:
                    mismatched += 1
        else:
            for (s, length), key in leaves:
                if e.prefix_key(s, length) != key:
                    mismatched += 1
    t.count["search.leaf_replay.leaves"] += len(leaves)
    t.count["search.leaf_replay.mismatches"] += mismatched

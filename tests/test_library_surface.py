"""The library's front door: every public reader of a series returns, or
refuses with ``ValueError``, on structured mutants of four series.

``ParseError`` and ``LedgerRefusal`` are ``ValueError``s.  A mutant changes
a header field (to a value of any type) or the chain, a table entry (to a
value of any type) or a table's row count, a matching or a node's forced
pairs, a moduli freedom or a bundle, or which components and nodes are
present, or puts a field of the wrong kind into the object graph (a
bundle, table, matching, chain, component or node that is not one).  Any
other exception is a crash of the reader that raised it.  Mutants are
built through the constructors, which refuse with ``ValueError`` a value
whose type is not ``int`` and a field that is not of its kind: that is
the refusal, and such a mutant reaches no reader.
"""

from __future__ import annotations

import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellchain import (
    ChainCurve,
    Component,
    Indecomposable,
    NodeGluing,
    SearchSpace,
    Split,
    SplitLineBundle,
    VanishingTable,
    canonical_form,
    canonical_key,
    canonical_limit_series,
    check_stable,
    construct,
    count_dimension,
    derive_forced_pairs,
    prefix_key,
    q_side,
    serialize_series,
    validate_all,
)
from helpers import BAD_FORCED_PAIRS

BASES = (construct(5, 4), construct(7, 3), construct(9, 6), canonical_limit_series(6))

# values of any type: small ints most often, so that a mutant stays close
# enough to its base to reach the later checks
ANY = st.one_of(
    st.integers(-3, 12),
    st.integers(-3, 12),
    st.floats(-3, 12),
    st.just(float("nan")),
    st.booleans(),
    st.none(),
    st.text("0123456789-mx", max_size=2),
    st.tuples(st.integers(0, 3)),
    st.lists(st.integers(0, 3), max_size=2),
)
TOKENS = st.one_of(st.sampled_from(("1", "2", "m", "x", "", "1:2")), ANY)
FORCED = st.one_of(
    st.lists(st.tuples(TOKENS, TOKENS), max_size=3).map(tuple),
    st.lists(st.tuples(st.sampled_from(("1", "2", "m"))), max_size=2).map(tuple),
    st.lists(st.tuples(st.sampled_from(("1", "2")), st.sampled_from(("1", "2"))), max_size=3),
    st.sampled_from([pairs for pairs, _ in BAD_FORCED_PAIRS.values()]),
    # values that are not a tuple, and tuples whose entries are not pairs
    ANY,
    st.lists(ANY, min_size=1, max_size=2).map(tuple),
)
BUNDLES = st.sampled_from(
    (
        SplitLineBundle(2, 6),
        Split(SplitLineBundle(1, 3), SplitLineBundle(3, 1)),
        Split(SplitLineBundle(2, 2), SplitLineBundle(2, 2)),
        Indecomposable(8, 2, 1),
    )
)


def _with(items: tuple, at: int, item) -> tuple:
    return items[:at] + (item,) + items[at + 1 :]


def _table(c: Component, rows) -> Component:
    return Component(c.bundle, VanishingTable(rows), c.moduli_freedom)


def _wrong_kinds(s) -> dict:
    """``name: (build, message)`` for each field of ``s``'s object graph
    put in of the wrong kind: ``build()`` is ``s`` with that field, which
    its constructor refuses with ``message``."""
    comps, nodes = s.components, s.nodes
    c, node, m = comps[-1], nodes[-1], len(comps)

    def component(**field):
        return replace(s, components=_with(comps, m - 1, replace(c, **field)))

    def gluing(**field):
        return replace(s, nodes=_with(nodes, m - 2, replace(node, **field)))

    bundles = "Split, Indecomposable or SplitLineBundle"
    return {
        "bundle-none": (lambda: component(bundle=None), f"bundle is a NoneType, not a {bundles}"),
        "bundle-str": (lambda: component(bundle="split"), f"bundle is a str, not a {bundles}"),
        "table-none": (lambda: component(table=None), "table is a NoneType, not a VanishingTable"),
        "table-rows": (
            lambda: component(table=c.table.rows), "table is a tuple, not a VanishingTable"
        ),
        "matching-none": (lambda: gluing(matching=None), "matching None is not a tuple of ints"),
        "matching-list": (
            lambda: gluing(matching=list(node.matching)),
            f"matching {list(node.matching)!r} is not a tuple of ints",
        ),
        "chain-none": (lambda: replace(s, chain=None), "chain is a NoneType, not a ChainCurve"),
        "component-none": (
            lambda: replace(s, components=_with(comps, m - 1, None)),
            f"component {m} is a NoneType, not a Component",
        ),
        "node-none": (
            lambda: replace(s, nodes=_with(nodes, m - 2, None)),
            f"node {m - 1} is a NoneType, not a NodeGluing",
        ),
        "component-list": (
            lambda: replace(s, components=list(comps)), "components is a list, not a tuple"
        ),
    }


@st.composite
def mutants(draw):
    """One of ``BASES`` with one or two structured edits."""
    s = draw(st.sampled_from(BASES))
    for _ in range(draw(st.integers(1, 2))):
        comps, nodes = s.components, s.nodes
        kind = draw(
            st.sampled_from(
                ("header", "chain", "entry", "rows", "matching", "forced", "moduli", "bundle",
                 "presence", "kind")
            )
        )
        if kind == "header":
            field = draw(st.sampled_from(("rank", "sections", "degree", "twist")))
            s = _returns_or_refuses(replace, s, **{field: draw(ANY)})
            if s is None:
                return None
        elif kind == "chain":
            s = replace(s, chain=ChainCurve(draw(st.integers(1, 12)), draw(st.integers(1, 12))))
        elif kind in ("entry", "rows", "moduli", "bundle") and comps:
            i = draw(st.integers(0, len(comps) - 1))
            c = comps[i]
            rows = list(c.table.rows)
            if kind == "entry" and rows:
                j = draw(st.integers(0, len(rows) - 1))
                u, v = rows[j]
                rows[j] = (draw(ANY), v) if draw(st.booleans()) else (u, draw(ANY))
                c = _returns_or_refuses(_table, c, rows)
                if c is None:
                    return None
            elif kind == "rows":
                j = draw(st.integers(0, len(rows)))
                if rows and draw(st.booleans()):
                    del rows[min(j, len(rows) - 1)]
                else:
                    rows.insert(j, rows[j - 1] if rows else (0, 0))
                c = _table(c, rows)
            elif kind == "moduli":
                c = _returns_or_refuses(replace, c, moduli_freedom=draw(ANY))
                if c is None:
                    return None
            else:
                c = replace(c, bundle=draw(BUNDLES))
            s = replace(s, components=_with(comps, i, c))
        elif kind in ("matching", "forced") and nodes:
            n = draw(st.integers(0, len(nodes) - 1))
            node = nodes[n]
            if kind == "forced":
                node = replace(node, forced_pairs=draw(FORCED))
            else:
                matching = list(node.matching)
                edit = draw(st.sampled_from(("permute", "entry", "drop", "append")))
                if edit == "permute":
                    matching = draw(st.permutations(matching))
                elif edit == "entry":
                    matching[draw(st.integers(0, len(matching) - 1))] = draw(ANY)
                elif edit == "drop":
                    matching.pop(draw(st.integers(0, len(matching) - 1)))
                else:
                    matching.append(draw(ANY))
                node = _returns_or_refuses(replace, node, matching=tuple(matching))
                if node is None:
                    return None
            s = replace(s, nodes=_with(nodes, n, node))
        elif kind == "presence" and comps:
            edit = draw(st.sampled_from(("component", "node", "both", "append")))
            i = draw(st.integers(0, len(comps) - 1))
            if edit in ("component", "both"):
                comps = comps[:i] + comps[i + 1 :]
            if edit in ("node", "both") and nodes:
                n = min(i, len(nodes) - 1)
                nodes = nodes[:n] + nodes[n + 1 :]
            if edit == "append":
                comps += (comps[i],)
                nodes += (NodeGluing(tuple(range(1, len(comps[i].table) + 1))),)
            s = replace(s, components=comps, nodes=nodes)
        elif kind == "kind" and len(comps) >= 2 and nodes:
            kinds = _wrong_kinds(s)
            build, _ = kinds[draw(st.sampled_from(sorted(kinds)))]
            s = _returns_or_refuses(build)
            if s is None:
                return None
    return s


def _returns_or_refuses(reader, *args, **kwargs):
    """``reader(*args, **kwargs)``, or ``None`` when it refuses with ``ValueError``."""
    try:
        return reader(*args, **kwargs)
    except ValueError:
        return None


@settings(derandomize=True, deadline=None, max_examples=400)
@given(mutants())
def test_every_public_reader_returns_or_refuses(s):
    if s is None:  # a constructor refused the mutant
        return
    for reader in (
        validate_all, count_dimension, check_stable, canonical_form, canonical_key,
        serialize_series,
    ):
        _returns_or_refuses(reader, s)
    _returns_or_refuses(prefix_key, s, 2)
    sides = [_returns_or_refuses(q_side, c) for c in s.components]
    for left_q, right, node in zip(sides, s.components[1:], s.nodes):
        if left_q is not None:
            _returns_or_refuses(derive_forced_pairs, left_q, right, node.matching, s.twist)


@pytest.mark.parametrize(
    "build, args, field, value",
    [
        (construct, (40.0, 4), "g", 40.0),
        (construct, (True, 4), "g", True),
        (construct, (40, 4.0), "k", 4.0),
        (construct, (40, "4"), "k", "4"),
        (canonical_limit_series, (6.0,), "g", 6.0),
        (canonical_limit_series, (None,), "g", None),
        (SearchSpace, (5.0, 2, 4), "g", 5.0),
        (SearchSpace, (5, True, 4), "rank", True),
        (SearchSpace, (5, 2, 4.0), "k", 4.0),
        (SearchSpace, (5, 2, 4, 2.0), "prefix_length", 2.0),
        (SearchSpace, (5, 2, 4, False), "prefix_length", False),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_non_int_argument_refused(build, args, field, value):
    # refused by type before any range check or any work, bool included
    with pytest.raises(ValueError, match=f"^{field} {re.escape(repr(value))} is not an int$"):
        build(*args)


@pytest.mark.parametrize("base", BASES, ids=["g5k4", "g7k3", "g9k6", "rank1g6"])
@pytest.mark.parametrize("name", sorted(_wrong_kinds(BASES[0])))
def test_wrong_kind_refused_when_built(name, base):
    # built, such a field escapes the readers as an AttributeError or a
    # TypeError; the constructors refuse it first, dataclasses.replace too
    build, message = _wrong_kinds(base)[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()

"""Shared test utilities: series surgery for mutation testing and the shift S."""

from __future__ import annotations

from dataclasses import replace

from ellchain import (
    Component,
    Indecomposable,
    LimitSeries,
    Split,
    SplitLineBundle,
    VanishingTable,
)


def mutate_entry(
    s: LimitSeries, comp_index: int, row_index: int, which: str, delta: int
) -> LimitSeries:
    """Return a copy of ``s`` with one table entry changed by ``delta``.

    ``comp_index`` and ``row_index`` are 0-based; ``which`` is "u" or "v".
    """
    comp = s.components[comp_index]
    rows = list(comp.table.rows)
    u, v = rows[row_index]
    rows[row_index] = (u + delta, v) if which == "u" else (u, v + delta)
    new_comp = Component(comp.bundle, VanishingTable(rows), comp.moduli_freedom)
    comps = list(s.components)
    comps[comp_index] = new_comp
    return replace(s, components=tuple(comps))


# forced pairs that no node may carry, each with the reason the forced-pair
# rule gives
BAD_FORCED_PAIRS = {
    "letters": ((("x", "y"),), "forced pair ('x', 'y') is not two direction tokens from 1, 2, m"),
    "triple": (
        (("1", "2", "3"),),
        "forced pair ('1', '2', '3') is not two direction tokens from 1, 2, m",
    ),
    "ints": (((1, 2),), "forced pair (1, 2) is not two direction tokens from 1, 2, m"),
    "one-direction-two-images": (
        (("1", "2"), ("1", "1")),
        "inconsistent forced directions: 1->1 conflicts with 1->2",
    ),
    "two-directions-one-image": (
        (("1", "1"), ("2", "1")),
        "inconsistent forced directions: 2->1 conflicts with 1->1",
    ),
    "pair-twice": ((("1", "2"), ("1", "2")), "forced pair 1->2 listed twice"),
    "three-pairs": (
        (("1", "2"), ("2", "1"), ("m", "m")),
        "more than two forced direction pairs: [('1', '2'), ('2', '1'), ('m', 'm')]",
    ),
}


def shifted(c: Component, n: int = 1) -> Component:
    """S**n of one rank-two component.

    S adds 1 to every row's v, every summand's q and an indecomposable's
    marked v, and 2 to an indecomposable's degree; it keeps every u, p and
    marked u.
    """
    b = c.bundle
    if isinstance(b, Indecomposable):
        bundle = Indecomposable(b.degree + 2 * n, b.marked_u, b.marked_v + n)
    else:
        bundle = Split(
            SplitLineBundle(b.first.p, b.first.q + n), SplitLineBundle(b.second.p, b.second.q + n)
        )
    rows = VanishingTable([(u, v + n) for u, v in c.table.rows])
    return Component(bundle, rows, c.moduli_freedom)


def with_forced_pairs(s: LimitSeries, node_index: int, pairs) -> LimitSeries:
    """Return a copy of ``s`` whose node ``node_index`` (0-based) carries ``pairs``."""
    nodes = list(s.nodes)
    nodes[node_index] = replace(nodes[node_index], forced_pairs=pairs)
    return replace(s, nodes=tuple(nodes))


def all_entries(s: LimitSeries):
    """Every (comp_index, row_index, which) coordinate of a series."""
    for ci, comp in enumerate(s.components):
        for ri in range(len(comp.table)):
            yield ci, ri, "u"
            yield ci, ri, "v"


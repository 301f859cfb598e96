"""Shared test utilities: series surgery for mutation testing, a stand-in pool."""

from __future__ import annotations

from dataclasses import replace

from ellchain import Component, LimitSeries, VanishingTable


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


def all_entries(s: LimitSeries):
    """Every (comp_index, row_index, which) coordinate of a series."""
    for ci, comp in enumerate(s.components):
        for ri in range(len(comp.table)):
            yield ci, ri, "u"
            yield ci, ri, "v"


def recording_pool(sizes: list):
    """A ``ProcessPoolExecutor`` stand-in that maps in process.

    Each pool appends its ``max_workers`` to ``sizes``, so a test can check
    how many processes a real pool would have forked without forking any.
    """

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    return Pool

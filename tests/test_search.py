import hashlib
from dataclasses import replace

import pytest

from ellchain import search
from ellchain import (
    SearchCapError,
    SearchSpace,
    canonical_form,
    canonical_key,
    canonical_limit_series,
    construct,
    construct_even,
    construct_odd,
    enumerate_series,
    parse_series,
    prefix_key,
)


class TestCanonicalForm:
    def test_idempotent_on_constructions(self):
        for s in (construct_even(9, 4), construct_odd(7, 3), canonical_limit_series(6)):
            once = canonical_form(s)
            assert canonical_form(once) == once

    def test_constructions_already_canonical(self):
        for s in (construct_even(12, 6), construct_odd(8, 5)):
            assert canonical_form(s) == s

    def test_summand_swap_collapses(self):
        s = construct_even(9, 4)
        from dataclasses import replace

        from ellchain import Component, NodeGluing, derive_forced_pairs

        comps = list(s.components)
        c = comps[1]
        comps[1] = Component(c.bundle.swapped(), c.table, c.moduli_freedom)
        # rebuild node data coherently with the swapped summand order
        nodes = tuple(
            NodeGluing(
                node.matching,
                derive_forced_pairs(comps[n], comps[n + 1], node.matching, s.twist),
            )
            for n, node in enumerate(s.nodes)
        )
        swapped = replace(s, components=tuple(comps), nodes=nodes)
        assert swapped != s
        assert canonical_key(swapped) == canonical_key(s)

    def test_row_relabeling_collapses(self):
        s = construct_even(9, 4)
        from dataclasses import replace

        from ellchain import Component, NodeGluing, VanishingTable

        comps = list(s.components)
        rows = list(comps[0].table.rows)
        rows[0], rows[1] = rows[1], rows[0]  # equal rows: relabeling only
        comps[0] = Component(comps[0].bundle, VanishingTable(rows), 0)
        shuffled = replace(s, components=tuple(comps))
        assert canonical_key(shuffled) == canonical_key(s)


    @pytest.mark.parametrize(
        "key", [canonical_key, lambda s: prefix_key(s, 2)], ids=["canonical", "prefix"]
    )
    @pytest.mark.parametrize("matching", [(1, 2, 3, 9), (1, 1, 2, 3)])
    def test_non_permutation_matching_refused(self, key, matching):
        s = construct(5, 4)
        nodes = (replace(s.nodes[0], matching=matching),) + s.nodes[1:]
        with pytest.raises(ValueError, match=r"node 1: matching .* not a bijection"):
            key(replace(s, nodes=nodes))


class TestRankOneUniqueness:
    @pytest.mark.parametrize("g", range(2, 11))
    def test_unique_and_equal_to_canonical_series(self, g):
        report = enumerate_series(SearchSpace(g, 1, g))
        assert report.count == 1
        assert report.solutions[0] == canonical_key(canonical_limit_series(g))


class TestRankTwoMembership:
    @pytest.mark.parametrize("g,k", [(3, 2), (4, 2), (5, 4), (6, 4)])
    def test_even_constructions_found(self, g, k):
        report = enumerate_series(SearchSpace(g, 2, k))
        assert canonical_key(construct_even(g, k)) in report.solutions
        assert report.count == len(report.solutions)

    def test_odd_prefix_found(self):
        s = construct_odd(7, 3)
        report = enumerate_series(SearchSpace(7, 2, 3, prefix_length=2))
        assert prefix_key(s, 2) in report.solutions


class TestSearchMechanics:
    def test_prune_soundness_small_instances(self):
        # slow-mode (tables expanded, pruned (capacity)) of the depth-first
        # search the memoized transfer step replaced
        slow_counters = {
            (3, 2, 2): (96, 0),
            (4, 2, 2): (1034, 0),
            (4, 2, 4): (44, 0),
            (3, 1, 3): (32, 0),
            (4, 1, 4): (504, 503),
        }
        for (g, r, k), (expanded, capacity) in slow_counters.items():
            fast = enumerate_series(SearchSpace(g, r, k))
            slow = enumerate_series(SearchSpace(g, r, k), disable_pruning=True)
            assert fast.count == slow.count, (g, r, k)
            assert fast.solutions == slow.solutions
            assert slow.nodes_expanded == expanded, (g, r, k)
            assert slow.pruned == (("capacity", capacity), ("direction-conflict", 0))

    def test_worker_determinism(self):
        # workers= is accepted and has no effect on the search: every
        # value must give the same report
        cases = [
            (SearchSpace(5, 2, 4), False),
            (SearchSpace(6, 2, 4, prefix_length=3), False),
            (SearchSpace(8, 1, 8), False),
            (SearchSpace(4, 2, 2), True),
        ]
        for space, slow in cases:
            one = enumerate_series(space, workers=1, disable_pruning=slow)
            two = enumerate_series(space, workers=2, disable_pruning=slow)
            three = enumerate_series(space, workers=3, disable_pruning=slow)
            assert one.count == two.count == three.count, space
            assert one.solutions == two.solutions == three.solutions, space
            assert one.nodes_expanded == two.nodes_expanded == three.nodes_expanded, space
            assert one.pruned == two.pruned == three.pruned, space

    def test_repeat_run_determinism(self):
        space = SearchSpace(6, 2, 4)
        a = enumerate_series(space)
        b = enumerate_series(space)
        assert a.count == b.count and a.solutions == b.solutions

    def test_limit_truncates_solutions_not_count(self):
        space = SearchSpace(4, 2, 2)
        full = enumerate_series(space)
        capped = enumerate_series(space, limit=5)
        assert capped.count == full.count
        assert capped.truncated
        assert capped.solutions == full.solutions[:5]

    def test_cap_refusal_and_override(self):
        with pytest.raises(SearchCapError, match="cap="):
            enumerate_series(SearchSpace(9, 2, 2))
        with pytest.raises(SearchCapError):
            enumerate_series(SearchSpace(11, 1, 11))
        report = enumerate_series(SearchSpace(5, 2, 4), cap=5)
        assert report.count > 0

    def test_solutions_validate(self):
        # spot-check that emitted keys parse back into validating series
        from ellchain import validate_all

        report = enumerate_series(SearchSpace(4, 2, 4))
        assert report.count >= 1
        for key in report.solutions:
            assert validate_all(parse_series(key)).all_passed

    def test_below_threshold_even_is_forced(self):
        # at (4, 4) the ansatz admits exactly the one forced configuration
        report = enumerate_series(SearchSpace(4, 2, 4))
        assert report.count == 1
        assert report.solutions[0] == canonical_key(construct_even(4, 4, force=True))


# Counters and solution hashes of the depth-first search the memoized
# transfer step replaced: (g, rank, k, prefix, cap) -> (count, tables
# expanded, pruned (capacity), pruned (direction-conflict), the first 16
# hex digits of sha256 over the concatenated solution keys).
GOLDEN = {
    (4, 2, 2, None, None): (675, 1034, 0, 0, "f29f66658ad39d2d"),
    (5, 2, 4, None, None): (65, 222, 676, 0, "701b49d18a6eeaa1"),
    (6, 2, 4, None, None): (3344, 9804, 27372, 0, "e40d5a5d6b72d346"),
    (7, 2, 5, None, None): (26, 162, 2061, 0, "6458bfdbe857dc81"),
    (8, 2, 3, 2, None): (3366, 3475, 1, 0, "6550647febbf2302"),
    (6, 2, 4, 3, None): (6534, 7860, 2290, 0, "2ca4a5885225ef4c"),
    (9, 2, 6, None, 9): (8, 44, 794, 0, "9689d138e3153206"),
    (11, 1, 11, None, 11): (1, 13232, 833972, 0, "3c5c1aa52ad6dd1b"),
    (12, 1, 12, None, 12): (1, 48928, 4040099, 0, "064df7afa907387d"),
    (5, 2, 3, None, None): (2521, 5272, 1947, 0, "0802fd14fea3c0e5"),
    (10, 2, 6, None, 10): (2588, 17375, 476459, 0, "5af1c9b8843aec8d"),
}


def _digest(report) -> str:
    return hashlib.sha256("".join(report.solutions).encode()).hexdigest()[:16]


class TestGoldenCounters:
    @pytest.mark.parametrize("case", sorted(GOLDEN, key=str), ids=str)
    def test_counters_match_depth_first_search(self, case):
        g, r, k, prefix, cap = case
        report = enumerate_series(SearchSpace(g, r, k, prefix_length=prefix), cap=cap)
        pruned = dict(report.pruned)
        got = (
            report.count,
            report.nodes_expanded,
            pruned["capacity"],
            pruned["direction-conflict"],
            _digest(report),
        )
        assert got == GOLDEN[case]
        assert len(report.solutions) == report.count
        if prefix is None:
            # leaves are keyed without a canonical_form pass, so each key
            # must already be the canonical key of the series it encodes
            for key in report.solutions:
                assert canonical_key(parse_series(key)) == key


@pytest.mark.parametrize("g,k", [(g, k) for g in range(2, 8) for k in range(1, g)])
def test_rank_one_below_k_equals_g_refused_before_any_table(monkeypatch, g, k):
    def no_tables(*args):
        raise AssertionError("a table option was generated")

    monkeypatch.setattr(search, "_table_options", no_tables)
    with pytest.raises(ValueError, match="k >= g"):
        enumerate_series(SearchSpace(g, 1, k))


def test_rank_one_above_k_equals_g_accepted():
    assert enumerate_series(SearchSpace(3, 1, 4)).count == 0


def test_oracle_defect_guard_fires():
    # enumerate_series refuses rank 1 with k < g; driven directly, the
    # transfer step reaches (4, 1, 3) leaves that fail the
    # canonical-determinant check, and the full-chain guard must raise
    space = SearchSpace(4, 1, 3)
    firsts, _ = search._table_options(
        space, 1, (0,) * space.k, search._min_vsum_needed(space, 1)
    )
    transfer = search._Transfer(space, False)
    with pytest.raises(RuntimeError, match="oracle defect"):
        for first in firsts:
            transfer.run(first)


class _ComponentKeyedTransfer(search._Transfer):
    """The transfer step keyed by the whole previous component."""

    def state(self, idx, prev):
        if idx > self.space.length:
            return search._LEAF
        key = (idx, prev)
        found = self.memo.get(key)
        if found is None:
            found = self.memo[key] = self._expand(idx, prev)
        return found


def _run_with(monkeypatch, transfer_cls, space, slow):
    made = []

    class Recording(transfer_cls):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(search, "_Transfer", Recording)
    report = enumerate_series(space, disable_pruning=slow, cap=space.g)
    (transfer,) = made
    return report, len(transfer.memo)


@pytest.mark.parametrize(
    "space,slow",
    [
        (SearchSpace(4, 2, 2), False),
        (SearchSpace(5, 2, 4), False),
        (SearchSpace(6, 2, 4, prefix_length=3), False),
        (SearchSpace(8, 1, 8), False),
        (SearchSpace(11, 1, 11), False),
        (SearchSpace(4, 2, 2), True),
    ],
    ids=str,
)
def test_memo_key_matches_whole_component_key(monkeypatch, space, slow):
    # the memo is keyed by the previous v-column and Q-side directions;
    # keying by the whole previous component must give the same report
    ours, our_states = _run_with(monkeypatch, search._Transfer, space, slow)
    theirs, their_states = _run_with(monkeypatch, _ComponentKeyedTransfer, space, slow)
    assert ours.count == theirs.count
    assert ours.nodes_expanded == theirs.nodes_expanded
    assert ours.pruned == theirs.pruned
    assert ours.solutions == theirs.solutions
    assert our_states <= their_states
    if space == SearchSpace(11, 1, 11):
        assert our_states < their_states

import gc
import hashlib
import re
from dataclasses import replace

import pytest

from ellchain import search
from ellchain.cli import main
from ellchain import (
    Component,
    LimitSeries,
    SearchCapError,
    SearchSpace,
    Split,
    SplitLineBundle,
    VanishingTable,
    canonical_form,
    canonical_key,
    canonical_limit_series,
    canonical_restriction,
    construct,
    construct_even,
    construct_odd,
    derive_forced_pairs,
    enumerate_series,
    parse_series,
    prefix_key,
    q_side,
    serialize_series,
    validate_all,
)
from ellchain.series import component_block, free_split, node_line, series_failures, series_head
from helpers import BAD_FORCED_PAIRS, with_forced_pairs


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

        from ellchain import Component, NodeGluing, derive_forced_pairs, q_side

        comps = list(s.components)
        c = comps[1]
        comps[1] = Component(c.bundle.swapped(), c.table, c.moduli_freedom)
        # rebuild node data coherently with the swapped summand order
        nodes = tuple(
            NodeGluing(
                node.matching,
                derive_forced_pairs(q_side(comps[n]), comps[n + 1], node.matching, s.twist),
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

    def test_identical_row_swaps_keep_the_key(self):
        # swapping two adjacent matching entries whose left rows, or whose
        # right rows, are identical pairs the same row values: one series;
        # when both differ, the matched row values change: another series
        same = other = 0
        for g, k in ((9, 4), (12, 6), (8, 5), (7, 3), (20, 7)):
            s = construct(g, k)
            key = canonical_key(s)
            for n, node in enumerate(s.nodes):
                left, right = s.components[n].table.rows, s.components[n + 1].table.rows
                for t in range(k - 1):
                    m = list(node.matching)
                    identical = left[t] == left[t + 1] or right[m[t] - 1] == right[m[t + 1] - 1]
                    m[t], m[t + 1] = m[t + 1], m[t]
                    nodes = s.nodes[:n] + (replace(node, matching=tuple(m)),) + s.nodes[n + 1 :]
                    swapped = replace(s, nodes=nodes)
                    once = canonical_form(swapped)
                    assert canonical_form(once) == once
                    if identical:
                        assert canonical_key(swapped) == key
                        same += 1
                    else:
                        assert canonical_key(swapped) != key
                        other += 1
        assert (same, other) == (102, 131)

    @pytest.mark.parametrize("seed", range(5))
    def test_row_permutations_with_matchings_keep_the_key(self, seed):
        # permute every component's rows, distinct ones included, and carry
        # each matching along: the same series in other row labels
        import random

        from ellchain import Component, VanishingTable

        rng = random.Random(seed)
        for g, k in ((9, 4), (8, 5), (20, 7)):
            s = construct(g, k)
            perms = [rng.sample(range(k), k) for _ in s.components]  # old row j -> perm[j]
            comps = []
            for c, perm in zip(s.components, perms):
                rows = [None] * k
                for j, row in enumerate(c.table.rows):
                    rows[perm[j]] = row
                comps.append(Component(c.bundle, VanishingTable(rows), c.moduli_freedom))
            nodes = []
            for n, node in enumerate(s.nodes):
                m = [None] * k
                for t, t2 in enumerate(node.matching):
                    m[perms[n][t]] = perms[n + 1][t2 - 1] + 1
                nodes.append(replace(node, matching=tuple(m)))
            relabeled = replace(s, components=tuple(comps), nodes=tuple(nodes))
            assert [c.table.rows for c in comps] != [c.table.rows for c in s.components]
            assert canonical_key(relabeled) == canonical_key(s)
            assert canonical_form(relabeled) == s

    @pytest.mark.parametrize(
        "key", [canonical_key, lambda s: prefix_key(s, 2)], ids=["canonical", "prefix"]
    )
    @pytest.mark.parametrize(
        "matching",
        [(1, 2, 3, 9), (1, 1, 2, 3), (1, 2, 3.0, 4), (2, 1, 3.0, 4), (1, "2", 3, 4), (True, 2, 3, 4)],
    )
    def test_non_permutation_matching_refused(self, key, matching):
        s = construct(5, 4)
        nodes = (replace(s.nodes[0], matching=matching),) + s.nodes[1:]
        with pytest.raises(ValueError, match=r"node 1: matching .* not a bijection"):
            key(replace(s, nodes=nodes))

    @pytest.mark.parametrize(
        "key", [canonical_key, lambda s: prefix_key(s, 2)], ids=["canonical", "prefix"]
    )
    @pytest.mark.parametrize(
        "rows, message",
        [
            (((0, 3), (1, 3), (2, 1)), "component 3: 3 rows, expected 4"),
            (((0, 3), (1, 3), (2, 1), (3, 1), (5, 0)), "component 3: 5 rows, expected 4"),
            # a table entry that is not an int is refused by the table's
            # constructor, before any key is asked for
            (((0, 3), (1, 3), (2.0, 1), (3, 1)), "row 3: non-integer vanishing (2.0,1)"),
            (((0, 3), (1, 3), (2, "1"), (3, 1)), "row 3: non-integer vanishing (2,'1')"),
        ],
        ids=["short", "long", "float", "str"],
    )
    def test_bad_table_refused(self, key, rows, message):
        from ellchain import Component, VanishingTable

        s = construct(5, 4)
        c = s.components[2]
        comps = list(s.components)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            comps[2] = Component(c.bundle, VanishingTable(rows), c.moduli_freedom)
            key(replace(s, components=tuple(comps)))

    @pytest.mark.parametrize(
        "key", [canonical_key, lambda s: prefix_key(s, 2)], ids=["canonical", "prefix"]
    )
    @pytest.mark.parametrize(
        "reshape, message",
        [
            (lambda s: replace(s, nodes=s.nodes + s.nodes[-1:]), "5 nodes on 5 components"),
            (lambda s: replace(s, components=s.components[:-1]), "4 nodes on 4 components"),
        ],
        ids=["extra-node", "dropped-component"],
    )
    def test_wrong_node_count_refused(self, key, reshape, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            key(reshape(construct(5, 4)))

    @pytest.mark.parametrize(
        "key", [canonical_key, lambda s: prefix_key(s, 2)], ids=["canonical", "prefix"]
    )
    @pytest.mark.parametrize(
        "pairs, why", BAD_FORCED_PAIRS.values(), ids=list(BAD_FORCED_PAIRS)
    )
    def test_bad_forced_pairs_refused(self, key, pairs, why):
        with pytest.raises(ValueError, match=f"^node 1: {re.escape(why)}$"):
            key(with_forced_pairs(construct(5, 4), 0, pairs))


    @pytest.mark.parametrize(
        "key", [canonical_key, lambda s: prefix_key(s, 2)], ids=["canonical", "prefix"]
    )
    @pytest.mark.parametrize(
        "field, value",
        [
            ("sections", (1,)),
            ("sections", 1.0),
            ("sections", None),
            ("sections", True),
            ("rank", None),
            ("twist", None),
            ("degree", "1"),
        ],
    )
    def test_non_int_header_refused(self, key, field, value):
        # the header's type check of validate_all, before any field is read
        with pytest.raises(ValueError, match=f"^{field} {re.escape(repr(value))} is not an int$"):
            key(replace(construct(5, 4), **{field: value}))


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

    def test_repeat_run_determinism(self):
        # every report field but the wall time is the same on every run
        cases = [
            (SearchSpace(5, 2, 4), False),
            (SearchSpace(6, 2, 4), False),
            (SearchSpace(6, 2, 4, prefix_length=3), False),
            (SearchSpace(8, 1, 8), False),
            (SearchSpace(4, 2, 2), True),
        ]
        for space, slow in cases:
            runs = [
                replace(enumerate_series(space, disable_pruning=slow), wall_time=0.0)
                for _ in range(3)
            ]
            assert runs[0] == runs[1] == runs[2], space

    def test_worker_determinism(self, capsys):
        # `search --workers` is accepted and changes nothing: every worker
        # count prints the library report, wall time aside
        cases = [
            (SearchSpace(5, 2, 4), ["--g", "5", "--k", "4"]),
            (SearchSpace(6, 2, 4, prefix_length=3), ["--g", "6", "--k", "4", "--prefix", "3"]),
            (SearchSpace(8, 1, 8), ["--g", "8", "--k", "8", "--r", "1"]),
        ]
        for space, argv in cases:
            expected = enumerate_series(space).summary_lines()[:-1]
            for workers in ("1", "2", "3"):
                assert main(["search", *argv, "--workers", workers]) == 0
                lines = capsys.readouterr().out.splitlines()
                assert lines[-1].startswith("wall time:"), (space, workers)
                assert lines[:-1] == expected, (space, workers)

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
        report = enumerate_series(SearchSpace(4, 2, 4))
        assert report.count >= 1
        for key in report.solutions:
            assert validate_all(parse_series(key)).all_passed

    def test_below_threshold_even_is_forced(self):
        # at (4, 4) the ansatz admits exactly the one forced configuration
        report = enumerate_series(SearchSpace(4, 2, 4))
        assert report.count == 1
        assert report.solutions[0] == canonical_key(construct_even(4, 4, force=True))

    def test_direction_conflict_prunes_the_option(self):
        # no search of the splits-only ansatz reaches a conflict (GOLDEN reads
        # 0), so the step is handed a left side by hand: both rows pinned to
        # summand 1 at Q, and the option ((1,1),(2,1)) pins them to summand 2
        # and 1 at P, which one fiber isomorphism cannot do
        space = SearchSpace(4, 2, 2)
        left_q = ((2, "1"), (1, "1"))
        options, _ = search._table_options(space, 2, (1, 2), search._min_vsum_needed(space, 2), {})
        (clash,) = [o.comp for o in options if o.comp.table.rows == ((1, 1), (2, 1))]
        with pytest.raises(ValueError, match="1->2 conflicts with 1->1"):
            derive_forced_pairs(left_q, clash, (1, 2), space.a)
        state = search._Transfer(space, False)._expand(2, left_q)
        assert state.direction_conflict == 1
        assert state.count > 0
        assert clash not in [opt.comp for opt, *_ in state.edges]


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
    # walk shapes the rows above lack, read off the memoized search: a
    # one-row table, whose first row is its last, and a one-component prefix
    (5, 2, 1, None, None): (305, 587, 0, 0, "5305ef19a03c7439"),
    (7, 2, 2, 1, None): (28, 28, 0, 0, "765dca1959557d8f"),
    # the oracle_dense cells no row above pins, read off the memoized search
    (4, 2, 3, None, None): (99, 222, 80, 0, "89e288f6b4938571"),
    (6, 2, 3, 2, None): (668, 715, 1, 0, "231df6e1653f2090"),
    (7, 2, 3, 2, None): (1601, 1675, 1, 0, "78e8e4115af0dbb7"),
    (7, 2, 4, 2, None): (4716, 4864, 174, 0, "b02b8d0da1b86fb9"),
    (8, 2, 4, 2, None): (13529, 13780, 283, 0, "36df71729cf0f16c"),
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


@pytest.fixture
def no_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("a table option was generated")

    monkeypatch.setattr(search, "_table_options", refuse)


@pytest.mark.parametrize("g,k", [(g, k) for g in range(2, 8) for k in range(1, g)])
def test_rank_one_below_k_equals_g_refused_before_any_table(no_tables, g, k):
    with pytest.raises(ValueError, match="k >= g"):
        enumerate_series(SearchSpace(g, 1, k))


@pytest.mark.parametrize("g,prefix", [(2, 1), (4, 2), (6, 2)])
def test_rank_one_prefix_refused_before_any_table(no_tables, g, prefix):
    # prefix leaves are never validated, and rank-1 tables admit
    # non-canonical line bundles: (2, 1, 2, p1) would report 3 prefixes
    # where only 1 has the canonical line bundle
    with pytest.raises(ValueError, match="rank-1 search takes no prefix"):
        enumerate_series(SearchSpace(g, 1, g, prefix_length=prefix))


def test_rank_one_above_k_equals_g_accepted():
    assert enumerate_series(SearchSpace(3, 1, 4)).count == 0


def test_oracle_defect_guard_fires():
    # enumerate_series refuses rank 1 with k < g; driven directly, the
    # transfer step reaches (4, 1, 3) components that fail the
    # canonical-determinant check, and the full-chain guard must raise
    with pytest.raises(RuntimeError, match="oracle defect: .*canonical-determinant"):
        search._Transfer(SearchSpace(4, 1, 3), False).run()


@pytest.mark.parametrize(
    "corrupt, check",
    [
        (lambda m, f: (m[:1] + m[:-1], f), "node-condition: node 4: matching .* not a bijection"),
        (lambda m, f: (m, (("1", "2"), ("1", "2"))), "structure: node 4: forced pair 1->2 listed twice"),
    ],
    ids=["matching", "forced-pairs"],
)
def test_oracle_defect_guard_fires_on_a_node(monkeypatch, corrupt, check):
    # the first gluing the step keeps is node 4, into the last component
    # of (5, 2, 4); corrupted, the node's unit must fail it
    class CorruptFirstGluing(search.NodeGluing):
        made = 0

        def __init__(self, matching, forced_pairs):
            if not CorruptFirstGluing.made:
                matching, forced_pairs = corrupt(matching, forced_pairs)
            CorruptFirstGluing.made += 1
            super().__init__(matching, forced_pairs)

    monkeypatch.setattr(search, "NodeGluing", CorruptFirstGluing)
    transfer = search._Transfer(SearchSpace(5, 2, 4), False)
    failures = []
    monkeypatch.setattr(transfer, "_guard", lambda items: failures.extend(items))
    transfer.run()
    assert re.fullmatch(check, ": ".join(failures[0]))
    name = check.split(":")[0]
    monkeypatch.setattr(CorruptFirstGluing, "made", 0)
    with pytest.raises(RuntimeError, match=f"^oracle defect: .*: {name}$"):
        search._Transfer(SearchSpace(5, 2, 4), False).run()


class _WrongDegreeTransfer(search._Transfer):
    """The transfer step with a degree one off in its series parameters."""

    def __init__(self, *args):
        super().__init__(*args)
        rank, k, d, a = self.params
        self.params = (rank, k, d + 1, a)


def test_oracle_defect_guard_fires_on_the_series(monkeypatch):
    # no component or node reads the degree; only the leaf's series unit
    # sees the sum fail
    with pytest.raises(RuntimeError, match="^oracle defect: .*: degree-condition$"):
        _run_with(monkeypatch, _WrongDegreeTransfer, SearchSpace(5, 2, 4), False)


def test_prefix_search_builds_no_series_and_runs_no_unit(monkeypatch):
    def refuse(*args):
        raise AssertionError("a unit ran on a prefix search")

    class HeadOnly(LimitSeries):
        def __init__(self, chain, *args):
            assert not args[-2], "a prefix leaf was built as a series"
            super().__init__(chain, *args)

    for unit in ("component_failures", "node_failures", "series_failures"):
        monkeypatch.setattr(search, unit, refuse)
    monkeypatch.setattr(search, "LimitSeries", HeadOnly)
    report = enumerate_series(SearchSpace(6, 2, 4, prefix_length=3))
    assert (report.count, _digest(report)) == (6534, "2ca4a5885225ef4c")


class _ComponentKeyedTransfer(search._Transfer):
    """The transfer step keyed by the whole previous component."""

    def state(self, idx, prev):
        key = (idx, prev.comp)
        found = self.memo.get(key)
        if found is None:
            found = self.memo[key] = self._expand(idx, q_side(prev.comp))
        return found


class _MemoFreeTransfer(search._Transfer):
    """The transfer step with no memo: every path is expanded anew."""

    expansions = 0

    def state(self, idx, prev):
        return self._expand(idx, q_side(prev.comp))

    def _expand(self, idx, left_q):
        self.expansions += 1
        return super()._expand(idx, left_q)


def _run_with(monkeypatch, transfer_cls, space, slow):
    made = []

    class Recording(transfer_cls):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(search, "_Transfer", Recording)
    report = enumerate_series(space, disable_pruning=slow, cap=space.g)
    (transfer,) = made
    return replace(report, wall_time=0.0), transfer


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
    # the memo is keyed by (index, q_side(previous)); keying by the whole
    # previous component, or expanding every path anew, must give the same
    # count, counters and solution keys
    ours, shipped = _run_with(monkeypatch, search._Transfer, space, slow)
    keyed_report, keyed = _run_with(monkeypatch, _ComponentKeyedTransfer, space, slow)
    fresh_report, fresh = _run_with(monkeypatch, _MemoFreeTransfer, space, slow)
    assert ours == keyed_report == fresh_report
    assert len(shipped.memo) <= len(keyed.memo)
    assert not fresh.memo
    if space == SearchSpace(11, 1, 11):
        assert len(shipped.memo) < len(keyed.memo)
        assert len(shipped.memo) < fresh.expansions


def _leaves(state, comps, nodes):
    """The components and nodes of each leaf below ``state``, in key order."""
    if state is search._LEAF:
        yield comps, nodes
        return
    for opt, node, _, child in state.edges:
        yield from _leaves(child, comps + (opt.comp,), nodes + (node,))


def _root_leaves(root):
    """The components and nodes of each leaf below the root, in key order;
    the root's edges carry no node, so each leaf's first is dropped."""
    for comps, nodes in _leaves(root, (), ()):
        yield comps, nodes[1:]


class _SeriesKeyedTransfer(search._Transfer):
    """The transfer step that rebuilds every leaf and keys it with
    ``serialize_series``, ignoring the per-edge texts."""

    def run(self):
        root, _ = super().run()
        prefix = self.space.prefix_length
        keys = []
        for comps, nodes in _root_leaves(root):
            leaf = LimitSeries(self.chain, *self.params, comps, nodes)
            if prefix is None:
                assert validate_all(leaf).all_passed
            keys.append(("" if prefix is None else f"prefix {prefix}\n") + serialize_series(leaf))
        return root, keys


@pytest.mark.parametrize(
    "space,slow",
    [
        (SearchSpace(4, 2, 2), False),
        (SearchSpace(5, 2, 4), False),
        (SearchSpace(6, 2, 4, prefix_length=3), False),
        (SearchSpace(7, 2, 4, prefix_length=2), False),
        (SearchSpace(8, 1, 8), False),
        (SearchSpace(4, 2, 2), True),
    ],
    ids=str,
)
def test_per_edge_keys_match_serialized_leaves(monkeypatch, space, slow):
    # keys assembled from the texts rendered once per edge must equal the
    # serialized leaves, in the same order, with the same count and counters
    ours, _ = _run_with(monkeypatch, search._Transfer, space, slow)
    rebuilt, _ = _run_with(monkeypatch, _SeriesKeyedTransfer, space, slow)
    assert ours.count == len(ours.solutions) > 0
    assert ours == rebuilt


@pytest.mark.parametrize(
    "series",
    [construct(9, 4), construct(7, 3), canonical_limit_series(6)],
    ids=["g9k4", "g7k3", "rank1g6"],
)
def test_serialize_is_head_blocks_and_node_lines(series):
    blocks = [component_block(i, c) for i, c in enumerate(series.components, start=1)]
    lines = [node_line(n, node) for n, node in enumerate(series.nodes, start=1)]
    assert serialize_series(series) == series_head(series) + "".join(blocks) + "".join(lines)


class _LeafValidatedTransfer(search._Transfer):
    """The transfer step with no guard that raises: every full-chain leaf
    is checked by ``validate_all`` instead, as before the guard moved to
    the edges.  ``verdicts`` holds, per leaf, the edge guard's verdict on
    its path (``edge_failures`` of each component and the node into it,
    each on a fresh option, then ``series_failures``) and
    ``validate_all``'s."""

    def __init__(self, *args):
        super().__init__(*args)
        self.verdicts = []

    def _guard(self, failures):
        pass

    def run(self):
        root, keys = super().run()
        if self.space.prefix_length is None:
            for comps, nodes in _root_leaves(root):
                leaf = LimitSeries(self.chain, *self.params, comps, nodes)
                units = [self.edge_failures(search._Option(1, comps[0]), (), None)]
                units += [
                    self.edge_failures(
                        search._Option(i, comps[i - 1]), q_side(comps[i - 2]), nodes[i - 2]
                    )
                    for i in range(2, len(comps) + 1)
                ]
                units.append(series_failures(leaf))
                self.verdicts.append((not any(units), validate_all(leaf).all_passed))
        return root, keys


# the benchmark's oracle_dense cells, as (g, k, prefix) at rank 2
_DENSE = [
    SearchSpace(g, 2, k, prefix_length=p)
    for g, k, p in (
        (4, 2, None), (4, 3, None), (5, 3, None), (5, 4, None), (6, 4, None), (7, 5, None),
        (6, 3, 2), (7, 3, 2), (8, 3, 2), (7, 4, 2), (8, 4, 2), (6, 4, 3),
    )
]
_FULL_CHAIN = {SearchSpace(g, r, k) for g, r, k, prefix, _ in GOLDEN if prefix is None}
_FULL_CHAIN |= {space for space in _DENSE if space.prefix_length is None}


@pytest.mark.parametrize(
    "space,slow",
    [(space, False) for space in sorted(_FULL_CHAIN, key=str)] + [(SearchSpace(4, 2, 2), True)],
    ids=str,
)
def test_edge_guard_agrees_with_whole_leaf_check(monkeypatch, space, slow):
    # the guard checks each kept component and node once, not once per
    # leaf; on every leaf its verdict must be validate_all's, and the
    # search must report what the whole-leaf check lets through
    ours, _ = _run_with(monkeypatch, search._Transfer, space, slow)
    checked, transfer = _run_with(monkeypatch, _LeafValidatedTransfer, space, slow)
    assert ours == checked
    assert len(transfer.verdicts) == ours.count > 0
    assert set(transfer.verdicts) == {(True, True)}


def test_edge_guard_agrees_on_failing_leaves():
    # (4, 1, 3) leaves fail the canonical determinant: the guard must say
    # so on exactly the leaves validate_all fails
    transfer = _LeafValidatedTransfer(SearchSpace(4, 1, 3), False)
    transfer.run()
    verdicts = transfer.verdicts
    assert {a for a, _ in verdicts} == {True, False}
    assert all(a == b for a, b in verdicts)


def _reference_table_options(space, i, lbs, min_vsum):
    """``search._table_options`` as it was before it skipped any ``u``: every
    row the bounds allow is walked, and ``emit`` throws away the rows whose
    slots cannot form a canonical bundle."""
    k, rank = space.k, space.rank
    ds = space.a
    canon = canonical_restriction(i, space.g)
    out = []
    rows = []
    if k * (ds - 1) + rank - sum(lbs) < min_vsum:
        return out, 1
    pruned = 0
    decay = [sum(t // rank for t in range(1, rem)) for rem in range(k + 1)]

    def emit():
        slots = [(u, v) for u, v in rows if u + v == ds]
        if len(slots) == 2:
            (p1, q1), (p2, q2) = slots
            if (p1 + p2, q1 + q2) != canon:
                return
            bundle = Split(SplitLineBundle(p1, q1), SplitLineBundle(p2, q2))
            moduli = 0
        elif len(slots) == 1:
            (p, q) = slots[0]
            if rank == 1:
                bundle = SplitLineBundle(p, q)
            else:
                cp, cq = canon[0] - p, canon[1] - q
                if cp < 0 or cq < 0:
                    return
                pair = sorted([(p, q), (cp, cq)])
                bundle = Split(SplitLineBundle(*pair[0]), SplitLineBundle(*pair[1]))
            moduli = 0
        else:
            bundle = SplitLineBundle(*canon) if rank == 1 else free_split(i, space.g)
            moduli = 1
        out.append(Component(bundle, VanishingTable(rows), moduli))

    def rec(j, slots_used, vsum):
        nonlocal pruned
        if j == k:
            emit()
            return
        remaining = k - j
        prev_v = rows[-1][1] if rows else None
        base_lo = lbs[j]
        if rows:
            base_lo = max(base_lo, rows[-1][0] + (1 if rank == 1 else 0))
        deficit = min_vsum - vsum + decay[remaining]
        vmin = -(-deficit // remaining) if deficit > 0 else 0
        for extra in (0, 1):
            if extra and slots_used >= rank:
                continue
            s = ds - 1 + extra
            lo = base_lo
            if prev_v is not None and s - prev_v > lo:
                lo = s - prev_v
            hi = s - vmin
            if hi < lo:
                if vmin > 0:
                    pruned += 1
                continue
            for u in range(lo, hi + 1):
                v = s - u
                if len(rows) >= 2 and rows[-1][0] == u and rows[-2][0] == u:
                    continue
                if prev_v is not None and v == prev_v:
                    if rank == 1 or (len(rows) >= 2 and rows[-2][1] == v):
                        continue
                rows.append((u, v))
                rec(j + 1, slots_used + extra, vsum + v)
                rows.pop()

    rec(0, 0, 0)
    return out, pruned


_ASKED = {SearchSpace(g, r, k, prefix_length=p): cap for g, r, k, p, cap in GOLDEN}
_ASKED |= {space: None for space in _DENSE if space not in _ASKED}


@pytest.mark.parametrize("space,cap", _ASKED.items(), ids=str)
def test_table_options_skip_only_rows_emit_drops(monkeypatch, space, cap):
    # every (index, lower bounds, required v-sum) the search asks for, and
    # every index unpruned as slow mode asks: the same options in the same
    # order, and the same capacity prunes, as walking every row; the calls
    # the search made are compared as they returned, from its intern table
    asked = {}
    shipped = search._table_options

    def recording(space, i, lbs, min_vsum, interned):
        options, pruned = shipped(space, i, lbs, min_vsum, interned)
        asked.setdefault((i, lbs, min_vsum), []).append(([o.comp for o in options], pruned))
        return options, pruned

    monkeypatch.setattr(search, "_table_options", recording)
    enumerate_series(space, cap=cap)
    if space.rank == 2:
        for i in range(1, space.length + 1):
            recording(space, i, (0,) * space.k, 0, {})
    for args, returned in asked.items():
        reference = _reference_table_options(space, *args)
        for options, pruned in returned:
            assert (options, pruned) == reference, args


def test_dense_cells_filter_only_rows_that_can_be_kept(monkeypatch):
    # a distinguished rank-2 row whose range has no u past the cut and
    # misses the live range is left before its filter runs: over the
    # oracle_dense cells the filter runs 4,443 times and keeps a u each
    # time (46,000 runs, 41,557 of them empty, when every such row ran it)
    kept = []
    shipped = search._live_or_past

    def recording(*args):
        us = shipped(*args)
        kept.append(len(us))
        return us

    monkeypatch.setattr(search, "_live_or_past", recording)
    for space in _DENSE:
        enumerate_series(space)
    assert len(kept) == 4443
    assert 0 not in kept


def test_one_component_per_distinct_table(monkeypatch):
    # (8, 2, 4) prefix 2 returns 13,780 options over 624 distinct
    # (index, rows) pairs; the search builds one Component per pair
    made, returned = [], []
    shipped = search._table_options

    def counting(*args):
        made.append(Component(*args))
        return made[-1]

    def recording(*args):
        options, pruned = shipped(*args)
        returned.extend((o.idx, o.comp.table.rows) for o in options)
        return options, pruned

    monkeypatch.setattr(search, "Component", counting)
    monkeypatch.setattr(search, "_table_options", recording)
    report, transfer = _run_with(monkeypatch, search._Transfer, SearchSpace(8, 2, 4, 2), False)
    assert report.count == len(report.solutions) == 13529
    assert len(returned) == 13780
    assert len(made) == len(set(returned)) == len(transfer.options) == 624


@pytest.mark.parametrize("space", [SearchSpace(6, 2, 4), SearchSpace(6, 2, 4, 3)], ids=str)
def test_each_derived_value_once_per_search(monkeypatch, space):
    # q_side, the component block and the component unit once per option,
    # and the node line once per (node, forced pairs), however many edges
    # and leaves share them
    seen = {name: [] for name in ("q_side", "component_block", "component_failures", "node_line")}

    def recorded(name, key):
        shipped = getattr(search, name)

        def wrapper(*args):
            seen[name].append(key(*args))
            return shipped(*args)

        monkeypatch.setattr(search, name, wrapper)

    recorded("q_side", lambda c: id(c))
    recorded("component_block", lambda i, c: (i, id(c)))
    recorded("component_failures", lambda i, c, *_: (i, id(c)))
    recorded("node_line", lambda n, node: (n, node.forced_pairs))
    report, transfer = _run_with(monkeypatch, search._Transfer, space, False)
    golden = GOLDEN[space.g, space.rank, space.k, space.prefix_length, None]
    assert (report.count, _digest(report)) == (golden[0], golden[4])
    for name, keys in seen.items():
        assert len(keys) == len(set(keys)), name
    assert seen["q_side"] and seen["component_block"] and seen["node_line"]
    assert bool(seen["component_failures"]) == (space.prefix_length is None)


def test_searches_share_no_state():
    # one intern table per search: rank 1 at g = 4 and rank 2 at g = 7
    # share k = 4 and the twist 6, so their tables share (index, rows)
    # keys with other bundles; run in either order, each search reports
    # what it reports alone: the counters and solution hashes it had
    # before options were interned
    spaces = [SearchSpace(4, 1, 4), SearchSpace(7, 2, 4, 2)]

    def reports(order):
        return {s: replace(enumerate_series(s), wall_time=0.0) for s in order}

    forward = reports(spaces)
    assert forward == reports(spaces[::-1])
    got = [(r.count, r.nodes_expanded, r.pruned[0][1], _digest(r)) for r in forward.values()]
    assert got == [(1, 8, 32, "bbe082aef82cfce4"), (4716, 4864, 174, "b02b8d0da1b86fb9")]


class _LeafSeriesTransfer(search._Transfer):
    """The transfer step that also builds the series of every leaf."""

    def __init__(self, *args):
        super().__init__(*args)
        self.leaves = []

    def run(self):
        root, keys = super().run()
        self.leaves += [
            LimitSeries(self.chain, *self.params, comps, nodes)
            for comps, nodes in _root_leaves(root)
        ]
        return root, keys


class _WrongDegreeLeaves(_WrongDegreeTransfer, _LeafSeriesTransfer):
    """The wrong-degree transfer step, every leaf built and no guard raising."""

    def _guard(self, failures):
        pass


def _verdicts_and_leaves(monkeypatch, transfer_cls, space):
    verdicts = []
    shipped = search.series_failures

    def recording(s):
        verdicts.append(shipped(s))
        return verdicts[-1]

    monkeypatch.setattr(search, "series_failures", recording)
    report, transfer = _run_with(monkeypatch, transfer_cls, space, False)
    assert len(transfer.leaves) == report.count > 0
    return verdicts, transfer.leaves


@pytest.mark.parametrize("space", sorted(_FULL_CHAIN, key=str), ids=str)
def test_one_series_verdict_is_every_leafs(monkeypatch, space):
    # a full-chain search runs series_failures once, on its first leaf;
    # each leaf's own run must give that verdict
    verdicts, leaves = _verdicts_and_leaves(monkeypatch, _LeafSeriesTransfer, space)
    assert verdicts == [[]]
    assert all(series_failures(leaf) == [] for leaf in leaves)


def test_one_failing_series_verdict_is_every_leafs(monkeypatch):
    # with the degree one off, every leaf fails the degree sum, each with
    # the message of the one leaf the search checks
    verdicts, leaves = _verdicts_and_leaves(monkeypatch, _WrongDegreeLeaves, SearchSpace(5, 2, 4))
    assert len(verdicts) == 1
    assert [check for check, _ in verdicts[0]] == ["degree-condition"]
    assert all(series_failures(leaf) == verdicts[0] for leaf in leaves)


@pytest.mark.parametrize("space,cap", _ASKED.items(), ids=str)
def test_count_only_search_reports_the_listing_counts(monkeypatch, space, cap):
    # a keyless search builds no key and still reports the count, both
    # counters and the truncation note of the listing run
    listing = enumerate_series(space, cap=cap)
    limited = enumerate_series(space, limit=3, cap=cap)

    def refuse(*args):
        raise AssertionError("a count-only search collected keys")

    monkeypatch.setattr(search._Transfer, "_collect", refuse)
    for report, limit in ((listing, None), (limited, 3)):
        keyless = enumerate_series(space, limit=limit, cap=cap, count_only=True)
        expected = replace(report, solutions=(), wall_time=0.0)
        assert replace(keyless, wall_time=0.0) == expected
    assert limited.truncated == (listing.count > 3)


def test_search_collects_keys_only_to_show_them(monkeypatch, capsys):
    collected = []
    shipped = search._Transfer._collect

    def recording(self, *args):
        collected.append(args[0])
        return shipped(self, *args)

    monkeypatch.setattr(search._Transfer, "_collect", recording)
    assert main(["search", "--g", "5", "--k", "4", "--max", "3"]) == 0
    counted = capsys.readouterr().out
    assert not collected
    assert counted.startswith("combinatorial solutions: 65 (solution list truncated)\n")
    assert main(["search", "--g", "5", "--k", "4", "--max", "3", "--show-solutions"]) == 0
    listed = capsys.readouterr().out
    assert collected
    assert listed.startswith(counted.split("wall time")[0])
    assert listed.count("---\n") == 3


class _WalkHits(dict):
    """A dict that records each key found by ``get``, with its value."""

    def __init__(self):
        super().__init__()
        self.hits = []

    def get(self, key, default=None):
        found = super().get(key, default)
        if found is not None:
            self.hits.append((key, found))
        return found


class _WalkHitTransfer(search._Transfer):
    """The transfer step that records every hit of its (index, bounds) memo."""

    def __init__(self, *args):
        super().__init__(*args)
        self.walks = _WalkHits()


@pytest.mark.parametrize(
    "space,slow",
    [(space, False) for space in _ASKED] + [(SearchSpace(4, 2, 2), True)],
    ids=str,
)
def test_each_walk_memo_hit_is_a_fresh_walk(monkeypatch, space, slow):
    # every (index, lower bounds) the memo answers: the same tables in the
    # same order, and the same capacity prunes, as a fresh walk with a
    # fresh intern table; the root's walk, seeded before the root is
    # expanded, counts none, as the depth-first counters never did
    _, transfer = _run_with(monkeypatch, _WalkHitTransfer, space, slow)
    assert transfer.walks.hits[0][0] == (1, (0,) * space.k)
    for (idx, lbs), (options, pruned) in transfer.walks.hits:
        min_vsum = 0 if slow else search._min_vsum_needed(space, idx)
        fresh, fresh_pruned = search._table_options(space, idx, lbs, min_vsum, {})
        assert [(o.idx, o.comp) for o in options] == [(o.idx, o.comp) for o in fresh]
        assert pruned == (0 if idx == 1 else fresh_pruned)
    if slow:
        # slow mode bounds nothing: one walk per index, the root's included
        assert len(transfer.walks) == space.length < len(transfer.walks.hits)


def test_dense_cells_walk_each_index_and_bounds_once(monkeypatch):
    # the oracle_dense cells ask 1,290 times for a table walk, 217 times
    # for an (index, bounds) walked before: those are answered by the memo.
    # 12 of them, one per cell, are the root's walk, seeded before the root
    # is expanded, so the cells still make 1,073 walks
    calls = []
    shipped = search._table_options

    def recording(space, i, lbs, *args):
        calls.append((space, i, lbs))
        return shipped(space, i, lbs, *args)

    monkeypatch.setattr(search, "_table_options", recording)
    hits = 0
    for space in _DENSE:
        _, transfer = _run_with(monkeypatch, _WalkHitTransfer, space, False)
        hits += len(transfer.walks.hits)
    assert len(calls) == len(set(calls)) == 1290 - 217 == 1073
    assert hits == 217


@pytest.mark.parametrize(
    "space,cap",
    [
        (SearchSpace(11, 1, 11), 11),
        (SearchSpace(5, 2, 4), None),
        (SearchSpace(6, 2, 4, 3), None),
        (SearchSpace(8, 2, 4, 2), None),
    ],
    ids=str,
)
def test_search_leaves_no_cyclic_garbage(space, cap):
    # a finished search is freed by reference counting alone: no table
    # walk, state or option outlives it in a reference cycle, not even
    # the root of (8, 2, 4) prefix 2, which holds every last-level state
    # until its keys are read
    gc.collect()
    gc.disable()
    try:
        enumerate_series(space, cap=cap)
        assert gc.collect() == 0
    finally:
        gc.enable()


class _PinlessStateTransfer(search._Transfer):
    """The transfer step that records, for every state it expands whose
    left side pins no row at Q, that left side and its table options."""

    def __init__(self, *args):
        super().__init__(*args)
        self.pinless = []

    def _expand(self, idx, left_q):
        state = super()._expand(idx, left_q)
        if all(d is None for _, d in left_q):
            space = self.space
            lbs = (0,) * space.k if self.slow else tuple(max(0, space.a - v) for v, _ in left_q)
            self.pinless.append((left_q, self.walks[idx, lbs][0]))
        return state


@pytest.mark.parametrize("space", sorted(_FULL_CHAIN | set(_DENSE), key=str), ids=str)
def test_a_pinless_left_side_forces_no_pair(monkeypatch, space):
    # a state whose left side pins nothing at Q skips derive_forced_pairs:
    # on every option of its walk that function returns () and raises no
    # direction conflict, so the skip hides neither a pair nor a prune
    _, transfer = _run_with(monkeypatch, _PinlessStateTransfer, space, False)
    assert transfer.pinless
    for left_q, options in transfer.pinless:
        for opt in options:
            assert derive_forced_pairs(left_q, opt.comp, transfer.identity, space.a) == ()


def test_dense_cells_derive_forced_pairs_only_where_the_left_side_pins(monkeypatch):
    # the oracle_dense cells cross 29,156 edges into a table option; on
    # 26,259 of them the left side pins no row at Q, and those derive no
    # forced pairs, so the rule derive_forced_pairs applies runs 2,897 times
    # (the search calls it as _forced_pairs, on tables and matchings it built)
    calls = []
    shipped = search._forced_pairs

    def recording(left_q, *args):
        calls.append(left_q)
        return shipped(left_q, *args)

    monkeypatch.setattr(search, "_forced_pairs", recording)
    for space in _DENSE:
        enumerate_series(space)
    assert len(calls) == 2897
    assert all(any(d is not None for _, d in left_q) for left_q in calls)

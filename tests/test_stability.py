import hashlib
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellchain import (
    ChainCurve,
    Component,
    DestabilizingChain,
    Indecomposable,
    LimitSeries,
    NodeGluing,
    Split,
    StabilityReport,
    SplitLineBundle,
    VanishingTable,
    canonical_limit_series,
    check_semistable,
    check_stable,
    construct,
    construct_even,
    construct_odd,
    external_stable_case,
    theorem_threshold,
)
from helpers import BAD_FORCED_PAIRS, with_forced_pairs


def split(p1, q1, p2, q2):
    return Split(SplitLineBundle(p1, q1), SplitLineBundle(p2, q2))


class TestSemistable:
    def test_constructions_semistable(self):
        assert check_semistable(construct_even(9, 4))
        assert check_semistable(construct_odd(7, 3))

    def test_unbalanced_split_fails(self):
        s = construct_even(3, 2)
        comps = list(s.components)
        comps[1] = Component(split(0, 3, 0, 1), comps[1].table, 0)
        from dataclasses import replace

        assert not check_semistable(replace(s, components=tuple(comps)))


class TestStable:
    def test_even_5_4_stable_killed_between_4_and_5(self):
        report = check_stable(construct_even(5, 4))
        assert report.verdict == "stable"
        deep = [c for c in report.killed if len(c.selections) == 5]
        assert deep, "chains reaching the last component should be recorded"
        assert all(c.killed_at == 4 for c in deep)

    def test_odd_7_3_stable(self):
        assert check_stable(construct_odd(7, 3)).verdict == "stable"

    def test_grid_stable_except_external_case(self):
        for k in range(2, 9):
            for g in range(theorem_threshold(k), 31):
                verdict = check_stable(construct(g, k)).verdict
                if external_stable_case(g, k):
                    assert verdict == "strictly-semistable"
                else:
                    assert verdict == "stable", (g, k)

    def test_external_case_survivor_rides_marked_direction(self):
        report = check_stable(construct_odd(3, 3))
        assert report.verdict == "strictly-semistable"
        assert len(report.survivors) == 1
        assert report.survivors[0].selections == ("*", "2", "m")

    def test_below_threshold_chains_survive(self):
        # the flexible square at the end absorbs every identification
        assert check_stable(construct_even(4, 4, force=True)).verdict == "strictly-semistable"
        assert check_stable(construct_even(2, 2, force=True)).verdict == "strictly-semistable"
        # one component past the threshold boundary restores stability
        assert check_stable(construct_even(5, 4)).verdict == "stable"
        assert check_stable(construct_even(3, 2)).verdict == "stable"

    def test_toy_forced_chain_strictly_semistable(self):
        comp = Component(split(0, 1, 1, 0), VanishingTable([(0, 0)]))
        toy = LimitSeries(
            chain=ChainCurve(2),
            rank=2,
            sections=1,
            degree=2,
            twist=1,
            components=(comp, comp),
            nodes=(NodeGluing((1,), (("1", "1"),)),),
        )
        report = check_stable(toy)
        assert report.verdict == "strictly-semistable"
        assert ("1", "1") in {c.selections[:2] for c in report.survivors}

    def test_rank_one_rejected(self):
        with pytest.raises(ValueError):
            check_stable(canonical_limit_series(4))

    @pytest.mark.parametrize(
        "reshape, message",
        [
            (lambda s: replace(s, nodes=s.nodes + s.nodes[-1:]), "5 nodes on 5 components"),
            (lambda s: replace(s, components=s.components[:-1]), "4 nodes on 4 components"),
        ],
        ids=["extra-node", "dropped-component"],
    )
    def test_wrong_node_count_refused(self, reshape, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_stable(reshape(construct(5, 4)))

    @pytest.mark.parametrize(
        "pairs, why", BAD_FORCED_PAIRS.values(), ids=list(BAD_FORCED_PAIRS)
    )
    def test_bad_forced_pairs_refused(self, pairs, why):
        with pytest.raises(ValueError, match=f"^node 1: {re.escape(why)}$"):
            check_stable(with_forced_pairs(construct(5, 4), 0, pairs))


def test_external_case_detection():
    assert external_stable_case(3, 3)
    assert not external_stable_case(7, 3)
    assert not external_stable_case(3, 2)


def test_acceptance_grid_chains_pinned():
    # every chain of every report over the acceptance grid, hashed in grid
    # order: the enumeration and its statuses must not drift
    digest = hashlib.sha256()
    killed = survivors = 0
    for k in range(2, 9):
        for g in range(theorem_threshold(k), 31):
            report = check_stable(construct(g, k))
            killed += len(report.killed)
            survivors += len(report.survivors)
            # generic gluings keep the chain lists linear in the genus
            assert len(report.killed) + len(report.survivors) <= 2 * g, (g, k)
            digest.update(report.verdict.encode())
            for c in report.survivors + report.killed:
                digest.update(repr((c.selections, c.node_status, c.killed_at)).encode())
    assert (killed, survivors) == (824, 1)
    assert digest.hexdigest()[:16] == "a00495049770f726"


def _reference_check_stable(s):
    """The depth-first chain walk ``check_stable`` replaced, kept as a reference.

    It recurses once per node a chain crosses, so it serves only short
    chains; the caller passes a rank-2, semistable series with one node
    between each two components and well-formed forced pairs.
    """
    forced = {idx: dict(node.forced_pairs) for idx, node in enumerate(s.nodes)}
    survivors, killed = [], []

    def candidates(c):
        if isinstance(c.bundle, Indecomposable):
            return ["m"]
        return ["*"] if c.is_pencil else ["1", "2"]

    def extend(idx, token, selections, statuses):
        if idx == len(s.nodes):
            survivors.append(DestabilizingChain(selections, statuses, None))
            return
        forced_of = forced[idx]
        for sel in candidates(s.components[idx + 1]):
            if token == "free":
                status, out = "free", ("free" if sel == "*" else sel)
            elif token in forced_of:
                if sel == "*":
                    status, out = "forced", "fixed"
                elif sel == forced_of[token]:
                    status, out = "forced", sel
                else:
                    status, out = "constrained-away", None
            elif sel == "*":
                status, out = "free", "fixed"
            elif sel in forced_of.values():
                status, out = "constrained-away", None
            else:
                status, out = "generic-free", None
            new_sel, new_statuses = selections + (sel,), statuses + (status,)
            if out is None:
                killed.append(DestabilizingChain(new_sel, new_statuses, idx + 1))
            else:
                extend(idx + 1, out, new_sel, new_statuses)

    for sel in candidates(s.components[0]):
        extend(0, "free" if sel == "*" else sel, (sel,), ())
    verdict = "strictly-semistable" if survivors else "stable"
    return StabilityReport(verdict, tuple(survivors), tuple(killed))


_ONE_ROW = VanishingTable([(0, 0)])
# one component of each kind the chain rule tells apart
_KINDS = {
    "distinct-split": Component(split(0, 2, 1, 1), _ONE_ROW),
    "pencil": Component(split(1, 1, 1, 1), _ONE_ROW),
    "generic-split": Component(split(0, 2, 2, 0), _ONE_ROW, 1),
    "generic-equal-coefficients": Component(split(1, 1, 1, 1), _ONE_ROW, 1),
    "indecomposable": Component(Indecomposable(2, 0, 0), _ONE_ROW),
}
_DIRECTIONS = ("1", "2", "m")
# well-formed forced pairs: distinct directions on each side, at most two
_FORCED_PAIRS = st.builds(
    lambda left, right, n: tuple(zip(left[:n], right[:n])),
    st.permutations(_DIRECTIONS),
    st.permutations(_DIRECTIONS),
    st.integers(0, 2),
)


def _rank_two_chain(components, forced_pairs):
    return LimitSeries(
        chain=ChainCurve(len(components)),
        rank=2,
        sections=1,
        degree=2 * len(components),
        twist=1,
        components=tuple(components),
        nodes=tuple(NodeGluing((1,), pairs) for pairs in forced_pairs),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=12).flatmap(
        lambda kinds: st.tuples(
            st.just(kinds), st.lists(_FORCED_PAIRS, min_size=len(kinds) - 1, max_size=len(kinds) - 1)
        )
    )
)
def test_loop_matches_depth_first_reference(drawn):
    # whole reports, order included: the verdict, every survivor and every
    # killed chain with its statuses and the node that kills it
    kinds, forced_pairs = drawn
    s = _rank_two_chain([_KINDS[kind] for kind in kinds], forced_pairs)
    assert check_stable(s) == _reference_check_stable(s)


def test_a_chain_surviving_1500_components_is_not_a_recursion_error():
    # O(P+Q) + O(2P) on every component and 1->1 forced at every node: the
    # chain on the first summand survives, the other dies at node 1, and
    # each node kills the survivor's turn to the second summand; depth-first
    # order lists the deepest of those first
    c = Component(split(1, 1, 2, 0), _ONE_ROW)
    report = check_stable(_rank_two_chain([c] * 1500, [(("1", "1"),)] * 1499))
    assert report.verdict == "strictly-semistable"
    assert len(report.survivors) == 1 and len(report.killed) == 1501
    (survivor,) = report.survivors
    assert survivor.selections == ("1",) * 1500
    assert survivor.node_status == ("forced",) * 1499
    assert [c.killed_at for c in report.killed] == list(range(1499, 0, -1)) + [1, 1]

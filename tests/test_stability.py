import hashlib
import re
from dataclasses import replace

import pytest

from ellchain import (
    ChainCurve,
    Component,
    LimitSeries,
    NodeGluing,
    Split,
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

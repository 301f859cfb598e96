import importlib
import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellchain import (
    ChainCurve,
    Component,
    Indecomposable,
    NodeGluing,
    Split,
    SplitLineBundle,
    ThresholdError,
    VanishingTable,
    canonical_limit_series,
    canonical_restriction,
    construct,
    construct_even,
    construct_odd,
    decompose_index,
    derive_forced_pairs,
    determinant,
    q_side,
    serialize_series,
    theorem_threshold,
    validate_all,
)
from helpers import mutate_entry, shifted


class TestLayerDecomposition:
    def test_small_layer_values(self):
        d = decompose_index(1, 2)
        assert (d.layer, d.c, d.eps) == (0, 0, 1)
        d = decompose_index(3, 2)
        assert (d.layer, d.c, d.eps) == (1, 0, 2)
        d = decompose_index(4, 2)
        assert (d.layer, d.c, d.eps) == (1, 1, 1)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            decompose_index(0, 3)
        with pytest.raises(IndexError):
            decompose_index(10, 3)

    @given(st.integers(1, 12).flatmap(lambda k1: st.tuples(st.just(k1), st.integers(1, k1 * k1))))
    def test_reconstruction_and_constraints(self, pair):
        k1, i = pair
        d = decompose_index(i, k1)
        assert d.layer * d.layer + 2 * d.c + d.eps == i
        assert 0 <= d.layer <= k1 - 1
        assert (0 <= d.c <= d.layer - 1 and d.eps in (1, 2)) or (
            d.c == d.layer and d.eps == 1
        )


class TestRankOne:
    def test_genus3_middle_component(self):
        s = canonical_limit_series(3)
        assert s.components[1].table.rows == ((0, 3), (2, 2), (3, 0))

    def test_genus2_first_bundle(self):
        s = canonical_limit_series(2)
        assert s.components[0].bundle == SplitLineBundle(0, 2)

    def test_validates_up_to_30(self):
        for g in range(2, 31):
            assert validate_all(canonical_limit_series(g)).all_passed

    def test_bundles_are_canonical_restrictions(self):
        s = canonical_limit_series(11)
        for i, c in enumerate(s.components, start=1):
            assert c.bundle.pair == canonical_restriction(i, 11)

    def test_needs_genus_two(self):
        with pytest.raises(ValueError):
            canonical_limit_series(1)


class TestEven:
    def test_component_two_bundle_and_first_table(self):
        s = construct_even(9, 4)
        assert s.components[1].bundle == Split(SplitLineBundle(0, 8), SplitLineBundle(2, 6))
        assert s.components[0].table.rows == ((0, 8), (0, 8), (1, 6), (1, 6))

    def test_last_pinned_component_v_values(self):
        # v at the component before the last, for k = 4: (2, 2, 1, 1)
        for g in (5, 7, 12):
            s = construct_even(g, 4)
            assert s.components[g - 2].table.vs == (2, 2, 1, 1)

    def test_two_distinguished_rows_match_summands(self):
        for k in (2, 4, 6, 8):
            for g in range(theorem_threshold(k), 26):
                s = construct_even(g, k)
                for c in s.components:
                    special = [r for r in c.table.rows if r[0] + r[1] == g - 1]
                    others = [r for r in c.table.rows if r[0] + r[1] == g - 2]
                    if c.is_generic:
                        assert special == []
                        assert len(others) == k
                    else:
                        assert len(special) == 2
                        assert len(others) == k - 2
                        assert sorted(p.pair for p in c.bundle.summands) == sorted(special)

    def test_tail_components_free(self):
        s = construct_even(9, 4)
        k1sq = 4
        for i, c in enumerate(s.components, start=1):
            assert c.moduli_freedom == (1 if i > k1sq else 0)
            if c.is_generic:
                assert c.bundle.first.pair == (i - 1, 9 - i)

    def test_determinants_canonical(self):
        for g, k in [(5, 4), (9, 6), (16, 8), (3, 2)]:
            s = construct_even(g, k)
            for i, c in enumerate(s.components, start=1):
                assert determinant(c.bundle) == canonical_restriction(i, g)

    def test_threshold_refusal(self):
        with pytest.raises(ThresholdError, match="requires g >= 5"):
            construct_even(4, 4)
        with pytest.raises(ThresholdError, match="requires g >= 16"):
            construct_even(15, 8)
        with pytest.raises(ThresholdError, match="requires g >= 3"):
            construct_even(2, 2)

    def test_force_override(self):
        s = construct_even(4, 4, force=True)
        assert validate_all(s).all_passed
        with pytest.raises(ValueError):
            construct_even(3, 4, force=True)  # cannot host 4 pinned components

    def test_validates_across_grid(self):
        for k in (2, 4, 6, 8):
            for g in range(theorem_threshold(k), 31):
                report = validate_all(construct_even(g, k))
                assert report.all_passed, (g, k, [c.name for c in report.failures()])

    def test_determinism(self):
        a = serialize_series(construct_even(12, 6))
        b = serialize_series(construct_even(12, 6))
        assert a == b


class TestOdd:
    def test_extra_row_and_indecomposable_values(self):
        s = construct_odd(7, 3)
        assert s.components[0].table.rows[-1] == (1, 4)
        assert s.components[2].bundle == Indecomposable(12, marked_u=2, marked_v=4)

    def test_extra_row_sums_to_g_minus_2(self):
        for g, k in [(7, 3), (8, 5), (13, 7), (20, 5)]:
            k1 = (k - 1) // 2
            s = construct_odd(g, k)
            for c in s.components[: k1 * k1]:
                u, v = c.table.rows[-1]
                assert u + v == g - 2

    def test_deleting_extra_row_recovers_even_tables(self):
        for g, k in [(7, 3), (8, 5), (13, 7), (25, 7)]:
            k1 = (k - 1) // 2
            odd = construct_odd(g, k)
            even = construct_even(g, k - 1)
            for co, ce in zip(odd.components[: k1 * k1], even.components):
                assert co.table.rows[:-1] == ce.table.rows
                assert co.bundle == ce.bundle

    def test_extra_row_steps_off_the_pair_pattern(self):
        # off the layer boundary the extra row extends the last even pair by 1
        for g, k in [(13, 7), (20, 5)]:
            k1 = (k - 1) // 2
            s = construct_odd(g, k)
            for i in range(1, (k1 - 1) ** 2 + 1):
                rows = s.components[i - 1].table.rows
                assert rows[-1][0] == rows[-2][0] + 1
                assert rows[-1][1] == rows[-2][1] - 1

    def test_transition_bundles_share_constant_summand(self):
        g, k = 13, 7
        k1 = 3
        s = construct_odd(g, k)
        marked = (k1 * k1 + k1, g - 1 - k1 * k1 - k1)
        for m in range(1, k1 + 1):
            c = s.components[k1 * k1 + m - 1]
            assert c.bundle.second.pair == marked
            assert c.table.rows[-1] == marked

    def test_indecomposable_marked_vanishing(self):
        for g, k in [(3, 3), (7, 3), (8, 5), (13, 7)]:
            k1 = (k - 1) // 2
            s = construct_odd(g, k)
            b = s.components[k1 * k1 + k1].bundle
            assert isinstance(b, Indecomposable)
            assert b.degree == 2 * g - 2
            assert (b.marked_u, b.marked_v) == (k1 * k1 + k1, g - 1 - k1 * k1 - k1)

    def test_threshold_refusal(self):
        with pytest.raises(ThresholdError, match="requires g >= 7"):
            construct_odd(6, 5)
        with pytest.raises(ThresholdError, match="requires g >= 3"):
            construct_odd(2, 3)

    def test_genus3_three_sections_constructs_and_validates(self):
        s = construct_odd(3, 3)
        assert validate_all(s).all_passed

    def test_validates_across_grid(self):
        for k in (3, 5, 7):
            for g in range(theorem_threshold(k), 31):
                report = validate_all(construct_odd(g, k))
                assert report.all_passed, (g, k, [c.name for c in report.failures()])


class TestDispatch:
    def test_parity_dispatch(self):
        assert construct(9, 4) == construct_even(9, 4)
        assert construct(7, 3) == construct_odd(7, 3)

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            construct(9, 1)
        with pytest.raises(ValueError):
            construct(9, 0)


class TestNodeShortcut:
    """``_assemble`` derives the gluings between pinning components and
    shares one unforced gluing everywhere else; every node it stores must
    equal the full derivation."""

    module = importlib.import_module("ellchain.construct")

    @staticmethod
    def _cells():
        cells = [
            (g, k) for g in range(3, 106) for k in range(2, 17) if g >= theorem_threshold(k)
        ]
        cells += [(1, 2), (2, 2), (4, 4)]  # below the threshold, forced
        for k in range(17, 32):
            # the least host genus equals the threshold from k = 5 on; past
            # k = 28 the genus 200 cannot host the pinned components
            least = theorem_threshold(k)
            cells += [(g, k) for g in sorted({least, max(200, least + 1)})]
        return cells

    @staticmethod
    def _check_nodes(s):
        """Assert every node of ``s`` equals the full derivation; count the
        nodes that touch a component pinning nothing and those with pairs."""
        quiet = forced = 0
        identity = tuple(range(1, s.sections + 1))
        assert len(s.nodes) == s.genus - 1
        for left, right, node in zip(s.components, s.components[1:], s.nodes):
            assert node.matching == identity
            derived = derive_forced_pairs(q_side(left), right, identity, s.twist)
            assert node.forced_pairs == derived, (s.genus, s.sections)
            if left.pins_nothing or right.pins_nothing:
                assert node.forced_pairs == ()
                quiet += 1
            forced += bool(derived)
        return quiet, forced

    def test_every_node_equals_the_full_derivation(self):
        quiet = forced = 0
        for g, k in self._cells():
            q, f = self._check_nodes(construct(g, k, force=g < theorem_threshold(k)))
            quiet, forced = quiet + q, forced + f
        for g in range(2, 41):
            q, f = self._check_nodes(canonical_limit_series(g))
            assert f == 0
            quiet += q
        # both branches run: most nodes touch a free component, and some
        # between pinned components carry pairs
        assert quiet > forced > 0

    def test_forced_pairs_are_derived_once_per_construction(self, monkeypatch):
        # each rank-two construction derives the pairs of each node between
        # two pinning components once, in chain order, and of no other node
        # (it applies the rule, _forced_pairs, to the tables it built)
        calls = []

        def counted(*args):
            calls.append(args)
            return derive_forced_pairs(*args)

        monkeypatch.setattr(self.module, "_forced_pairs", counted)
        for k, between in ((6, 8), (7, 12)):
            for g in range(20, 41):
                calls.clear()
                s = construct(g, k)
                rights = [
                    right
                    for left, right in zip(s.components, s.components[1:])
                    if not (left.pins_nothing or right.pins_nothing)
                ]
                assert len(rights) == between
                assert [call[1] for call in calls] == rights, (g, k)
        calls.clear()
        for g in range(2, 41):
            canonical_limit_series(g)
        assert calls == []

    def test_what_pins_nothing(self):
        even, odd = construct(20, 6), construct(20, 7)
        assert all(c.pins_nothing for c in canonical_limit_series(6).components)
        assert [c.pins_nothing for c in even.components] == [False] * 9 + [True] * 11
        assert [c.pins_nothing for c in odd.components] == [False] * 13 + [True] * 7
        assert isinstance(odd.components[12].bundle, Indecomposable)


def _failing(s):
    return [c.name for c in validate_all(s).failures()]


# cells whose interior components are mutated: a few genera from each threshold
_MUTATED_CELLS = [
    (g, k) for k in range(2, 13) for g in range(theorem_threshold(k), theorem_threshold(k) + 6)
]


class TestShiftIdentity:
    """``construct(g + 1, k)`` is S of ``construct(g, k)`` plus one tail
    component and one unforced node, where S adds 1 to every v, summand q
    and marked v and to the genus and twist, and 2 to every degree.  S
    keeps the failing checks of ``validate_all``, which the recurrence
    below rests on."""

    def _assert_restricts(self, top, s):
        n = top.genus - s.genus
        assert top.components[: s.genus] == tuple(shifted(c, n) for c in s.components)
        assert top.nodes[: s.genus - 1] == s.nodes
        assert (top.twist - n, top.degree - 2 * n) == (s.twist, s.degree)

    def test_each_step_adds_one_component(self):
        # every consecutive pair up to genus 61; by induction, every pair
        # g < G <= 61, since S commutes with cutting the chain
        for k in range(2, 32):
            low = theorem_threshold(k)
            chain = [construct(g, k) for g in range(low, 62)]
            for s, up in zip(chain, chain[1:]):
                self._assert_restricts(up, s)
                assert up.nodes[-1].forced_pairs == ()
                assert up.components[-1].is_generic

    def test_top_series_restricts_to_each_lower_genus(self):
        # from k = 29 on the threshold is above 200
        rng = random.Random(21)
        pairs = 0
        for k in range(2, 29):
            low = theorem_threshold(k)
            for top_genus in sorted({200, rng.randrange(low + 1, 200)}):
                top, lower = construct(top_genus, k), range(low, top_genus)
                for g in sorted({low, top_genus - 1, *rng.sample(lower, min(3, len(lower)))}):
                    self._assert_restricts(top, construct(g, k))
                    pairs += 1
        assert pairs > 150

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.data())
    def test_shift_keeps_the_failing_checks_of_interior_mutants(self, data):
        g, k = data.draw(st.sampled_from(_MUTATED_CELLS))
        x = mutate_entry(
            construct(g, k),
            data.draw(st.integers(0, g - 2)),  # interior: the last component meets the new node
            data.draw(st.integers(0, k - 1)),
            data.draw(st.sampled_from("uv")),
            data.draw(st.sampled_from((-1, 1))),
        )
        assume(all(min(c.table.us + c.table.vs) >= 0 for c in x.components))
        up = construct(g + 1, k)
        y = replace(up, components=tuple(map(shifted, x.components)) + up.components[g:])
        assert _failing(x) == _failing(y)

    def test_shift_keeps_the_failing_checks_of_every_interior_mutant(self):
        failed = compared = 0
        for g, k in ((9, 4), (13, 7), (16, 8)):
            s, up = construct(g, k), construct(g + 1, k)
            for ci in range(g - 1):
                for ri in range(k):
                    for which in "uv":
                        for delta in (-1, 1):
                            x = mutate_entry(s, ci, ri, which, delta)
                            if min(min(c.table.us + c.table.vs) for c in x.components) < 0:
                                continue
                            y = replace(
                                up,
                                components=tuple(map(shifted, x.components)) + up.components[g:],
                            )
                            assert _failing(x) == _failing(y), (g, k, ci, ri, which, delta)
                            failed += bool(_failing(x))
                            compared += 1
        # every mutant breaks some check, so the reports compared name failures
        assert failed == compared > 900


def _step(s):
    """U: S on every component, T of the last (a free tail) appended, one unforced node.

    T adds 1 to every row's u and every summand's p.
    """
    last = s.components[-1]
    first, second = last.bundle.first, last.bundle.second
    tail = Component(
        Split(SplitLineBundle(first.p + 1, first.q), SplitLineBundle(second.p + 1, second.q)),
        VanishingTable([(u + 1, v) for u, v in last.table.rows]),
        last.moduli_freedom,
    )
    return replace(
        s,
        chain=ChainCurve(s.genus + 1),
        degree=s.degree + 2,
        twist=s.twist + 1,
        components=tuple(map(shifted, s.components)) + (tail,),
        nodes=s.nodes + (NodeGluing(tuple(range(1, s.sections + 1))),),
    )


def test_each_genus_past_the_base_is_one_step_up():
    # the base b is the threshold when the threshold series ends in a free
    # tail (k = 2 and 4), and the threshold plus one otherwise; from b on,
    # construct(g + 1, k) == U(construct(g, k)), which the sweep prices by
    steps = 0
    for k in range(2, 32):
        t = theorem_threshold(k)
        ends_free = construct(t, k).components[-1].pins_nothing
        assert ends_free == (k in (2, 4))
        s = construct(t if ends_free else t + 1, k)
        assert s.components[-1].pins_nothing
        for _ in range(10):
            up = construct(s.genus + 1, k)
            assert _step(s) == up, (s.genus, k)
            s = up
            steps += 1
    assert steps == 300

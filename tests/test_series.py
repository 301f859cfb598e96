import importlib
import random
import re
import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellchain import (
    ChainCurve,
    Component,
    Indecomposable,
    LimitSeries,
    NodeGluing,
    ParseError,
    SearchSpace,
    Split,
    SplitLineBundle,
    VanishingTable,
    ValidationReport,
    canonical_key,
    canonical_limit_series,
    construct,
    construct_even,
    construct_odd,
    LedgerRefusal,
    canonical_form,
    check_stable,
    count_dimension,
    derive_forced_pairs,
    enumerate_series,
    parse_series,
    q_side,
    rho_canonical,
    serialize_series,
    theorem_threshold,
    validate_all,
)
from ellchain import series as series_module
from ellchain.search import _table_options
from ellchain.series import (
    DIR_FIRST,
    DIR_MARKED,
    DIR_SECOND,
    FORMAT_HEADER,
    FORMAT_VERSION,
    CheckResult,
    _column_table,
    _pinned_directions,
    admissibility_failures,
    component_failures,
    forced_pairs_failure,
    node_failures,
    series_failures,
)
from helpers import BAD_FORCED_PAIRS, mutate_entry, with_forced_pairs


def split(p1, q1, p2, q2):
    return Split(SplitLineBundle(p1, q1), SplitLineBundle(p2, q2))


class TestAdmissibility:
    def test_rank1_canonical_component(self):
        # middle component of the genus-3 canonical series
        table = VanishingTable([(0, 3), (2, 2), (3, 0)])
        assert admissibility_failures(SplitLineBundle(2, 2), table) == []

    def test_rank2_square_component(self):
        table = VanishingTable([(0, 8), (0, 8), (1, 6), (1, 6)])
        assert admissibility_failures(split(0, 8, 0, 8), table) == []

    def test_second_distinguished_row_unchargeable(self):
        table = VanishingTable([(0, 3), (0, 3)])
        assert admissibility_failures(split(0, 3, 1, 2), table) == [
            "rows [1, 2] all require the distinguished section of summand (0, 3), "
            "which occurs 1 time(s)"
        ]

    def test_row_exceeding_every_summand(self):
        table = VanishingTable([(3, 3)])
        assert admissibility_failures(split(0, 3, 1, 2), table) == [
            "row 1 (3,3) not chargeable to any summand"
        ]

    def test_generic_summands_reject_distinguished_rows(self):
        table = VanishingTable([(1, 3), (2, 2)])
        assert admissibility_failures(split(1, 3, 2, 2), table) == []
        assert admissibility_failures(split(1, 3, 2, 2), table, generic=True) == [
            "row 1 (1,3) not chargeable to any summand",
            "row 2 (2,2) not chargeable to any summand",
        ]

    def test_indecomposable_rows(self):
        bundle = Indecomposable(12, 2, 4)
        assert admissibility_failures(bundle, VanishingTable([(0, 5), (1, 4), (2, 4)])) == []
        # a second marked row over-uses the one-dimensional slot
        assert admissibility_failures(bundle, VanishingTable([(2, 4), (2, 4)])) == [
            "row 2 (2,4) not chargeable to indecomposable bundle (degree 12, marked (2,4))"
        ]
        # amply twisted rows are always fine
        assert admissibility_failures(bundle, VanishingTable([(0, 0)])) == []
        # non-marked rows cannot reach half the degree
        assert admissibility_failures(bundle, VanishingTable([(1, 5)])) == [
            "row 1 (1,5) not chargeable to indecomposable bundle (degree 12, marked (2,4))"
        ]

    @given(
        st.integers(0, 8),
        st.integers(0, 8),
        st.integers(0, 8),
        st.integers(0, 8),
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=4),
    )
    def test_swap_invariance(self, p1, q1, p2, q2, rows):
        table = VanishingTable(rows)
        assert admissibility_failures(split(p1, q1, p2, q2), table) == admissibility_failures(
            split(p2, q2, p1, q1), table
        )


def _check(s, name):
    """The named check of ``validate_all(s)``."""
    return next(c for c in validate_all(s).checks if c.name == name)


class TestConditions:
    def test_degree_condition_even_shape(self):
        s = construct_even(5, 4)
        assert _check(s, "degree-condition").passed
        assert sum(c.degree for c in s.components) - 2 * 4 * 4 == 8

    def test_degree_condition_rank1(self):
        for g in (2, 5, 9):
            assert _check(canonical_limit_series(g), "degree-condition").passed

    def test_degree_condition_failure(self):
        bad = LimitSeries(
            chain=ChainCurve(2),
            rank=2,
            sections=1,
            degree=3,
            twist=2,
            components=(
                Component(split(1, 2, 0, 0), VanishingTable([(0, 0)])),
                Component(split(1, 2, 0, 0), VanishingTable([(0, 0)])),
            ),
            nodes=(NodeGluing((1,)),),
        )
        assert _check(bad, "degree-condition") == CheckResult(
            "degree-condition", False, ("sum(d_i) - r*(M-1)*a = 6 - 2*1*2 != 3",)
        )

    def test_node_condition_constructed_equality(self):
        for s in (construct_even(9, 4), construct_odd(7, 3), canonical_limit_series(6)):
            assert _check(s, "node-condition").passed
            for n, node in enumerate(s.nodes):
                left = s.components[n].table
                right = s.components[n + 1].table
                for t, t2 in enumerate(node.matching, start=1):
                    assert left.rows[t - 1][1] + right.rows[t2 - 1][0] == s.twist

    def test_node_condition_failure(self):
        s = construct_even(5, 4)
        assert _check(mutate_entry(s, 1, 0, "v", -1), "node-condition").diagnostics == (
            "node 2: rows 1->1 have v+u = 3+0 < twist 4",
        )

    def test_determinacy(self):
        assert _check(construct_even(9, 4), "determinacy").passed
        assert _check(construct_odd(7, 3), "determinacy").passed
        too_big = replace(construct_even(5, 4), twist=3)
        assert _check(too_big, "determinacy").diagnostics == tuple(
            f"component {i}: summand degree 4 > twist 3" for i in range(1, 6)
        )
        # component 3 of the odd shape is indecomposable, of degree 12
        odd = _check(replace(construct_odd(7, 3), twist=4), "determinacy").diagnostics
        assert odd[2] == "component 3: indecomposable degree 12 > 2*twist 8"
        assert len(odd) == 7

    def test_canonical_determinant(self):
        assert _check(construct_even(9, 4), "canonical-determinant").passed
        assert _check(canonical_limit_series(5), "canonical-determinant").passed
        s = construct_even(9, 4)
        comps = list(s.components)
        comps[0] = Component(split(0, 8, 1, 7), comps[0].table)
        assert _check(replace(s, components=tuple(comps)), "canonical-determinant").diagnostics == (
            "component 1: determinant (1,15) != canonical (0,16)",
        )
        # an indecomposable component is checked on its degree
        odd = construct_odd(7, 3)
        c = odd.components[2]
        wider = Component(Indecomposable(14, c.bundle.marked_u, c.bundle.marked_v), c.table)
        assert _check(_with_component(odd, 2, wider), "canonical-determinant").diagnostics == (
            "component 3: degree 14 != canonical degree 12",
        )


class TestValidateAll:
    def test_constructed_pass(self):
        for s in (construct_even(9, 4), construct_odd(7, 3), canonical_limit_series(8)):
            report = validate_all(s)
            assert report.all_passed, [c.name for c in report.failures()]

    def test_column_passes_decide_every_odd_construction(self):
        # the units would give the same reports, so a fast path that stopped
        # firing on the indecomposable component would show only here
        cells = [
            (g, k) for k in range(3, 32, 2) for g in range(theorem_threshold(k), 120)
        ]
        assert len(cells) == 750
        for g, k in cells:
            assert series_module._columns_pass(construct(g, k)) == ([], []), (g, k)

    def test_indecomposable_flagged(self):
        report = validate_all(construct_odd(7, 3))
        assert any("indecomposable" in f for f in report.flags)

    def test_single_mutation_fails(self):
        s = construct_even(9, 4)
        assert not validate_all(mutate_entry(s, 2, 1, "u", +1)).all_passed
        assert not validate_all(mutate_entry(s, 2, 1, "u", -1)).all_passed

    def test_report_names_failing_condition(self):
        s = mutate_entry(construct_even(9, 4), 4, 0, "v", -1)
        report = validate_all(s)
        failing = {c.name for c in report.failures()}
        assert "admissibility" in failing or "node-condition" in failing


class TestForcedPairs:
    def test_even_internal_node_two_pairs(self):
        s = construct_even(9, 4)
        assert [n.free_parameter_count for n in s.nodes] == [4, 2, 4, 4, 4, 4, 4, 4]
        assert set(s.nodes[1].forced_pairs) == {("1", "2"), ("2", "1")}

    def test_odd_transition_nodes(self):
        s = construct_odd(7, 3)
        assert [n.free_parameter_count for n in s.nodes] == [4, 3, 4, 4, 4, 4]
        assert s.nodes[1].forced_pairs == (("2", "m"),)

    def test_odd_k2_transition_chain(self):
        s = construct_odd(8, 5)
        # nodes: squares region 1..3, boundary 4, transitions 5..6, out 7
        params = [n.free_parameter_count for n in s.nodes]
        assert params == [4, 2, 4, 4, 3, 3, 4]
        assert s.nodes[4].forced_pairs == (("2", "2"),)
        assert s.nodes[5].forced_pairs == (("2", "m"),)

    def test_slack_pairs_impose_nothing(self):
        left = Component(split(0, 3, 2, 1), VanishingTable([(0, 2), (2, 1)]))
        right = Component(split(1, 2, 3, 0), VanishingTable([(2, 0), (3, 0)]))
        # both matched pairs have v + u > twist: no forced identifications
        assert derive_forced_pairs(q_side(left), right, (1, 2), 3) == ()

    def test_two_pairs_come_out_sorted(self):
        # with the left summands swapped, the rows force 2->2 before 1->1
        s = construct_even(9, 4)
        left, right = s.components[1], s.components[2]
        swapped = Component(left.bundle.swapped(), left.table, left.moduli_freedom)
        pairs = derive_forced_pairs(q_side(swapped), right, (1, 2, 3, 4), s.twist)
        assert pairs == (("1", "1"), ("2", "2"))

    def test_rank1_nodes_never_forced(self):
        s = canonical_limit_series(7)
        assert all(n.forced_pairs == () for n in s.nodes)


class TestForcedPairsRule:
    @pytest.mark.parametrize(
        "pairs", [(), (("2", "m"),), (("1", "2"), ("2", "1")), (("1", "1"), ("2", "2"))]
    )
    def test_well_formed_pairs_pass(self, pairs):
        assert forced_pairs_failure(pairs) is None
        assert validate_all(with_forced_pairs(construct(5, 4), 0, pairs)).all_passed

    @pytest.mark.parametrize(
        "pairs, why", BAD_FORCED_PAIRS.values(), ids=list(BAD_FORCED_PAIRS)
    )
    def test_bad_pairs_are_a_structure_failure(self, pairs, why):
        # the pairs are checked for shape, not against the derived ones
        assert forced_pairs_failure(pairs) == why
        bad = with_forced_pairs(construct(5, 4), 0, pairs)
        failing = {c.name: c.diagnostics for c in validate_all(bad).failures()}
        assert failing == {"structure": (f"node 1: {why}",)}
        with pytest.raises(ValueError, match="refusing unvalidated series"):
            count_dimension(bad)

    @pytest.mark.parametrize(
        "pairs", [None, 0, False, [("1", "2")]], ids=["none", "zero", "false", "list"]
    )
    def test_pairs_that_are_not_a_tuple_are_refused(self, pairs):
        # a falsy value must reach the rule too: one that skipped it passed
        # validation and then crashed the ledger and the stability check
        why = f"forced pairs {pairs!r} are not a tuple"
        assert forced_pairs_failure(pairs) == why
        bad = with_forced_pairs(construct(5, 4), 0, pairs)
        failing = {c.name: c.diagnostics for c in validate_all(bad).failures()}
        assert failing == {"structure": (f"node 1: {why}",)}
        with pytest.raises(LedgerRefusal, match="refusing unvalidated series"):
            count_dimension(bad)
        for refuse in (check_stable, canonical_form, canonical_key):
            with pytest.raises(ValueError, match=re.escape(f"node 1: {why}")):
                refuse(bad)


def _reference_pinned_direction(component, row_index, side):
    """The pinning rule decided row by row: the reference for ``_pinned_directions``."""
    bundle = component.bundle
    u, v = component.table.rows[row_index - 1]
    if isinstance(bundle, SplitLineBundle):
        return None
    if isinstance(bundle, Indecomposable):
        marked = (bundle.marked_u, bundle.marked_v)
        if (u, v) == marked:
            return "m"
        shifted = (u + 1, v) if side == "P" else (u, v + 1)
        if shifted == marked and 2 * (bundle.marked_u + bundle.marked_v) == bundle.degree:
            return "m"
        return None
    if component.is_generic:
        return None
    alive = []
    for token, summand in (("1", bundle.first), ("2", bundle.second)):
        p, q = summand.pair
        if u + v > p + q:
            continue
        if u + v == p + q:
            if (u, v) == (p, q):
                alive.append(token)
            continue
        if u + v == p + q - 1:
            shifted = (u + 1, v) if side == "P" else (u, v + 1)
            if shifted != (p, q):
                alive.append(token)
            continue
        alive.append(token)
    if len(alive) == 1:
        return alive[0]
    return None


def _reference_forced_pairs(left, right, matching, twist):
    """The per-row derivation that reads the left component itself."""
    pairs = []
    for t, t2 in enumerate(matching, start=1):
        if left.table.rows[t - 1][1] + right.table.rows[t2 - 1][0] != twist:
            continue
        dl = _reference_pinned_direction(left, t, "Q")
        dr = _reference_pinned_direction(right, t2, "P")
        if dl is None or dr is None:
            continue
        if (dl, dr) in pairs:
            continue
        for el, er in pairs:
            if el == dl or er == dr:
                raise ValueError(
                    f"inconsistent forced directions: {dl}->{dr} conflicts with {el}->{er}"
                )
        pairs.append((dl, dr))
    if len(pairs) > 2:
        raise ValueError(f"more than two forced direction pairs: {pairs}")
    return tuple(sorted(pairs))


def _swap_summands(c):
    if not isinstance(c.bundle, Split):
        return c
    return Component(c.bundle.swapped(), c.table, c.moduli_freedom)


class TestForcedPairsDifferential:
    """``derive_forced_pairs`` on ``q_side(left)`` against the per-row
    derivation, which applies the reference pinning rule to the left
    component itself."""

    CELLS = [
        (g, k) for k in range(2, 9) for g in range(theorem_threshold(k), 21)
    ]

    @staticmethod
    def _agree(left, right, matching, twist, outcomes):
        try:
            want = _reference_forced_pairs(left, right, matching, twist)
        except ValueError as e:
            with pytest.raises(ValueError, match=re.escape(str(e))):
                derive_forced_pairs(q_side(left), right, matching, twist)
            outcomes.add("raises")
            return
        assert derive_forced_pairs(q_side(left), right, matching, twist) == want
        outcomes.add(len(want))

    def _nodes(self, swap):
        for g, k in self.CELLS:
            s = construct(g, k)
            for n, node in enumerate(s.nodes):
                left = s.components[n]
                yield (_swap_summands(left) if swap else left), s.components[n + 1], node, s

    @pytest.mark.parametrize("swap", [False, True], ids=["as-built", "swapped"])
    def test_every_constructed_node(self, swap):
        outcomes = set()
        for left, right, node, s in self._nodes(swap):
            self._agree(left, right, node.matching, s.twist, outcomes)
        assert {0, 1, 2} <= outcomes

    def test_random_permutation_matchings(self):
        rng = random.Random(20)
        outcomes = set()
        for left, right, node, s in self._nodes(swap=False):
            for _ in range(3):
                matching = list(node.matching)
                rng.shuffle(matching)
                self._agree(left, right, tuple(matching), s.twist, outcomes)
                self._agree(_swap_summands(left), right, tuple(matching), s.twist, outcomes)
        assert {0, 1, 2} <= outcomes

    def test_conflicting_directions_raise_in_both(self):
        # no constructed node conflicts: both left rows pin summand 1 at Q,
        # and the right rows they meet pin different summands at P
        left = Component(split(0, 3, 0, 1), VanishingTable([(0, 3), (1, 1)]))
        right = Component(split(0, 2, 2, 0), VanishingTable([(0, 2), (2, 0)]))
        outcomes = set()
        self._agree(left, right, (1, 2), 3, outcomes)
        assert outcomes == {"raises"}


# ---------------------------------------------------------------------------
# reference validators, one pass over the components per check and every row
# in Python: validate_all must give equal reports, diagnostic for diagnostic


def _reference_summand_pairs(bundle):
    if isinstance(bundle, Split):
        return [bundle.first.pair, bundle.second.pair]
    if isinstance(bundle, SplitLineBundle):
        return [bundle.pair]
    raise TypeError(f"no summands on {type(bundle).__name__}")


def _reference_admissibility_failures(bundle, table, generic=False):
    failures = []
    if isinstance(bundle, Indecomposable):
        marked_used = False
        for j, (u, v) in enumerate(table.rows, start=1):
            if 2 * (u + v) <= bundle.degree - 2:
                continue
            if (u, v) == (bundle.marked_u, bundle.marked_v) and not marked_used:
                marked_used = True
                continue
            failures.append(
                f"row {j} ({u},{v}) not chargeable to indecomposable bundle "
                f"(degree {bundle.degree}, marked ({bundle.marked_u},{bundle.marked_v}))"
            )
        return failures
    summands = _reference_summand_pairs(bundle)
    slot_needed = []
    for j, (u, v) in enumerate(table.rows, start=1):
        if any(u + v == p + q - 1 for p, q in summands):
            continue
        if not generic and any((u, v) == (p, q) and u + v == p + q for p, q in summands):
            slot_needed.append((j, (u, v)))
            continue
        failures.append(f"row {j} ({u},{v}) not chargeable to any summand")
    for pair in sorted(set(pv for _, pv in slot_needed)):
        needed = sum(1 for _, pv in slot_needed if pv == pair)
        available = summands.count(pair)
        if needed > available:
            rows = [j for j, pv in slot_needed if pv == pair]
            failures.append(
                f"rows {rows} all require the distinguished section of summand {pair}, "
                f"which occurs {available} time(s)"
            )
    return failures


def _reference_node_condition_failures(s):
    failures = []
    k = s.sections
    for n, node in enumerate(s.nodes, start=1):
        if sorted(node.matching) != list(range(1, k + 1)):
            failures.append(f"node {n}: matching {node.matching} is not a bijection")
            continue
        left = s.components[n - 1].table
        right = s.components[n].table
        for t, t2 in enumerate(node.matching, start=1):
            v = left.rows[t - 1][1]
            u = right.rows[t2 - 1][0]
            if v + u < s.twist:
                failures.append(
                    f"node {n}: rows {t}->{t2} have v+u = {v}+{u} < twist {s.twist}"
                )
    return failures


def _reference_structure_failures(s):
    failures = []
    if s.twist < 1:
        failures.append(f"twist {s.twist} must be a positive integer")
    if s.rank not in (1, 2):
        failures.append(f"rank {s.rank} unsupported")
    if len(s.components) != s.chain.length:
        failures.append(f"{len(s.components)} components on a chain of length {s.chain.length}")
    if len(s.nodes) != s.chain.length - 1:
        failures.append(f"{len(s.nodes)} nodes on a chain of length {s.chain.length}")
    for i, c in enumerate(s.components, start=1):
        if len(c.table) != s.sections:
            failures.append(f"component {i}: {len(c.table)} rows, expected {s.sections}")
        if type(c.moduli_freedom) is not int or c.moduli_freedom not in (0, 1):
            failures.append(f"component {i}: moduli_freedom {c.moduli_freedom!r}")
        if s.rank == 1 and not isinstance(c.bundle, SplitLineBundle):
            failures.append(f"component {i}: rank-1 series needs line bundles")
        if s.rank == 2 and isinstance(c.bundle, SplitLineBundle):
            failures.append(f"component {i}: rank-2 series needs rank-two bundles")
        if isinstance(c.bundle, Indecomposable) and c.moduli_freedom:
            failures.append(f"component {i}: indecomposable bundles are never generic")
        for j, (u, v) in enumerate(c.table.rows, start=1):
            if u < 0 or v < 0:
                failures.append(f"component {i} row {j}: negative vanishing ({u},{v})")
    # the forced-pair rule has its own hand cases in TestForcedPairsRule
    for n, node in enumerate(s.nodes, start=1):
        if why := forced_pairs_failure(node.forced_pairs):
            failures.append(f"node {n}: {why}")
    return failures


def _reference_monotonicity_failures(s):
    failures = []
    for i, c in enumerate(s.components, start=1):
        us, vs = c.table.us, c.table.vs
        if any(us[j] > us[j + 1] for j in range(len(us) - 1)):
            failures.append(f"component {i}: u not nondecreasing {us}")
        if any(vs[j] < vs[j + 1] for j in range(len(vs) - 1)):
            failures.append(f"component {i}: v not nonincreasing {vs}")
    return failures


def _reference_multiplicity_failures(s):
    failures = []
    for i, c in enumerate(s.components, start=1):
        for label, values in (("u", c.table.us), ("v", c.table.vs)):
            for value in sorted(set(values)):
                count = values.count(value)
                if count > s.rank:
                    failures.append(
                        f"component {i}: {label}-value {value} occurs {count} times "
                        f"(rank {s.rank} allows {s.rank})"
                    )
    return failures


def _reference_degree_condition(s):
    total = sum(c.degree for c in s.components)
    m = len(s.components)
    return total - s.rank * (m - 1) * s.twist == s.degree


def _reference_determinacy_failures(s):
    failures = []
    for i, c in enumerate(s.components, start=1):
        if isinstance(c.bundle, Indecomposable):
            if c.bundle.degree > 2 * s.twist:
                failures.append(
                    f"component {i}: indecomposable degree {c.bundle.degree} "
                    f"> 2*twist {2 * s.twist}"
                )
            continue
        degrees = [p + q for p, q in _reference_summand_pairs(c.bundle)]
        if any(d > s.twist for d in degrees):
            failures.append(f"component {i}: summand degree {max(degrees)} > twist {s.twist}")
    return failures


def _reference_canonical_determinant_failures(s):
    failures = []
    g = s.genus
    for i, c in enumerate(s.components, start=1):
        if i > g:
            failures.append(f"component {i}: beyond genus {g}, no canonical restriction")
            continue
        p, q = 2 * i - 2, 2 * g - 2 * i
        if isinstance(c.bundle, Indecomposable):
            if c.bundle.degree != p + q:
                failures.append(
                    f"component {i}: degree {c.bundle.degree} != canonical degree {p + q}"
                )
            continue
        if isinstance(c.bundle, SplitLineBundle):
            got = c.bundle.pair
        else:
            first, second = c.bundle.first, c.bundle.second
            got = (first.p + second.p, first.q + second.q)
        if got != (p, q):
            failures.append(
                f"component {i}: determinant ({got[0]},{got[1]}) != canonical ({p},{q})"
            )
    return failures


def _reference_validate_all(s):
    checks = []
    structure = _reference_structure_failures(s)
    checks.append(CheckResult("structure", not structure, tuple(structure)))
    mono = _reference_monotonicity_failures(s)
    checks.append(CheckResult("monotonicity", not mono, tuple(mono)))
    mult = _reference_multiplicity_failures(s)
    checks.append(CheckResult("multiplicity", not mult, tuple(mult)))
    adm = []
    for i, c in enumerate(s.components, start=1):
        adm.extend(
            f"component {i}: {msg}"
            for msg in _reference_admissibility_failures(c.bundle, c.table, c.is_generic)
        )
    checks.append(CheckResult("admissibility", not adm, tuple(adm)))
    ok_a = _reference_degree_condition(s)
    checks.append(
        CheckResult(
            "degree-condition",
            ok_a,
            ()
            if ok_a
            else (
                f"sum(d_i) - r*(M-1)*a = "
                f"{sum(c.degree for c in s.components)} - {s.rank}*{len(s.components) - 1}*{s.twist}"
                f" != {s.degree}",
            ),
        )
    )
    node_failures = _reference_node_condition_failures(s)
    checks.append(CheckResult("node-condition", not node_failures, tuple(node_failures)))
    determinacy = _reference_determinacy_failures(s)
    checks.append(CheckResult("determinacy", not determinacy, tuple(determinacy)))
    canonical = _reference_canonical_determinant_failures(s)
    checks.append(CheckResult("canonical-determinant", not canonical, tuple(canonical)))
    flags = tuple(
        f"component {i}: indecomposable; determinant checked on degree only, "
        f"determinacy by the degree <= 2*twist criterion"
        for i, c in enumerate(s.components, start=1)
        if isinstance(c.bundle, Indecomposable)
    )
    return ValidationReport(tuple(checks), flags)


_CHECK_NAMES = [c.name for c in validate_all(construct(5, 4)).checks]


def _with_component(s, i, component):
    comps = list(s.components)
    comps[i] = component
    return replace(s, components=tuple(comps))


def _mutant(s, rng):
    """``s`` with one to three seeded edits: table entries moved by +-1 or
    +-3 or made negative, a table's rows shuffled, a split's summands
    swapped, a node's matching permuted, or a copy of a component appended
    with an identity node, on a chain of the old or the new length."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(s.components))
        c = s.components[i]
        rows = [list(row) for row in c.table.rows]
        edit = rng.choice(("entry", "entry", "negative", "shuffle", "swap", "matching", "append"))
        if edit in ("entry", "negative"):
            row = rng.choice(rows)
            at = rng.randrange(2)
            row[at] = -rng.randint(1, 3) if edit == "negative" else row[at] + rng.choice(
                (-3, -1, 1, 3)
            )
        elif edit == "shuffle":
            rng.shuffle(rows)
        elif edit == "swap":
            c = _swap_summands(c)
        elif edit == "matching":
            if not s.nodes:
                continue
            n = rng.randrange(len(s.nodes))
            matching = list(s.nodes[n].matching)
            rng.shuffle(matching)
            nodes = list(s.nodes)
            nodes[n] = NodeGluing(tuple(matching), nodes[n].forced_pairs)
            s = replace(s, nodes=tuple(nodes))
            continue
        else:
            s = replace(
                s,
                chain=rng.choice((s.chain, ChainCurve(s.genus, len(s.components) + 1))),
                components=s.components + (c,),
                nodes=s.nodes + (NodeGluing(tuple(range(1, s.sections + 1))),),
            )
            continue
        s = _with_component(s, i, Component(c.bundle, VanishingTable(rows), c.moduli_freedom))
    return s


def _balanced_bundle_mutant(s, rng):
    """``s`` with one summand's ``q`` up by one and another's down by one,
    on one component or two, or with one summand's ``p`` moved to its
    ``q``: the degree sum still holds."""
    summands = [
        (i, t)
        for i, c in enumerate(s.components)
        if not isinstance(c.bundle, Indecomposable)
        for t in range(2 if isinstance(c.bundle, Split) else 1)
    ]
    comps = list(s.components)
    # (p, q) steps: a q moved between two summands, or a p moved to its q
    edits = ((0, 1), (0, -1)) if rng.randrange(3) else ((-1, 1),)
    for (i, t), (dp, dq) in zip(rng.sample(summands, len(edits)), edits):
        c = comps[i]
        lines = [c.bundle.first, c.bundle.second] if isinstance(c.bundle, Split) else [c.bundle]
        lines[t] = SplitLineBundle(max(lines[t].p + dp, 0), max(lines[t].q + dq, 0))
        bundle = Split(*lines) if isinstance(c.bundle, Split) else lines[0]
        comps[i] = Component(bundle, c.table, c.moduli_freedom)
    return replace(s, components=tuple(comps))


def _oracle_leaves(g, r, k):
    return [parse_series(key) for key in enumerate_series(SearchSpace(g, r, k)).solutions]


def _identical_row_swaps(s):
    """``s`` once per node with two identical left rows, their matching entries swapped.

    The swap pairs the same row values, so each is a valid series whose
    matching is not the identity."""
    swaps = []
    for n, node in enumerate(s.nodes):
        left = s.components[n].table.rows
        t = next((t for t in range(s.sections - 1) if left[t] == left[t + 1]), None)
        if t is not None:
            m = list(node.matching)
            m[t], m[t + 1] = m[t + 1], m[t]
            nodes = s.nodes[:n] + (replace(node, matching=tuple(m)),) + s.nodes[n + 1 :]
            swaps.append(replace(s, nodes=nodes))
    return swaps


@pytest.fixture(scope="module")
def corpus():
    """The sweep grid for k 2..8 and g up to 30, the benchmark's file cells
    (150,16) and (300,30), the canonical series for g up to 20, the oracle
    leaves of (4,2,2) and (5,2,4), and series with identical-row swaps in
    their matchings."""
    grid = [construct(g, k) for k in range(2, 9) for g in range(theorem_threshold(k), 31)]
    files = [construct(150, 16), construct(300, 30)]
    rank1 = [canonical_limit_series(g) for g in range(2, 21)]
    swapped = _identical_row_swaps(construct(9, 4)) + _identical_row_swaps(construct(8, 5))
    return (
        grid + files + rank1 + _oracle_leaves(4, 2, 2) + _oracle_leaves(5, 2, 4) + swapped
    )


class TestValidateAllDifferential:
    """``validate_all`` (column passes, and the per-component and per-node
    units for a series they do not pass) and the per-component pinning
    rule, against the per-check and per-row reference code."""

    @staticmethod
    def _same_directions(c):
        rows = c.table.rows
        for side in ("P", "Q"):
            want = [_reference_pinned_direction(c, t, side) for t in range(1, len(rows) + 1)]
            assert list(_pinned_directions(c, side)) == want
        assert q_side(c) == tuple((v, d) for (_, v), d in zip(rows, want))

    def test_built_and_oracle_series(self, corpus):
        for s in corpus:
            assert validate_all(s) == _reference_validate_all(s)
            assert validate_all(s).all_passed
            for c in s.components:
                self._same_directions(c)
        assert len(corpus) > 900
        assert any(n.matching != tuple(range(1, s.sections + 1)) for s in corpus for n in s.nodes)

    def test_seeded_mutants(self, corpus):
        rng = random.Random(9)
        failing = set()
        outcomes = set()
        for _ in range(5000):
            s = _mutant(rng.choice(corpus), rng)
            report = validate_all(s)
            assert report == _reference_validate_all(s)
            failing.update(c.name for c in report.failures())
            for n, node in enumerate(s.nodes):
                left, right = s.components[n], s.components[n + 1]
                self._same_directions(left)
                TestForcedPairsDifferential._agree(left, right, node.matching, s.twist, outcomes)
        assert failing >= {
            "structure", "monotonicity", "multiplicity", "admissibility", "node-condition",
            "canonical-determinant",
        }
        assert {0, 1, 2} <= outcomes

    def test_bundle_and_twist_mutants(self, corpus):
        # the degree sum, determinacy and the canonical determinant, decided
        # by the column passes and the units, against the reference's
        # per-check passes
        rng = random.Random(10)
        failing = set()
        for _ in range(2000):
            s = rng.choice(corpus)
            edit = rng.choice(("twist", "bundle", "bundle"))
            if edit == "twist":
                s = replace(s, twist=s.twist + rng.choice((-1, 1)))
            else:
                i = rng.randrange(len(s.components))
                c = s.components[i]
                b, step = c.bundle, rng.choice((-1, 1, 2))
                if isinstance(b, Split):
                    b = Split(SplitLineBundle(b.first.p, max(b.first.q + step, 0)), b.second)
                elif isinstance(b, SplitLineBundle):
                    b = SplitLineBundle(b.p, max(b.q + step, 0))
                else:
                    b = Indecomposable(b.degree + 2 * step, b.marked_u, b.marked_v)
                s = _with_component(s, i, Component(b, c.table, c.moduli_freedom))
            report = validate_all(s)
            assert report == _reference_validate_all(s)
            failing.update(c.name for c in report.failures())
        assert failing >= {"determinacy", "canonical-determinant", "degree-condition"}

    @pytest.mark.parametrize("g, r, k", [(5, 2, 4), (6, 2, 3), (6, 1, 6)])
    def test_table_options(self, g, r, k):
        space = SearchSpace(g, r, k)
        interned = {}
        for i in range(1, g + 1):
            _table_options(space, i, (0,) * k, -(10**9), interned)
        options = [o.comp for o in interned.values()]
        assert len(options) > 250
        for c in options:
            self._same_directions(c)


class TestUnitLocality:
    """Each unit of ``validate_all`` reads its own component or node: an edit
    to component i's table fails only component i's unit and the units of
    nodes i - 1 and i, and the report is the units' items grouped by check."""

    @staticmethod
    def _units(s):
        """Each unit's items on ``s``: the whole-series part, then every
        component's, then every node's."""
        k, rank, twist, g = s.sections, s.rank, s.twist, s.genus
        columns = [(c.table.us, c.table.vs) for c in s.components]
        identity = tuple(range(1, k + 1))
        units = {"series": series_failures(s)}
        for i, c in enumerate(s.components, start=1):
            units["component", i] = component_failures(i, c, rank, k, twist, g)
        for n, node in enumerate(s.nodes, start=1):
            units["node", n] = node_failures(n, node, columns[n - 1 : n + 1], k, twist, identity)
        return units

    def test_every_unit_passes_the_corpus(self, corpus):
        for s in corpus:
            assert [items for items in self._units(s).values() if items] == []

    def test_entry_mutants_fail_only_their_neighbourhood(self, corpus):
        rng = random.Random(11)
        failing = set()
        for _ in range(3000):
            s = rng.choice(corpus)
            i = rng.randrange(len(s.components))
            row = rng.randrange(len(s.components[i].table))
            bad = mutate_entry(s, i, row, rng.choice("uv"), rng.choice((-1, 1)))
            units = self._units(bad)
            assert units["series"] == []
            near = {("component", i + 1), ("node", i), ("node", i + 1)}
            assert {unit for unit, items in units.items() if items} <= near
            grouped = {}
            for check, message in (item for items in units.values() for item in items):
                grouped.setdefault(check, []).append(message)
            report = validate_all(bad)
            assert {c.name: list(c.diagnostics) for c in report.failures()} == grouped
            failing.update(grouped)
        assert failing >= {
            "structure", "monotonicity", "multiplicity", "admissibility", "node-condition"
        }


    @classmethod
    def _full_walk(cls, s):
        """The checks of the report of a walk over every unit."""
        found = {name: [] for name in _CHECK_NAMES}
        for check, message in (item for items in cls._units(s).values() for item in items):
            found[check].append(message)
        return tuple(CheckResult(name, not d, tuple(d)) for name, d in found.items())

    def test_flagged_units_explain_as_the_full_walk(self, corpus):
        """``validate_all`` runs only the units at the positions the column
        passes flag; on the entry mutants above and the seeded mutants of
        the differential, its report is the full walk's, and every failing
        unit is flagged."""
        rng = random.Random(11)
        mutants = []
        for _ in range(3000):
            s = rng.choice(corpus)
            i = rng.randrange(len(s.components))
            row = rng.randrange(len(s.components[i].table))
            mutants.append(mutate_entry(s, i, row, rng.choice("uv"), rng.choice((-1, 1))))
        rng = random.Random(9)
        mutants += [_mutant(rng.choice(corpus), rng) for _ in range(5000)]
        rng = random.Random(12)
        mutants += [_balanced_bundle_mutant(rng.choice(corpus), rng) for _ in range(2000)]
        flagged_only = 0
        failing_checks = set()
        for s in mutants:
            report = validate_all(s)
            assert report.checks == self._full_walk(s)
            flagged = series_module._columns_pass(s)
            if flagged is not None:
                flagged_only += flagged != ([], [])
                failing_checks.update(c.name for c in report.failures())
                at_components, at_nodes = flagged
                failing = {unit for unit, items in self._units(s).items() if items}
                assert failing - {"series"} <= {
                    *(("component", i + 1) for i in at_components),
                    *(("node", n + 1) for n in at_nodes),
                }
        assert flagged_only > 5000
        assert failing_checks == set(_CHECK_NAMES) - {"degree-condition"}


class TestTableLength:
    """A table with fewer or more rows than ``sections`` is reported, never raised on."""

    @staticmethod
    def _cut(rows):
        s = construct(5, 4)
        c = s.components[2]
        return _with_component(s, 2, Component(c.bundle, VanishingTable(rows), c.moduli_freedom))

    def test_too_short(self):
        s = self._cut(construct(5, 4).components[2].table.rows[:3])
        report = validate_all(s)
        failing = {c.name: c.diagnostics for c in report.failures()}
        assert failing["structure"] == ("component 3: 3 rows, expected 4",)
        assert failing["node-condition"] == (
            "node 2: matching needs 4 rows on components 2 and 3",
            "node 3: matching needs 4 rows on components 3 and 4",
        )
        with pytest.raises(ValueError, match="refusing unvalidated series"):
            count_dimension(s)

    def test_too_long(self):
        s = self._cut(construct(5, 4).components[2].table.rows + ((5, 0),))
        report = validate_all(s)
        assert report == _reference_validate_all(s)
        assert [c.name for c in report.failures()] == ["structure", "admissibility"]
        with pytest.raises(ValueError, match="refusing unvalidated series"):
            count_dimension(s)

    @pytest.mark.parametrize("length", [None, 6], ids=["chain-5", "chain-5-6"])
    def test_component_beyond_genus(self, length):
        s = construct(5, 4)
        longer = replace(
            s,
            chain=ChainCurve(5, length),
            components=s.components + (s.components[-1],),
            nodes=s.nodes + (NodeGluing((1, 2, 3, 4)),),
        )
        report = validate_all(longer)
        assert report == _reference_validate_all(longer)
        failing = {c.name: c.diagnostics for c in report.failures()}
        assert failing["canonical-determinant"] == (
            "component 6: beyond genus 5, no canonical restriction",
        )
        with pytest.raises(ValueError, match="refusing unvalidated series"):
            count_dimension(longer)

    def test_missing_component(self):
        s = construct(5, 4)
        report = validate_all(replace(s, components=s.components[:3]))
        failing = {c.name: c.diagnostics for c in report.failures()}
        assert failing["structure"][0] == "3 components on a chain of length 5"
        assert failing["node-condition"] == (
            "node 3: matching needs 4 rows on components 3 and 4",
            "node 4: matching needs 4 rows on components 4 and 5",
        )

    def test_no_sections(self):
        s = construct(5, 4)
        empty = replace(
            s,
            sections=0,
            components=tuple(
                Component(c.bundle, VanishingTable([]), c.moduli_freedom) for c in s.components
            ),
            nodes=tuple(NodeGluing(()) for _ in s.nodes),
        )
        report = validate_all(empty)
        assert [c.name for c in report.failures()] == ["structure"]
        assert report.failures()[0].diagnostics == ("sections 0 must be a positive integer",)


class TestSerialization:
    @pytest.mark.parametrize(
        "series",
        [
            construct_even(9, 4),
            construct_even(3, 2),
            construct_odd(7, 3),
            construct_odd(13, 7),
            canonical_limit_series(5),
        ],
        ids=["even94", "even32", "odd73", "odd137", "rank1g5"],
    )
    def test_round_trip_byte_identical(self, series):
        text = serialize_series(series)
        again = serialize_series(parse_series(text))
        assert text == again
        assert parse_series(text) == series

    @pytest.mark.parametrize(
        "pairs, why",
        [
            ((1,), "forced pair 1 is not two direction tokens from 1, 2, m"),
            (5, "forced pairs 5 are not a tuple"),
            (None, "forced pairs None are not a tuple"),
            ([("1", "2")], "forced pairs [('1', '2')] are not a tuple"),
            *BAD_FORCED_PAIRS.values(),
        ],
    )
    def test_serialize_refuses_what_the_forced_pair_rule_refuses(self, pairs, why):
        s = with_forced_pairs(construct(5, 4), 2, pairs)
        with pytest.raises(ValueError) as refused:
            serialize_series(s)
        assert str(refused.value) == f"node 3: {why}"

    def test_parse_rejects_unknown_version(self):
        text = serialize_series(construct_even(3, 2)).replace("v1", "v9", 1)
        with pytest.raises(ParseError, match="unknown format version"):
            parse_series(text)

    def test_parse_error_carries_line_number(self):
        text = serialize_series(construct_even(3, 2))
        broken = text.replace("  row 0 2", "  row 0 x", 1)
        with pytest.raises(ParseError, match="line 4"):
            parse_series(broken)

    def test_parse_rejects_wrong_row_count(self):
        lines = serialize_series(construct_even(3, 2)).splitlines()
        del lines[3]
        with pytest.raises(ParseError):
            parse_series("\n".join(lines) + "\n")


def _reference_serialize_series(s):
    """The line-at-a-time writer, one f-string per record."""
    out = [f"{FORMAT_HEADER} {FORMAT_VERSION}"]
    out.append(
        f"genus {s.genus} rank {s.rank} sections {s.sections} "
        f"degree {s.degree} twist {s.twist}"
    )
    for i, c in enumerate(s.components, start=1):
        b = c.bundle
        if isinstance(b, Split):
            kind = f"split {b.first.p} {b.first.q} {b.second.p} {b.second.q}"
        elif isinstance(b, SplitLineBundle):
            kind = f"line {b.p} {b.q}"
        else:
            kind = f"indec {b.degree} {b.marked_u} {b.marked_v}"
        out.append(f"component {i} {kind} moduli {c.moduli_freedom}")
        for u, v in c.table.rows:
            out.append(f"  row {u} {v}")
    for n, node in enumerate(s.nodes, start=1):
        matching = " ".join(str(t) for t in node.matching)
        forced = " ".join(f"{a}:{b}" for a, b in node.forced_pairs) if node.forced_pairs else "-"
        out.append(f"node {n} matching {matching} forced {forced}")
    return "\n".join(out) + "\n"


def _odd_entries(s):
    """``s`` with list matchings, and float and str entries in its first
    matching; table entries can only be ints, which their constructor checks."""
    nodes = [NodeGluing(list(n.matching), n.forced_pairs) for n in s.nodes]
    nodes[0] = NodeGluing((2.0, "1", *s.nodes[0].matching[2:]), (("1", "m"),))
    return replace(s, nodes=tuple(nodes))


@pytest.mark.parametrize(
    "series",
    [
        *(construct(g, k) for g, k in ((9, 4), (7, 3), (40, 3), (80, 7), (300, 16))),
        canonical_limit_series(6),
        _odd_entries(construct(9, 4)),
        _odd_entries(construct(7, 3)),
    ],
    ids=["g9k4", "g7k3", "g40k3", "g80k7", "g300k16", "rank1g6", "odd-entries94", "odd-entries73"],
)
def test_serialize_matches_line_at_a_time_writer(series):
    # the block and matching renderers %-format their fields; the writer
    # they replaced wrote one f-string field at a time
    assert serialize_series(series) == _reference_serialize_series(series)


# serialized files split into alternating whitespace and word tokens
_FILES = [
    re.findall(r"\s+|\S+", serialize_series(s)) for s in (construct(5, 4), construct_odd(7, 3))
]
_WORDS = sorted({t for f in _FILES for t in f if not t.isspace()})


@st.composite
def token_mutants(draw):
    """A constructed file with one to three word tokens edited, inserted or deleted.

    Edits are drawn three times as often as the other two, and mostly as
    integers, because nearly every insertion or deletion breaks the record
    shape and ends in ``ParseError`` before ``validate_all`` sees it.
    """
    tokens = list(draw(st.sampled_from(_FILES)))
    for _ in range(draw(st.integers(1, 3))):
        words = [i for i, t in enumerate(tokens) if not t.isspace()]
        at = draw(st.sampled_from(words))
        op = draw(st.sampled_from(("edit", "edit", "edit", "insert", "delete")))
        new = draw(st.one_of(st.integers(-2, 12).map(str), st.sampled_from(_WORDS)))
        if op == "edit":
            tokens[at] = new
        elif op == "insert":
            tokens[at:at] = [new, " "]
        else:
            del tokens[at]
    return "".join(tokens)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(token_mutants())
def test_token_mutants_parse_or_raise_parse_error(text):
    # the file front door: a mutant either fails to parse with ParseError,
    # or it is a series that validate_all reports on and that keys or
    # raises ValueError
    try:
        s = parse_series(text)
    except ParseError:
        return
    assert validate_all(s).checks
    try:
        assert canonical_key(s)
    except ValueError:
        pass


# ---------------------------------------------------------------------------
# the parser: each component record reading its own run of rows, against
# the line-at-a-time parser

_REFERENCE_BUNDLE_RECORDS = {
    ("split", 4): lambda p1, q1, p2, q2: Split(SplitLineBundle(p1, q1), SplitLineBundle(p2, q2)),
    ("line", 2): SplitLineBundle,
    ("indec", 3): Indecomposable,
}


def _reference_parse_int(token, line_no, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"expected integer {what}, got {token!r}") from None


def _reference_parse_series(text):
    """The line-at-a-time parser with a ``_parse_int`` call per token."""
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
        raise ParseError(1, f"unknown format version {head[1]!r}")
    if len(lines) < 2:
        raise ParseError(2, "missing parameter line")
    params = lines[1].split()
    expected_keys = ["genus", "rank", "sections", "degree", "twist"]
    if len(params) != 10 or params[0::2] != expected_keys:
        raise ParseError(2, f"expected '{' '.join(k + ' <n>' for k in expected_keys)}'")
    g, r, k, d, a = (_reference_parse_int(params[i], 2, params[i - 1]) for i in (1, 3, 5, 7, 9))
    if g < 1:
        raise ParseError(2, f"genus must be >= 1, got {g}")

    components = []
    nodes = []
    pending_bundle = None
    pending_moduli = 0
    pending_rows = []

    def close_component(line_no):
        nonlocal pending_bundle
        if pending_bundle is None:
            return
        if len(pending_rows) != k:
            raise ParseError(
                line_no, f"component {len(components) + 1} has {len(pending_rows)} rows, expected {k}"
            )
        components.append(
            Component(pending_bundle, VanishingTable(pending_rows), pending_moduli)
        )
        pending_bundle = None
        pending_rows.clear()

    for line_no, raw in enumerate(lines[2:], start=3):
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "component":
            close_component(line_no)
            if len(tokens) < 3:
                raise ParseError(line_no, "truncated component record")
            index = _reference_parse_int(tokens[1], line_no, "component index")
            if index != len(components) + 1:
                raise ParseError(line_no, f"component index {index} out of order")
            bkind = tokens[2]
            rest = tokens[3:]
            if len(rest) < 2 or rest[-2] != "moduli":
                raise ParseError(line_no, "component record must end with 'moduli <n>'")
            moduli = _reference_parse_int(rest[-1], line_no, "moduli freedom")
            coeffs = [_reference_parse_int(t, line_no, "bundle coefficient") for t in rest[:-2]]
            make = _REFERENCE_BUNDLE_RECORDS.get((bkind, len(coeffs)))
            if make is None:
                raise ParseError(line_no, f"bad bundle record {bkind!r} {coeffs}")
            try:
                pending_bundle = make(*coeffs)
            except ValueError as e:
                raise ParseError(line_no, f"bad bundle record {bkind!r} {coeffs}: {e}") from None
            pending_moduli = moduli
        elif kind == "row":
            if pending_bundle is None:
                raise ParseError(line_no, "row outside a component record")
            if len(tokens) != 3:
                raise ParseError(line_no, "expected 'row <u> <v>'")
            pending_rows.append(
                (
                    _reference_parse_int(tokens[1], line_no, "u"),
                    _reference_parse_int(tokens[2], line_no, "v"),
                )
            )
        elif kind == "node":
            close_component(line_no)
            if len(tokens) < 4 or tokens[2] != "matching":
                raise ParseError(line_no, "expected 'node <i> matching ... forced ...'")
            index = _reference_parse_int(tokens[1], line_no, "node index")
            if index != len(nodes) + 1:
                raise ParseError(line_no, f"node index {index} out of order")
            try:
                split_at = tokens.index("forced")
            except ValueError:
                raise ParseError(line_no, "node record missing 'forced'") from None
            matching = tuple(
                _reference_parse_int(t, line_no, "matching entry") for t in tokens[3:split_at]
            )
            if len(matching) != k:
                raise ParseError(line_no, f"matching has {len(matching)} entries, expected {k}")
            forced_tokens = tokens[split_at + 1 :]
            if not forced_tokens:
                raise ParseError(line_no, "empty 'forced' field; '-' writes no pairs")
            forced = []
            if forced_tokens != ["-"]:
                for t in forced_tokens:
                    sides = t.split(":")
                    if len(sides) != 2 or not all(
                        x in (DIR_FIRST, DIR_SECOND, DIR_MARKED) for x in sides
                    ):
                        raise ParseError(line_no, f"bad forced pair {t!r}")
                    forced.append((sides[0], sides[1]))
            nodes.append(NodeGluing(matching, tuple(forced)))
        else:
            raise ParseError(line_no, f"unknown record {kind!r}")
    close_component(len(lines) + 1)

    if len(components) != g:
        raise ParseError(len(lines), f"{len(components)} components, expected genus {g}")
    if len(nodes) != g - 1:
        raise ParseError(len(lines), f"{len(nodes)} nodes, expected {g - 1}")
    return LimitSeries(
        chain=ChainCurve(g),
        rank=r,
        sections=k,
        degree=d,
        twist=a,
        components=tuple(components),
        nodes=tuple(nodes),
    )


def _same_parse(text):
    """Both parsers give equal series, or ``ParseError`` with equal message
    and line number; returns the series, or the error."""
    try:
        want = _reference_parse_series(text)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            parse_series(text)
        assert (str(got.value), got.value.line_no) == (str(e), e.line_no)
        return e
    assert parse_series(text) == want
    return want


@settings(derandomize=True, deadline=None, max_examples=300)
@given(token_mutants())
def test_token_mutants_parse_as_the_line_parser(text):
    _same_parse(text)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(token_mutants())
def test_token_mutants_round_trip(text):
    try:
        s = parse_series(text)
    except ParseError:
        return
    again = serialize_series(s)
    assert parse_series(again) == s
    assert serialize_series(parse_series(again)) == again


def _single_field_mutants(text):
    """Each ``(tokens, index, step, mutant)`` with one integer token of ``text`` moved by ``step``."""
    lines = text.splitlines(keepends=True)
    for n, line in enumerate(lines):
        tokens = re.findall(r"\s+|\S+", line)
        for j, token in enumerate(tokens):
            if not re.fullmatch(r"-?\d+", token):
                continue
            for step in (-1, 1):
                edited = "".join(tokens[:j] + [str(int(token) + step)] + tokens[j + 1 :])
                yield tokens, j, step, "".join(lines[:n] + [edited] + lines[n + 1 :])


def test_single_field_mutation_probe():
    """Every integer field of a constructed file, moved by one, is caught.

    Each mutant fails to parse, fails ``validate_all``, or is a ``moduli
    1 -> 0`` flip on a free component: that one passes every check, but
    its priced total misses ``rho_canonical``, so ``dim`` exits 2.  The
    ``forced`` fields are not integers and are not mutated here; a
    rewritten ``forced`` field still passes ``verify``, the gap that the
    strict xfail ``test_verify_catches_dropped_forced_pairs`` keeps
    visible.
    """
    outcomes = Counter()
    for g, k in [(5, 4), (7, 3), (9, 4), (8, 5), (12, 6)]:
        for tokens, j, step, text in _single_field_mutants(serialize_series(construct(g, k))):
            try:
                s = parse_series(text)
            except ParseError:
                outcomes["parse"] += 1
                continue
            if not validate_all(s).all_passed:
                outcomes["validate"] += 1
                continue
            assert (tokens[j - 2 : j + 1], step) == (["moduli", " ", "1"], -1), "".join(tokens)
            assert count_dimension(s).total != rho_canonical(g, k)
            outcomes["moduli"] += 1
    assert outcomes == {"parse": 199, "validate": 1487, "moduli": 14}


_K4 = serialize_series(construct(5, 4)).splitlines()  # k = 4, component 2 at line 8


def _edited(edit):
    lines = list(_K4)
    edit(lines)
    return "\n".join(lines) + "\n"


def _set(at, text):
    return lambda lines: lines.__setitem__(at - 1, text)


def _insert(at, text):
    return lambda lines: lines.insert(at - 1, text)


class TestParserHandCases:
    """Malformed row runs and records: the error the line parser gave, at
    the line it gave, and the table read only where its run is well formed."""

    @pytest.mark.parametrize(
        "edit, line_no, message",
        [
            # a row block cut short by the next record
            (_set(12, "node 1 matching 1 2 3 4 forced -"), 12, "component 2 has 3 rows, expected 4"),
            (lambda lines: lines.__delitem__(11), 12, "component 2 has 3 rows, expected 4"),
            (_insert(11, "component 3 split 1 3 3 1 moduli 0"), 11, "component 2 has 2 rows, expected 4"),
            # a row of 2 or 4 tokens
            (_set(10, "  row 0 3 7"), 10, "expected 'row <u> <v>'"),
            (_set(10, "  row 0"), 10, "expected 'row <u> <v>'"),
            # a bad u in the k-th row, a bad v in the first
            (_set(12, "  row x 1"), 12, "expected integer u, got 'x'"),
            (_set(9, "  row 0 4.0"), 9, "expected integer v, got '4.0'"),
            # an unknown record inside a block, a last block cut by the end
            # of the file
            (_set(10, "  rw 0 3"), 10, "unknown record 'rw'"),
            (lambda lines: lines.__delitem__(slice(25, None)), 26, "component 5 has 2 rows, expected 4"),
            # the same, with blank lines after it: they count toward the line
            (lambda lines: lines.__setitem__(slice(25, None), ["", "  "]), 28, "component 5 has 2 rows, expected 4"),
            # a bad token in a short run comes before its length
            (
                lambda lines: (_set(9, "  row x 8")(lines), _set(12, "node 1 matching 1 2 3 4 forced -")(lines)),
                9,
                "expected integer u, got 'x'",
            ),
            # a row before any component, a row right after a node record
            (_insert(3, "  row 0 4"), 3, "row outside a component record"),
            (_insert(29, "  row 0 4"), 29, "row outside a component record"),
            # bad matching entries, bad bundle coefficients
            (_set(29, "node 2 matching 1 2 y 4 forced 1:2 2:1"), 29, "expected integer matching entry, got 'y'"),
            (_set(8, "component 2 split 0 4 two 2 moduli 0"), 8, "expected integer bundle coefficient, got 'two'"),
            (_set(8, "component 2 split 0 4 2 2 moduli one"), 8, "expected integer moduli freedom, got 'one'"),
            (_set(8, "component z split 0 4 2 2 moduli 0"), 8, "expected integer component index, got 'z'"),
            (_set(2, "genus 5 rank 2 sections four degree 8 twist 4"), 2, "expected integer sections, got 'four'"),
            # a genus below 1 names the genus, as ChainCurve does, not the
            # component or node count it implies
            (_set(2, "genus 0 rank 2 sections 4 degree 8 twist 4"), 2, "genus must be >= 1, got 0"),
            (_set(2, "genus -1 rank 2 sections 4 degree 8 twist 4"), 2, "genus must be >= 1, got -1"),
            # an empty forced field would be read as no pairs and written back as '-'
            (_set(28, "node 1 matching 1 2 3 4 forced"), 28, "empty 'forced' field; '-' writes no pairs"),
        ],
    )
    def test_errors(self, edit, line_no, message):
        err = _same_parse(_edited(edit))
        assert isinstance(err, ParseError)
        assert (err.line_no, str(err)) == (line_no, f"line {line_no}: {message}")

    @pytest.mark.parametrize(
        "edit",
        [_insert(10, ""), _insert(10, "   \t "), _insert(9, ""), _insert(13, "")],
        ids=["blank", "whitespace", "after-record", "after-block"],
    )
    def test_blank_line_in_or_by_a_block_is_ignored(self, edit):
        assert _same_parse(_edited(edit)) == construct(5, 4)

    @pytest.mark.parametrize(
        "edit",
        [
            _set(8, "component 02 split 0 4 2 2 moduli 0"),
            _set(29, "node 002 matching 1 2 3 4 forced 1:2 2:1"),
            _set(8, "component 2 split 0 4 2 2 moduli -0"),
            _set(10, "  row 00 3"),
        ],
        ids=["component-index", "node-index", "moduli", "row"],
    )
    def test_integers_not_written_as_the_format_writes_them(self, edit):
        assert _same_parse(_edited(edit)) == construct(5, 4)

    def test_extra_row_after_a_full_block(self):
        err = _same_parse(_edited(_insert(13, "  row 2 1")))
        assert str(err) == "line 14: component 2 has 5 rows, expected 4"


def test_per_token_checks_run_only_on_failure(monkeypatch):
    calls = []
    shipped = series_module._parse_int

    def counting(*args):
        calls.append(args)
        return shipped(*args)

    monkeypatch.setattr(series_module, "_parse_int", counting)
    counts = []
    for g, k in ((40, 3), (1000, 30)):
        calls.clear()
        parse_series(serialize_series(construct(g, k)))
        counts.append(len(calls))
    assert counts[0] == counts[1]
    calls.clear()
    with pytest.raises(ParseError, match="line 12: expected integer u"):
        parse_series(_edited(_set(12, "  row x 1")))
    assert calls  # the failing block is re-read token by token


def _lines(first, last, *texts):
    """Lines ``first`` to ``last`` (1-based, inclusive) replaced by ``texts``."""
    return lambda lines: lines.__setitem__(slice(first - 1, last), list(texts))


def _swap(at, other):
    def edit(lines):
        lines[at - 1], lines[other - 1] = lines[other - 1], lines[at - 1]

    return edit


_K16 = serialize_series(construct(150, 16)).splitlines()  # 2,400 body rows, 3 row chunks


def _body_row(j, k=16):
    """The 1-based line number of body row ``j`` (1-based) of a k-section file."""
    return 2 + (j - 1) // k * (k + 1) + (j - 1) % k + 2


def _on_k16(edit):
    """``edit`` applied to the g = 150, k = 16 file in place of _K4."""

    def on_k16(lines):
        lines[:] = _K16
        edit(lines)

    return on_k16


def _entry(line_no, at, text):
    """Entry ``at`` (1 for u, 2 for v) of row line ``line_no`` set to ``text``."""

    def edit(lines):
        fields = lines[line_no - 1].split()
        fields[at] = text
        lines[line_no - 1] = "  " + " ".join(fields)

    return edit


_HUGE = "1" * 5000  # past CPython's default int-string limit of 4,300 digits

# files off the writer's layout, or on its line count with a line the writer
# would not write: each must read as the line parser reads it (line numbers
# as in _K4: component 2 at line 8, its rows at 9-12, node 1 at line 28).
# Body rows 1,024 and 1,025 of _K16 are the last row of the first chunk of
# rows the layout read decodes at once and the first row of the second.
LAYOUT_MUTANTS = {
    "row-split": _lines(10, 10, "  row 0", "3"),
    "row-split-same-count": _lines(10, 12, "  row 0", "3", "  row 2 2  row 2 1"),
    "rows-joined": _lines(11, 12, "  row 2 2  row 2 1"),
    "rows-joined-same-count": _lines(11, 12, "  row 2 2  row 2 1", ""),
    "tab-indent": _lines(10, 10, "\trow 0 3"),
    "tab-separated": _lines(10, 10, "  row\t0\t3"),
    "record-tab-indent": _lines(8, 8, "\tcomponent 2 split 0 4 2 2 moduli 0"),
    "extra-indent": _lines(10, 10, "   row 0 3"),
    "no-indent": _lines(10, 10, "row 0 3"),
    "double-space": _lines(10, 10, "  row  0 3"),
    "trailing-space": _lines(10, 10, "  row 0 3 "),
    "record-trailing-space": _lines(8, 8, "component 2 split 0 4 2 2 moduli 0 "),
    "blank-line": _lines(10, 10, "  row 0 3", ""),
    "blank-for-a-row": _lines(10, 10, ""),
    "blank-for-a-record": _lines(8, 8, ""),
    "leading-zeros": _lines(10, 10, "  row 00 03"),
    "minus-zero": _lines(9, 9, "  row -0 4"),
    "row-too-many": _lines(10, 10, "  row 0 3", "  row 0 3"),
    "row-too-few": _lines(10, 10),
    "row-too-many-node-too-few": lambda lines: (
        _lines(31, 31)(lines), _lines(10, 10, "  row 0 3", "  row 1 3")(lines)
    ),
    "row-swapped-with-record": _swap(12, 13),
    "record-swapped-with-row": _swap(7, 8),
    "row-swapped-with-node": _swap(27, 28),
    "forced-double-space": _lines(28, 28, "node 1 matching 1 2 3 4 forced  -"),
    "forced-on-an-identity-node": _lines(30, 30, "node 3 matching 1 2 3 4 forced 1:2"),
    "permuted-matching": _lines(30, 30, "node 3 matching 2 1 3 4 forced -"),
    "matching-leading-zero": _lines(28, 28, "node 1 matching 01 2 3 4 forced -"),
    "node-tab": _lines(28, 28, "node\t1 matching 1 2 3 4 forced -"),
    "node-out-of-order": _lines(30, 30, "node 4 matching 1 2 3 4 forced -"),
    "bad-record-on-layout": _lines(8, 8, "component 2 split 0 4 2 x moduli 0"),
    "record-index-leading-zero": _lines(8, 8, "component 02 split 0 4 2 2 moduli 0"),
    "record-index-out-of-order": _lines(8, 8, "component 3 split 0 4 2 2 moduli 0"),
    "coefficient-leading-zero": _lines(8, 8, "component 2 split 0 4 2 02 moduli 0"),
    "coefficient-double-zero": _lines(8, 8, "component 2 split 00 4 2 2 moduli 0"),
    "coefficient-minus-zero": _lines(8, 8, "component 2 split -0 4 2 2 moduli 0"),
    "coefficient-negative": _lines(8, 8, "component 2 split -1 5 2 2 moduli 0"),
    "free-split-shares-text": _lines(8, 8, "component 2 split 1 3 1 3 moduli 1"),
    "moduli-double-zero": _lines(8, 8, "component 2 split 0 4 2 2 moduli 00"),
    "moduli-two": _lines(8, 8, "component 2 split 0 4 2 2 moduli 2"),
    "indec-on-layout": _lines(8, 8, "component 2 indec 8 2 1 moduli 0"),
    "indec-marked-beyond-degree": _lines(8, 8, "component 2 indec 4 3 3 moduli 0"),
    "indec-coefficient-count": _lines(8, 8, "component 2 indec 8 2 moduli 0"),
    "line-in-rank-2": _lines(8, 8, "component 2 line 2 2 moduli 0"),
    "record-kind-unknown": _lines(8, 8, "component 2 sum 0 4 2 2 moduli 0"),
    "bad-node-on-layout": _lines(29, 29, "node 2 matching 1 2 3 4 forced 1:3"),
    "digit-limit-u": _entry(4, 1, _HUGE),
    "digit-limit-v": _entry(12, 2, _HUGE),
    "leading-zero-end-of-chunk": _on_k16(_entry(_body_row(1024), 1, "063")),
    "leading-zero-start-of-chunk": _on_k16(_entry(_body_row(1025), 2, "092")),
    "minus-zero-start-of-chunk": _on_k16(_entry(_body_row(1025), 1, "-0")),
    "digit-limit-start-of-chunk": _on_k16(_entry(_body_row(1025), 1, _HUGE)),
}


class TestLayoutDifferential:
    """The layout-sliced read against the line-at-a-time parser: files off
    the writer's layout, and every file the writer writes."""

    @pytest.mark.parametrize("edit", LAYOUT_MUTANTS.values(), ids=LAYOUT_MUTANTS.keys())
    def test_layout_mutants_parse_as_the_line_parser(self, edit):
        _same_parse(_edited(edit))

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda text: text.replace("\n", "\r\n"),
            lambda text: text.replace("\n", "\r"),
            lambda text: text + "\n",
            lambda text: text[:-1],
            lambda text: re.sub(r"(twist \d+\n)", r"\1\n", text, count=1),
        ],
        ids=["crlf", "cr", "trailing-blank-line", "no-final-newline", "blank-after-parameters"],
    )
    def test_line_end_mutants_parse_as_the_line_parser(self, rewrite):
        for s in (construct(5, 4), construct_odd(7, 3), canonical_limit_series(4)):
            assert _same_parse(rewrite(serialize_series(s))) == s

    @pytest.mark.parametrize(
        "name", ["leading-zero-end-of-chunk", "leading-zero-start-of-chunk", "minus-zero-start-of-chunk"]
    )
    def test_chunk_boundary_entries(self, name):
        # JSON refuses a leading zero, so the layout read hands the file to
        # the line parser, which reads the written value; -0 is read as 0
        # by both, and by the layout read itself
        text = _edited(LAYOUT_MUTANTS[name])
        want = _same_parse(text)
        layout = series_module._parse_layout(text.splitlines(), 150, 16)
        if name.startswith("leading-zero"):
            assert want == construct(150, 16)
            assert layout is None
        else:
            assert want.components[64].table.us[0] == 0
            assert layout == (list(want.components), list(want.nodes))

    @pytest.mark.skipif(
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(_HUGE),
        reason="no int-string digit limit below the entry's length",
    )
    @pytest.mark.parametrize(
        "name, line_no, what",
        [("digit-limit-u", 4, "u"), ("digit-limit-v", 12, "v"), ("digit-limit-start-of-chunk", 1092, "u")],
    )
    def test_entry_past_the_digit_limit_is_a_parse_error(self, name, line_no, what):
        # CPython refuses the entry in the layout read's JSON decode; the
        # line parser names its line
        err = _same_parse(_edited(LAYOUT_MUTANTS[name]))
        assert isinstance(err, ParseError)
        assert err.line_no == line_no
        assert str(err).startswith(f"line {line_no}: expected integer {what}, got '111")

    def test_every_written_file_is_read_by_layout_slices(self, corpus, monkeypatch):
        def refuse(*args):
            raise AssertionError("read line by line")

        monkeypatch.setattr(series_module, "_parse_lines", refuse)
        for s in corpus:
            assert parse_series(serialize_series(s)) == s


class TestColumnTables:
    """A table is its ``us`` and ``vs`` columns, however it was built."""

    def test_rows_and_columns_build_equal_tables(self, corpus):
        for s in corpus:
            for c in s.components:
                t = c.table
                rows = tuple(zip(t.us, t.vs))
                from_rows, from_columns = VanishingTable(rows), _column_table(t.us, t.vs)
                assert from_rows == from_columns == t
                assert hash(from_rows) == hash(from_columns) == hash(t)
                assert from_rows.rows == from_columns.rows == t.rows == rows
                assert len(from_rows) == len(from_columns) == len(rows)

    @pytest.mark.parametrize("base", [construct(9, 4), construct(7, 3)], ids=["g9k4", "g7k3"])
    def test_odd_entries_refused(self, base):
        # float, bool, str and tuple table entries are refused when the
        # table is built, naming the first row that has one; odd matchings
        # stay representable, and the validator names them
        rows = base.components[1].table.rows
        for odd, message in (
            (((0.5, True), ("3", (1, 2))), "row 1: non-integer vanishing (0.5,True)"),
            ((rows[0], ("3", (1, 2))), "row 2: non-integer vanishing ('3',(1, 2))"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                VanishingTable(odd + rows[2:])
        failing = {c.name: c.diagnostics for c in validate_all(_odd_entries(base)).failures()}
        matching = base.nodes[0].matching[2:]
        assert failing == {
            "node-condition": (f"node 1: matching {(2.0, '1', *matching)} is not a bijection",)
        }

    def test_package_built_tables_hold_only_ints(self, corpus, monkeypatch):
        # _column_table checks nothing and validate_all reads no entry type,
        # so every table the package builds from its own columns must hold
        # ints: the construction's, the layout reader's and the search's
        built = []

        def recorded(us, vs):
            built.append(us + vs)
            return _column_table(us, vs)

        for name in ("series", "construct", "search"):
            module = importlib.import_module(f"ellchain.{name}")
            monkeypatch.setattr(module, "_column_table", recorded)
        runs = {
            "construct": lambda: [
                construct(g, k)
                for k in range(2, 32)
                for g in range(theorem_threshold(k), theorem_threshold(k) + 3)
            ],
            "canonical": lambda: [canonical_limit_series(g) for g in range(2, 21)],
            "layout": lambda: [
                series_module._parse_layout(serialize_series(s).splitlines(), s.genus, s.sections)
                for s in corpus
            ],
            "search": lambda: [
                enumerate_series(SearchSpace(g, r, k))
                for g, r, k in ((4, 2, 2), (5, 2, 4), (6, 1, 6), (7, 2, 3))
            ],
        }
        for source, run in runs.items():
            built.clear()
            assert None not in run(), source
            assert built, source
            assert all(type(x) is int for entries in built for x in entries), source


# ---------------------------------------------------------------------------
# a table refuses an entry, and a series a header field, that is not an int;
# validate_all reports a moduli freedom or matching entry that is not


class TestEntryTypes:
    def test_rows_kept_as_given(self):
        assert VanishingTable([[1, 2], (3, 4)]).rows == ((1, 2), (3, 4))
        assert VanishingTable([]).rows == ()

    @pytest.mark.parametrize("row", [(1, 2, 3), (1,), ()])
    def test_row_that_is_not_a_pair_refused(self, row):
        with pytest.raises(ValueError, match=re.escape(f"row 2 {row!r} is not a (u, v) pair")):
            VanishingTable([(0, 1), row])

    @pytest.mark.parametrize("column", [0, 1], ids=["u", "v"])
    @pytest.mark.parametrize("entry", [0.9, "2", 2.0, True], ids=["float", "str", "2.0", "bool"])
    def test_non_int_entry_is_a_structure_failure(self, entry, column):
        # the table's constructor refuses the entry, naming its row
        rows = list(construct(5, 4).components[2].table.rows)  # row 3 is (2, 1)
        rows[2] = (entry, 1) if column == 0 else (2, entry)
        u, v = rows[2]
        message = f"row 3: non-integer vanishing ({u!r},{v!r})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            VanishingTable(rows)

    def test_float_equal_to_an_int_is_still_refused(self):
        # 2.0 == 2, so the table would equal the constructed one, which every
        # check passes; only the entry type tells them apart
        rows = ((0, 3), (1, 3), (2.0, 1), (3, 1))
        assert rows == construct(5, 4).components[2].table.rows
        with pytest.raises(ValueError, match=re.escape("row 3: non-integer vanishing (2.0,1)")):
            VanishingTable(rows)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rank", 2.0),
            ("rank", True),
            ("sections", 4.0),
            ("sections", "4"),
            ("degree", 8.0),
            ("degree", True),
            ("twist", 4.0),
            ("twist", True),
        ],
    )
    def test_non_int_header_field_is_a_structure_failure(self, field, value):
        # a header field equal to an int (2.0, True) must not pass, and one
        # that does not count or compare ("4") must not crash: the series'
        # constructor, which dataclasses.replace runs, refuses both
        message = f"{field} {value!r} is not an int"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(construct(5, 4), **{field: value})

    @pytest.mark.parametrize("moduli", [True, 1.0, "1"])
    def test_moduli_freedom_that_is_not_an_int_is_a_structure_failure(self, moduli):
        # component 6 of construct(9, 4) is generic (moduli 1), so a value
        # equal to 1 passes every other check; the file writer would write
        # "moduli True", which the parser refuses
        s = construct(9, 4)
        c = s.components[5]
        assert c.moduli_freedom == 1
        bad = _with_component(s, 5, Component(c.bundle, c.table, moduli))
        failing = {c.name: c.diagnostics for c in validate_all(bad).failures()}
        assert failing == {"structure": (f"component 6: moduli_freedom {moduli!r}",)}
        with pytest.raises(ValueError, match="refusing unvalidated series"):
            count_dimension(bad)

    @pytest.mark.parametrize(
        "matching", [(1, 2, 3.0, 4), (2, 1, 3.0, 4), (1, "2", 3, 4), (True, 2, 3, 4)]
    )
    def test_non_int_matching_entry_is_a_node_condition_failure(self, matching):
        # entries equal to an int (3.0, True) must not pass, and entries that
        # do not sort or index (a str, a float out of place) must not crash
        s = construct(5, 4)
        bad = replace(s, nodes=(replace(s.nodes[0], matching=matching),) + s.nodes[1:])
        failing = {c.name: c.diagnostics for c in validate_all(bad).failures()}
        assert failing == {"node-condition": (f"node 1: matching {matching} is not a bijection",)}
        with pytest.raises(ValueError, match="refusing unvalidated series"):
            count_dimension(bad)

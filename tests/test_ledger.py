import pytest

from ellchain import (
    Split,
    canonical_limit_series,
    construct,
    construct_even,
    construct_odd,
    corollary_range,
    count_dimension,
    rho_canonical,
    rho_general,
    theorem_threshold,
)
from helpers import mutate_entry


class TestRhoFormulas:
    def test_rho_general_rank2_canonical_degree(self):
        # with d = 2g-2 and r = 2 the formula collapses to 4g - 3 - k^2
        for g in range(2, 31):
            for k in range(0, 9):
                assert rho_general(2, 2 * g - 2, g, k) == 4 * g - 3 - k * k
        assert rho_general(2, 8, 5, 4) == 1

    def test_rho_general_spot_values(self):
        assert rho_general(1, 0, 7, 0) == 7  # Jacobian
        assert rho_general(2, 0, 1, 0) == 1
        # classical rank-1 value rho = g - k*(k - d + g - 1)
        assert rho_general(1, 4, 3, 2) == 3 - 2 * (2 - 4 + 2)
        assert rho_general(1, 2 * 6 - 2, 6, 6) == 0  # canonical series is rigid

    def test_rho_canonical_spot_values(self):
        assert rho_canonical(11, 7) == 2  # a surface
        assert rho_canonical(5, 4) == 2
        for g in range(2, 31):
            assert rho_canonical(g, 0) == 3 * g - 3


class TestThresholds:
    @pytest.mark.parametrize(
        "k,expected",
        [(2, 3), (3, 3), (4, 5), (5, 7), (6, 9), (7, 13), (8, 16), (10, 25), (9, 21)],
    )
    def test_values(self, k, expected):
        assert theorem_threshold(k) == expected

    def test_rejects_tiny_k(self):
        with pytest.raises(ValueError):
            theorem_threshold(1)


class TestCorollaryRange:
    @pytest.mark.parametrize(
        "k,expected",
        [(4, (4, 6)), (6, (9, 15)), (7, (13, 21)), (8, (16, 28)), (5, (7, 10))],
    )
    def test_intervals(self, k, expected):
        assert corollary_range(k) == expected

    def test_excess_on_usable_intersection(self):
        for k in range(4, 9):
            lo, hi = corollary_range(k)
            for g in range(max(lo, theorem_threshold(k)), hi):
                assert rho_canonical(g, k) > rho_general(2, 2 * g - 2, g, k)

    def test_k4_usable_range_is_genus_five_only(self):
        lo, hi = corollary_range(4)
        usable = [g for g in range(lo, hi) if g >= theorem_threshold(4)]
        assert usable == [5]


    def test_range_is_cached_and_refusals_are_not(self, monkeypatch):
        corollary_range.cache_clear()
        assert corollary_range(7) == corollary_range(7) == (13, 21)
        assert corollary_range.cache_info().hits == 1
        # an internal defect and a bad k raise on every call
        corollary_range.cache_clear()
        monkeypatch.setattr("ellchain.ledger.rho_canonical", lambda g, k: 0)
        for _ in range(2):
            with pytest.raises(AssertionError, match="internal defect: no excess at g=13, k=7"):
                corollary_range(7)
            with pytest.raises(ValueError):
                corollary_range(1)
        assert corollary_range.cache_info().currsize == 0
        monkeypatch.undo()
        assert corollary_range(7) == (13, 21)


class TestCountDimension:
    def test_even_5_4_itemization(self):
        led = count_dimension(construct_even(5, 4))
        assert led.gluing_subtotal == 14
        assert led.gluing_params == (4, 2, 4, 4)
        assert led.moduli_subtotal == 1
        assert led.endo_subtotal == 14
        assert led.stability_term == 1
        assert led.total == 2 == rho_canonical(5, 4)

    def test_odd_7_3_itemization(self):
        led = count_dimension(construct_odd(7, 3))
        assert led.gluing_params == (4, 3, 4, 4, 4, 4)
        assert led.gluing_subtotal == 23
        assert led.moduli_subtotal == 4
        assert led.endo_subtotal == 16
        assert led.total == 12 == rho_canonical(7, 3)

    def test_even_closed_forms(self):
        for k in (2, 4, 6, 8):
            k1 = k // 2
            for g in range(theorem_threshold(k), 31):
                led = count_dimension(construct_even(g, k))
                assert led.gluing_subtotal == 4 * g - k1 * k1 + k1 - 4
                assert led.endo_subtotal == 4 * k1 + 2 * (g - k1)
                assert led.moduli_subtotal == g - k1 * k1
                assert led.total == 3 * g - 2 * k1 * k1 - k1 - 3

    def test_four_dimensional_endos_sit_at_squares(self):
        s = construct_even(30, 8)
        led = count_dimension(s)
        fours = [i for i, e in enumerate(led.endo_dims, start=1) if e == 4]
        assert fours == [1, 4, 9, 16]
        for i in fours:
            bundle = s.components[i - 1].bundle
            assert isinstance(bundle, Split)
            assert bundle.first == bundle.second

    def test_grid_identity(self):
        for k in range(2, 9):
            for g in range(theorem_threshold(k), 31):
                assert count_dimension(construct(g, k)).total == rho_canonical(g, k)

    def test_refuses_invalid_series(self):
        bad = mutate_entry(construct_even(9, 4), 3, 2, "v", +1)
        with pytest.raises(ValueError, match="refusing unvalidated"):
            count_dimension(bad)

    def test_refuses_rank_one(self):
        with pytest.raises(ValueError, match="rank-two"):
            count_dimension(canonical_limit_series(5))

"""Acceptance suite: one test per criterion, exact integer equalities.

Every criterion prints a single ``ACCEPTANCE <n> ...: PASS/FAIL`` line
(visible with ``pytest -s``); the test outcome carries the same verdict.
"""

import random
import time

import pytest

from ellchain import (
    SearchSpace,
    canonical_key,
    canonical_limit_series,
    check_stable,
    construct,
    construct_even,
    construct_odd,
    corollary_range,
    count_dimension,
    enumerate_series,
    external_stable_case,
    prefix_key,
    rho_canonical,
    rho_general,
    theorem_threshold,
    validate_all,
)
from ellchain.cli import main as cli_main
from helpers import all_entries, mutate_entry

GRID = [
    (g, k) for k in range(2, 9) for g in range(theorem_threshold(k), 31)
]

MUTATION_SAMPLE = [
    (30, 2), (3, 3), (9, 3), (5, 4), (30, 4), (7, 5), (10, 6), (13, 7), (16, 8),
]


class criterion:
    def __init__(self, n: int, name: str):
        self.n, self.name = n, name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.n} {self.name}: {status}")
        return False


def test_criterion_1_dimension_identity():
    with criterion(1, "dimension identity over the full grid"):
        start = time.perf_counter()
        for g, k in GRID:
            total = count_dimension(construct(g, k)).total
            assert total == rho_canonical(g, k), (g, k, total)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"grid took {elapsed:.1f}s"


def test_criterion_2_validators_and_mutations():
    with criterion(2, "validator suite and mutation sensitivity"):
        for g, k in GRID:
            s = construct(g, k)
            report = validate_all(s)
            assert report.all_passed, (g, k, [c.name for c in report.failures()])
            for n, node in enumerate(s.nodes):
                left, right = s.components[n].table, s.components[n + 1].table
                for t, t2 in enumerate(node.matching, start=1):
                    assert left.rows[t - 1][1] + right.rows[t2 - 1][0] == s.twist
        rng = random.Random(20260808)
        for g, k in MUTATION_SAMPLE:
            s = construct(g, k)
            coords = list(all_entries(s))
            for _ in range(100):
                ci, ri, which = coords[rng.randrange(len(coords))]
                delta = rng.choice((-1, 1))
                mutated = mutate_entry(s, ci, ri, which, delta)
                assert not validate_all(mutated).all_passed, (g, k, ci, ri, which, delta)


def test_criterion_3_even_closed_forms():
    with criterion(3, "even-case closed-form cross-checks"):
        for k in (2, 4, 6, 8):
            k1 = k // 2
            for g in range(theorem_threshold(k), 31):
                led = count_dimension(construct_even(g, k))
                assert led.gluing_subtotal == 4 * g - k1 * k1 + k1 - 4, (g, k)
                assert led.total == 3 * g - 2 * k1 * k1 - k1 - 3, (g, k)


def test_criterion_4_numerology():
    with criterion(4, "numerology spot values, thresholds, corollary ranges"):
        assert rho_canonical(11, 7) == 2
        assert theorem_threshold(2) == 3
        assert theorem_threshold(4) == 5
        for k1 in range(3, 6):
            assert theorem_threshold(2 * k1) == k1 * k1
        for k1 in range(1, 6):
            assert theorem_threshold(2 * k1 + 1) == k1 * k1 + k1 + 1
        for k1 in range(1, 6):
            assert corollary_range(2 * k1) == (k1 * k1, 2 * k1 * k1 - k1)
            assert corollary_range(2 * k1 + 1) == (
                k1 * k1 + k1 + 1,
                2 * k1 * k1 + k1,
            )
        for k in range(2, 9):
            lo, hi = corollary_range(k)
            for g in range(max(lo, theorem_threshold(k)), hi):
                assert rho_canonical(g, k) > rho_general(2, 2 * g - 2, g, k), (g, k)


def test_criterion_5_oracle_membership():
    with criterion(5, "oracle membership and rank-1 uniqueness"):
        start = time.perf_counter()
        for g, k in [(3, 2), (4, 2), (5, 4), (6, 4)]:
            report = enumerate_series(SearchSpace(g, 2, k))
            assert canonical_key(construct_even(g, k)) in report.solutions, (g, k)
        prefix = enumerate_series(SearchSpace(7, 2, 3, prefix_length=2))
        assert prefix_key(construct_odd(7, 3), 2) in prefix.solutions
        for g in range(2, 11):
            report = enumerate_series(SearchSpace(g, 1, g))
            assert report.count == 1, g
            assert report.solutions[0] == canonical_key(canonical_limit_series(g))
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"searches took {elapsed:.1f}s"


def test_criterion_6_stability():
    with criterion(6, "stability verdicts with generic free nodes"):
        for g, k in GRID:
            verdict = check_stable(construct(g, k)).verdict
            if external_stable_case(g, k):
                assert verdict == "strictly-semistable"
            else:
                assert verdict == "stable", (g, k)
        report = check_stable(construct_even(5, 4))
        reaching = [c for c in report.killed if len(c.selections) == 5]
        assert reaching and all(c.killed_at == 4 for c in reaching)


def test_criterion_7_determinism(tmp_path, capsys):
    with criterion(7, "bit-identical sweeps and search counts"):
        sweeps = []
        for tag, workers in (("a", 1), ("b", 1), ("c", 2), ("d", 64)):
            path = tmp_path / f"sweep_{tag}.csv"
            code = cli_main(
                [
                    "sweep",
                    "--g-min", "3", "--g-max", "12",
                    "--k-min", "2", "--k-max", "6",
                    "--workers", str(workers),
                    "--out", str(path),
                ]
            )
            assert code == 0
            sweeps.append(path.read_bytes())
        capsys.readouterr()
        assert sweeps[0] == sweeps[1] == sweeps[2] == sweeps[3]
        # the search runs in one process: repeated runs must agree
        runs = [enumerate_series(SearchSpace(5, 2, 4)) for _ in range(3)]
        assert runs[0].count == runs[1].count == runs[2].count
        assert runs[0].solutions == runs[1].solutions == runs[2].solutions
        rank1 = [enumerate_series(SearchSpace(8, 1, 8)) for _ in range(2)]
        assert rank1[0].count == rank1[1].count == 1
        assert rank1[0].solutions == rank1[1].solutions

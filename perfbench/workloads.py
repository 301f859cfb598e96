"""Operation lists for the four benchmark workloads.

An op is one ``ellchain`` command line.  Paths inside the working
directory are written as ``{work}``, so an op's text is the same in every
checkout and can key its pinned output in ``pins.json``.

The seed fixes the order of the ops and, on ``files``, which mutant of
each mutated cell is checked.  The set of possible ops is finite
(``all_ops``), and every one of them is pinned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("sweep", "files", "oracle_dense", "oracle_sparse")

# sweep: one genus band per op, k in 2..16 (the paper's certification grid)
SWEEP_GENERA = range(3, 106)
SWEEP_K = (2, 16)

# files: the (g, k) grid less its cells below the theorem threshold
FILES_G = (40, 80, 150, 300, 600, 1000)
FILES_K = (3, 4, 7, 9, 16, 30)
FILES_BELOW_THRESHOLD = ((40, 16), (40, 30), (80, 30), (150, 30))
FILES_RANK1_G = (40, 80, 160)
# mutants: for each cell, the seed picks one of four table entries moved by
# +-1 (component, row, entry: 0 for u, 1 for v), so every seed checks the
# same amount of work
MUTANT_CELLS = ((80, 7), (300, 16), (1000, 30))

# oracle_dense: rank-2 searches with many leaves, as (g, k, prefix)
DENSE = (
    (4, 2, None), (4, 3, None), (5, 3, None), (5, 4, None), (6, 4, None), (7, 5, None),
    (6, 3, 2), (7, 3, 2), (8, 3, 2), (7, 4, 2), (8, 4, 2), (6, 4, 3),
)
# oracle_sparse: rank-1 uniqueness searches and rank-2 searches with one leaf
SPARSE_RANK1 = range(6, 12)
SPARSE_RANK2 = ((9, 6), (8, 6), (4, 4))
# ``search --r 1 --g 4 --k 3`` ends in an "oracle defect" traceback at the
# commit that introduced this benchmark.  It stays in the workload as a
# probe: it passes only on a documented exit code (0-4) without a
# traceback, and its output is not pinned.
DEFECT_PROBE = ("search", "--r", "1", "--g", "4", "--k", "3")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    out_file: str | None = None  # ``construct --out`` target, pinned too
    probe: bool = False

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def files_cells() -> list[tuple[int, int]]:
    return [(g, k) for g in FILES_G for k in FILES_K
            if (g, k) not in FILES_BELOW_THRESHOLD]


def mutant_variants(g: int, k: int) -> list[tuple[int, int, int, int, int, int]]:
    """(g, k, component, row, entry, delta) for the cell's four mutants."""
    return [(g, k, comp, row, entry, delta)
            for comp, row, entry in ((g // 2, k // 2 + 1, 0), (g // 3, k // 3 + 1, 1))
            for delta in (1, -1)]


def mutant_pool() -> list[tuple[int, int, int, int, int, int]]:
    return [m for g, k in MUTANT_CELLS for m in mutant_variants(g, k)]


def mutant_name(m) -> str:
    g, k, comp, row, entry, delta = m
    return f"mut_g{g}_k{k}_c{comp}_r{row}_{'uv'[entry]}{delta:+d}.series"


def sweep_op(g_min: int, g_max: int, workers: int = 1) -> Op:
    argv = ("sweep", "--g-min", str(g_min), "--g-max", str(g_max),
            "--k-min", str(SWEEP_K[0]), "--k-max", str(SWEEP_K[1]))
    return Op(argv + (("--workers", str(workers)) if workers > 1 else ()))


def search_op(g: int, k: int, r: int = 2, prefix=None, cap=None,
              show: bool = False, workers: int = 1) -> Op:
    argv = ["search", "--r", str(r), "--g", str(g), "--k", str(k)]
    if prefix is not None:
        argv += ["--prefix", str(prefix)]
    if cap is not None:
        argv += ["--cap", str(cap)]
    if workers > 1:
        argv += ["--workers", str(workers)]
    if show:
        argv.append("--show-solutions")
    return Op(tuple(argv))


def _files_ops(rng: random.Random | None, smoke: bool) -> list[Op]:
    cells = files_cells()
    rank1 = list(FILES_RANK1_G)
    if smoke:
        cells, rank1, mutants = cells[:2], rank1[:1], mutant_pool()[:1]
    elif rng is None:
        mutants = mutant_pool()
    else:
        mutants = [rng.choice(mutant_variants(g, k)) for g, k in MUTANT_CELLS]
    ops = []
    for g, k in cells:
        out = f"{{work}}/out/g{g}_k{k}.series"
        ops.append(Op(("construct", "--g", str(g), "--k", str(k), "--out", out), out_file=out))
        ops.append(Op(("verify", f"{{work}}/in/g{g}_k{k}.series")))
        ops.append(Op(("dim", f"{{work}}/in/g{g}_k{k}.series")))
    for g in rank1:
        ops.append(Op(("verify", f"{{work}}/in/canon_g{g}.series")))
    for m in mutants:
        ops.append(Op(("verify", f"{{work}}/in/{mutant_name(m)}")))
        ops.append(Op(("dim", f"{{work}}/in/{mutant_name(m)}")))
    return ops


def _ops(workload: str, rng: random.Random | None, smoke: bool) -> list[Op]:
    if workload == "sweep":
        genera = list(SWEEP_GENERA)[:6] if smoke else SWEEP_GENERA
        return [sweep_op(g, g) for g in genera]
    if workload == "files":
        return _files_ops(rng, smoke)
    if workload == "oracle_dense":
        dense = [DENSE[i] for i in (1, 3, 5, 6)] if smoke else DENSE
        return [search_op(g, k, prefix=p, show=True) for g, k, p in dense]
    if workload == "oracle_sparse":
        rank1 = list(SPARSE_RANK1)[:2] if smoke else SPARSE_RANK1
        rank2 = SPARSE_RANK2[-1:] if smoke else SPARSE_RANK2
        ops = [search_op(n, n, r=1, cap=11) for n in rank1]
        ops += [search_op(g, k, cap=9) for g, k in rank2]
        return ops + [Op(DEFECT_PROBE, probe=True)]
    raise ValueError(f"unknown workload {workload!r}")


def ops_for(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The ops of one run, in the order the seed gives."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _ops(workload, rng, smoke)
    rng.shuffle(ops)
    return ops


def all_ops(workload: str) -> list[Op]:
    """Every op any seed can produce, for pinning."""
    return _ops(workload, None, False)


def warmup_op(workload: str) -> Op:
    """One op outside the measured list, run during set-up."""
    if workload == "sweep":
        g = max(SWEEP_GENERA) + 1
        return sweep_op(g, g)
    if workload == "files":
        return Op(("verify", "{work}/in/warmup.series"))
    if workload == "oracle_dense":
        return search_op(5, 2, prefix=2, show=True)
    return search_op(5, 5, r=1, cap=11)


def pool_ops(workload: str, smoke: bool = False) -> list[tuple[Op, Op]]:
    """(serial, workers=2) pairs timed for ``cli.pool2``, or none."""
    if workload == "sweep":
        genera = list(SWEEP_GENERA)[:6] if smoke else list(SWEEP_GENERA)
        return [(sweep_op(genera[0], genera[-1]), sweep_op(genera[0], genera[-1], workers=2))]
    if workload == "oracle_dense":
        dense = [DENSE[i] for i in (1, 3, 5, 6)] if smoke else DENSE
        return [
            (search_op(g, k, prefix=p, show=True),
             search_op(g, k, prefix=p, show=True, workers=2))
            for g, k, p in dense
        ]
    return []

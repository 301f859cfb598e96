"""The ellchain benchmark: four CLI workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke        # every workload, tiny, all metrics
    python3 perfbench/run.py --pin          # rewrite pins.json from the current code

``--trace 0`` times passes of the workload's op list, each pass in a fresh
worker process, until ``--seconds`` have gone by, and reports the
end-to-end metrics of ``BENCHMARK.json`` as medians over the passes, in
host-calibrated seconds (hostspin.py).  ``--trace 1`` makes one untraced
pass (the base of ``trace.overhead_frac``), one traced pass with a library
replay (replay.py) and, on ``sweep`` and ``oracle_dense``, the serial
against ``--workers 2`` pairs, and reports the per-layer metrics.  Spans go
to ``perfbench/out/``.  The last line of standard output is the result
JSON.

Every op's exit code and masked stdout hash (and, for ``construct --out``,
the file's hash) must equal ``pins.json``; a mismatch, a traceback or an
exit code outside 0-4 fails the op.  See README.md for the metric map.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from hostspin import spin  # noqa: E402

PINS = HERE / "pins.json"
OUT = HERE / "out"
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_worker(workload: str, seed: int, mode: str, work: Path, smoke: bool) -> dict:
    result = work / f"result-{mode}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--work", str(work),
           "--result", str(result)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    data = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    return data


# ---------------------------------------------------------------------------
# outcome checks


class Tally:
    """Ops attempted and failed; ``correct`` is false on any pin mismatch."""

    def __init__(self, pins: dict):
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.probe_errors: set[str] = set()

    def check(self, rec: dict):
        self.attempted += 1
        ok = rec["error"] is None and isinstance(rec["rc"], int) and 0 <= rec["rc"] <= 4
        if rec["probe"]:
            if not ok:
                self.probe_errors.add(f"{rec['key']}: {rec['error'] or rec['rc']}")
        else:
            got = {k: rec[k] for k in ("rc", "stdout", "file") if k in rec}
            if self.pins.get(rec["key"]) != got:
                ok = False
                self.mismatches.append(f"{rec['key']}: got {got} ({rec['error']})")
        self.failed += not ok

    def mismatch(self, message: str):
        self.mismatches.append(message)

    @property
    def correct(self) -> bool:
        return not self.mismatches


# ---------------------------------------------------------------------------
# metrics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def calibrated(timing: dict) -> float:
    """An interval's own time in calibrated seconds (see hostspin.py)."""
    return timing["seconds"] * timing["calibration"]


def run_seconds(p: dict) -> float:
    return sum(calibrated(r) for r in p["ops"])


def end_to_end(passes: list[dict], tally: Tally) -> dict[str, float]:
    # each op's time is its median over the passes, and the percentile is
    # taken over ops: with the oracle's 10-12 ops a percentile pooled over
    # every sample would sit on the edge between two ops and read the
    # extreme sample of one of them
    by_op: dict[str, list[float]] = {}
    for p in passes:
        for r in p["ops"]:
            by_op.setdefault(r["key"], []).append(calibrated(r))
    op_s = [statistics.median(times) for times in by_op.values()]

    return {
        "run_s": statistics.median(run_seconds(p) for p in passes),
        "op_s.p50": percentile(op_s, 50),
        "op_s.p90": percentile(op_s, 90),
        "setup_s": statistics.median(calibrated(p["setup"]) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }


def span_totals(spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    time_by: dict[str, float] = {}
    calls: dict[str, int] = {}
    for _, _, _, name, _, seconds in spans:
        time_by[name] = time_by.get(name, 0.0) + seconds
        calls[name] = calls.get(name, 0) + 1
    return time_by, calls


# spans that mirror an op's own library work; ``search.leaf_replay`` re-does
# part of ``search.enumerate`` and is left out of the op's library time
LIBRARY_SPANS = ("construct", "series.validate_all", "series.parse", "series.serialize",
                 "ledger.count_dimension", "stability.check_stable", "search.enumerate")


def per_layer(untraced: dict, traced: dict, pairs: list, spins: tuple[float, float]) -> dict:
    t, calls = span_totals(traced["spans"])
    c = traced["counters"]
    enum_s = t.get("search.enumerate", 0.0)
    leaf_s = t.get("search.leaf_replay", 0.0)
    expanded = c.get("search.tables_expanded", 0)
    validations = c.get("series.validate_all.calls", 0)
    op_s = t.get("cli.op", 0.0)
    serial_s = sum(s["seconds"] for s, _ in pairs)
    pooled_s = sum(p["seconds"] for _, p in pairs)
    return {
        "search.enumerate.time_s": enum_s,
        "search.leaf_replay.time_s": leaf_s,
        "search.leaf_share": leaf_s / enum_s if enum_s else 0.0,
        "search.tables_expanded": expanded,
        "search.pruned_capacity": c.get("search.pruned_capacity", 0),
        "search.direction_conflicts": c.get("search.direction_conflicts", 0),
        "search.solutions": c.get("search.solutions", 0),
        "search.yield": c.get("search.solutions", 0) / expanded if expanded else 0.0,
        "series.validate_all.calls": validations,
        "series.validate_all.time_s": t.get("series.validate_all", 0.0),
        "series.validate_all.reject_frac": (
            c.get("series.validate_all.rejects", 0) / validations if validations else 0.0
        ),
        "series.parse.time_s": t.get("series.parse", 0.0),
        "series.parse.bytes": c.get("series.parse.bytes", 0),
        "series.serialize.time_s": t.get("series.serialize", 0.0),
        "series.serialize.bytes": c.get("series.serialize.bytes", 0),
        "construct.calls": calls.get("construct", 0),
        "construct.time_s": t.get("construct", 0.0),
        "ledger.count_dimension.calls": calls.get("ledger.count_dimension", 0),
        "ledger.count_dimension.time_s": t.get("ledger.count_dimension", 0.0),
        "stability.check_stable.time_s": t.get("stability.check_stable", 0.0),
        "stability.chains_killed": c.get("stability.chains_killed", 0),
        "stability.chains_surviving": c.get("stability.chains_surviving", 0),
        "cli.self_s": op_s - sum(t.get(name, 0.0) for name in LIBRARY_SPANS),
        "trace.overhead_frac": run_seconds(traced) / run_seconds(untraced) - 1.0,
        "cli.pool2.serial_s": serial_s,
        "cli.pool2.time_s": pooled_s,
        "cli.pool2.speedup": serial_s / pooled_s if pooled_s else 0.0,
        "host.spin_s": spins[0],
        "host.spin_end_s": spins[1],
    }


# ---------------------------------------------------------------------------
# runs


def measured_run(workload, seed, seconds, work, tally, smoke=False) -> dict[str, float]:
    passes = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds:
        p = run_worker(workload, seed, "measure", work, smoke)
        for rec in p["ops"]:
            tally.check(rec)
        passes.append(p)
        print(f"pass {len(passes)}: run {sum(r['seconds'] for r in p['ops']):.4f}s, "
              f"{run_seconds(p):.4f}s calibrated; setup {p['setup']['seconds']:.4f}s, "
              f"{calibrated(p['setup']):.4f}s calibrated")
    return end_to_end(passes, tally)


def traced_run(workload, seed, work, tally, smoke=False):
    """The untraced pass, the traced pass and the pool pairs, checked."""
    untraced = run_worker(workload, seed, "measure", work, smoke)
    traced = run_worker(workload, seed, "trace", work, smoke)
    for rec in untraced["ops"] + traced["ops"]:
        tally.check(rec)
    if traced["counters"].get("search.leaf_replay.mismatches", 0):
        tally.mismatch("leaf replay keys differ from the emitted solutions")
    pairs = []
    if workloads.pool_ops(workload, smoke=smoke):
        pairs = run_worker(workload, seed, "pool", work, smoke)["pairs"]
        for serial, pooled in pairs:
            tally.check(serial)
            if (pooled["rc"], pooled["stdout"]) != (serial["rc"], serial["stdout"]):
                tally.mismatch(f"{pooled['key']}: pooled output differs from serial")
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"spans-{workload}-seed{seed}{'-smoke' if smoke else ''}.json"
    trace_file.write_text(json.dumps({
        "columns": ["id", "parent", "op_id", "name", "start", "calibrated_seconds"],
        "ops": [r["key"] for r in traced["ops"]],
        "spans": traced["spans"],
        "counters": traced["counters"],
    }), encoding="utf-8")
    return untraced, traced, pairs


def emit(tally: Tally, values: dict, units: dict) -> str:
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} not as declared")
    return json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    })


def one_run(args, declared, pins) -> int:
    spin_start = spin()
    tally = Tally(pins)
    with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as work:
        if args.trace:
            runs = traced_run(args.workload, args.seed, Path(work), tally)
        else:
            values = measured_run(args.workload, args.seed, args.seconds, Path(work), tally)
    spin_end = spin()
    if args.trace:
        values, units = per_layer(*runs, (spin_start, spin_end)), declared["per_layer"]
    else:
        units = declared["end_to_end"]
    for line in tally.mismatches:
        print(f"MISMATCH {line}")
    for line in sorted(tally.probe_errors):
        print(f"known defect probe failed: {line}")
    print(f"host.spin_s start={spin_start:.6f} end={spin_end:.6f}")
    print(emit(tally, values, units))
    return 0


def smoke(declared, pins) -> int:
    """Every workload at tiny size: pins checked, every metric printed."""
    all_correct = True
    for workload in workloads.WORKLOADS:
        tally = Tally(pins)
        spin_start = spin()
        with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as work:
            e2e = measured_run(workload, 0, 0, Path(work), tally, smoke=True)
            runs = traced_run(workload, 0, Path(work), tally, smoke=True)
        layers = per_layer(*runs, (spin_start, spin()))
        # emit() refuses metric sets that differ from BENCHMARK.json
        emit(tally, e2e, declared["end_to_end"])
        emit(tally, layers, declared["per_layer"])
        print(f"== {workload}: correct={tally.correct} attempted={tally.attempted} "
              f"failed={tally.failed}")
        for line in tally.mismatches:
            print(f"   MISMATCH {line}")
        for line in sorted(tally.probe_errors):
            print(f"   known defect probe failed: {line}")
        for kind, values in (("end_to_end", e2e), ("per_layer", layers)):
            for name, unit in declared[kind].items():
                print(f"   {kind:<10} {name:<34} {values[name]:>14.6g} {unit}")
        all_correct &= tally.correct
    print(json.dumps({"smoke_correct": all_correct}))
    return 0 if all_correct else 1


def pin() -> int:
    pins = {}
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as work:
            result = run_worker(workload, 0, "pin", Path(work), False)
        for rec in result["ops"]:
            if rec["probe"]:
                continue
            if rec["error"] is not None:
                raise BenchError(f"cannot pin {rec['key']}: {rec['error']}")
            pins[rec["key"]] = {k: rec[k] for k in ("rc", "stdout", "file") if k in rec}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(pins)} ops to {PINS}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    try:
        if not (ROOT / "src" / "ellchain" / "__init__.py").is_file():
            raise BenchError(f"no ellchain package under {ROOT / 'src'}")
        if args.pin:
            return pin()
        declared = declared_metrics()
        pins = json.loads(PINS.read_text(encoding="utf-8"))
        if args.smoke:
            return smoke(declared, pins)
        if args.workload is None:
            ap.error("--workload is required")
        return one_run(args, declared, pins)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark pass in a fresh process.

Run by ``run.py``, never directly.  The worker imports ``ellchain`` from
the checkout's ``src``, writes the pass's input files, runs a warm-up op
(all of that is set-up), then drives ``ellchain.cli.main(argv)`` in
process, one op at a time.  It writes its result as JSON to ``--result``.

Modes:

* ``measure``: the timed pass; no tracing.
* ``trace``: each op is timed as a span, then its library work is replayed
  through the modules' public functions, each call a child span.
* ``pool``: each (serial, ``--workers 2``) pair of ``workloads.pool_ops``
  timed back to back.
* ``pin``: every op any seed can produce, once, for ``pins.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import replay  # noqa: E402
import workloads  # noqa: E402
from hostspin import Sampler  # noqa: E402

WALL_TIME = re.compile(r"^wall time: .*$", re.MULTILINE)


def import_package():
    src = ROOT / "src"
    if not (src / "ellchain" / "__init__.py").is_file():
        raise SystemExit(f"no ellchain package under {src}")
    sys.path.insert(0, str(src))
    import ellchain
    import ellchain.cli

    if Path(ellchain.__file__).resolve().parent != (src / "ellchain").resolve():
        raise SystemExit(f"imported ellchain from {ellchain.__file__}, not {src}")
    return ellchain


def sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Runs ops through ``cli.main`` and records what each one did."""

    def __init__(self, ellchain, work: Path, sampler: Sampler | None):
        self.main = ellchain.cli.main
        self.work = work
        self.sampler = sampler  # None: untimed

    def argv(self, op: workloads.Op) -> list[str]:
        return [a.replace("{work}", str(self.work)) for a in op.argv]

    def run(self, op: workloads.Op) -> dict:
        out, err = io.StringIO(), io.StringIO()
        error = None
        rc = None
        argv = self.argv(op)
        try:
            timer = self.sampler.interval() if self.sampler else contextlib.nullcontext({})
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    timer as timing:
                rc = self.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # a traceback is a failed op, not a crash
            error = f"{type(e).__name__}: {e}"[:300]
        text = WALL_TIME.sub("wall time: <masked>", out.getvalue())
        text = text.replace(str(self.work), "{work}")
        rec = {"key": op.key, "rc": rc, "stdout": sha(text), "error": error,
               "probe": op.probe, **timing}
        if op.out_file is not None:
            path = Path(op.out_file.replace("{work}", str(self.work)))
            rec["file"] = sha(path.read_bytes()) if path.exists() else None
        return rec


def write_inputs(ellchain, work: Path, workload: str, ops):
    """The series files the ``files`` ops read."""
    (work / "in").mkdir(parents=True, exist_ok=True)
    (work / "out").mkdir(parents=True, exist_ok=True)
    if workload != "files":
        return
    wanted = {a.split("/")[-1] for op in ops for a in op.argv if a.startswith("{work}/in/")}
    wanted.add("warmup.series")
    series = {}
    for g, k in workloads.files_cells():
        series[f"g{g}_k{k}.series"] = lambda g=g, k=k: ellchain.construct(g, k)
    for g in workloads.FILES_RANK1_G:
        series[f"canon_g{g}.series"] = lambda g=g: ellchain.canonical_limit_series(g)
    for m in workloads.mutant_pool():
        series[workloads.mutant_name(m)] = lambda m=m: mutate(ellchain, m)
    series["warmup.series"] = lambda: ellchain.construct(20, 4)
    for name in sorted(wanted):
        data = ellchain.serialize_series(series[name]())
        (work / "in" / name).write_text(data, encoding="utf-8")


def mutate(ellchain, m):
    """The constructed series with one table entry moved by +-1."""
    g, k, comp, row, entry, delta = m
    s = ellchain.construct(g, k)
    c = s.components[comp - 1]
    rows = [list(r) for r in c.table.rows]
    rows[row - 1][entry] += delta
    comps = list(s.components)
    comps[comp - 1] = replace(c, table=ellchain.VanishingTable(rows))
    return replace(s, components=tuple(comps))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("measure", "trace", "pool", "pin"))
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    sampler = Sampler(timer=args.mode != "pool")
    with sampler.interval() as setup:
        ellchain = import_package()
        work = Path(args.work)
        if args.mode == "pin":
            ops = workloads.all_ops(args.workload)
            ops += [serial for smoke in (False, True)
                    for serial, _ in workloads.pool_ops(args.workload, smoke=smoke)]
        else:
            ops = workloads.ops_for(args.workload, args.seed, smoke=args.smoke)
        write_inputs(ellchain, work, args.workload, ops)
        runner = Runner(ellchain, work, None)
        warm = runner.run(workloads.warmup_op(args.workload))
    if warm["error"] is not None or warm["rc"] != 0:
        raise SystemExit(f"warm-up op failed: {warm}")
    runner.sampler = sampler
    result = {"setup": setup}

    if args.mode in ("measure", "pin"):
        result["ops"] = [runner.run(op) for op in ops]
    elif args.mode == "trace":
        tracer = replay.Tracer(sampler)
        recs = []
        for op_id, op in enumerate(ops):
            rec = runner.run(op)
            parent = tracer.add("cli.op", rec["t0"], rec["seconds"] * rec["calibration"],
                                None, op_id)
            with sampler.interval() as timing:
                replay.replay(ellchain, tracer, parent, op_id, runner.argv(op))
            tracer.scale(parent + 1, timing["calibration"])
            recs.append(rec)
        result["ops"] = recs
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    else:
        result["pairs"] = [
            (runner.run(serial), runner.run(pooled))
            for serial, pooled in workloads.pool_ops(args.workload, smoke=args.smoke)
        ]
    result["peak_rss_mb"] = peak_rss_mb()
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

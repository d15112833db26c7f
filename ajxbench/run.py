"""AJX benchmark: one workload per invocation, result as the last stdout line.

Usage (from the repository root)::

    python3 ajxbench/run.py --workload rw-3of5-serial --seed 1 --seconds 10 --trace 0
    python3 ajxbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
tracing.  ``--trace 1`` runs the workload untraced once for reference, then
again with benchmark-side spans around every layer's entry points, and
prints the per-layer metrics.  The last line of stdout is always one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every correctness check passed.
Spans and full results are written under ``.bench_out/ajxbench``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out" / "ajxbench"
#: Deployments built per untraced run; ``setup_s`` is their median.
SETUPS = 3


def _load_program():
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"ajxbench: no program source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metadata(workload, args) -> dict:
    import numpy as np
    from workloads import GC_PERIOD

    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "gc_period_writes": GC_PERIOD,
        "block_size": workload.block_size,
        "code": f"{workload.k}-of-{workload.n}",
        "working_set_blocks": workload.blocks,
        "working_set_stripes": workload.stripes,
        "clients": workload.clients,
    }


def _settle() -> None:
    """Collect set-up garbage and move the survivors out of the collector's
    view, so cyclic-GC pauses in the timed phases scale with the work being
    timed rather than with the benchmark's own heap."""
    gc.collect()
    gc.freeze()


def _stats(clients) -> dict[str, int]:
    fields = ("writes", "write_attempts", "order_retries")
    return {
        f: sum(getattr(c.vol.protocol.stats, f) for c in clients) for f in fields
    }


def run_untraced(workload, seed: int, seconds: float, inject: str | None):
    import workloads as wl

    setups = []
    for _ in range(SETUPS):
        dep = None  # drop the previous deployment before building the next
        gc.collect()
        dep = wl.deploy(workload, seed)
        setups.append(dep.setup_s)
    _settle()
    segments, reps = [], []
    for cycle in range(wl.CYCLES):
        segments.append(wl.foreground(
            dep, seconds=workload.fg_share * seconds / wl.CYCLES))
        amp = wl.space_amp(dep)
        reps.append(wl.repair(
            dep, seed, cycle,
            seconds=workload.degraded_share * seconds / wl.CYCLES))
    problems = wl.check_end_state(dep, reps, inject)
    degraded = [s for rep in reps for s in rep.degraded_s]
    reads = [c.read_s for c in dep.clients]
    writes = [c.write_s for c in dep.clients]
    us = 1e6
    metrics = {
        "setup_s": sorted(setups)[len(setups) // 2],
        "ops_per_s": wl.ops_per_s(dep.clients, segments),
        "read_p50_us": statistics.median(sum(reads, [])) * us,
        "read_p90_us": wl.windowed_p90(reads) * us,
        "write_p50_us": statistics.median(sum(writes, [])) * us,
        "write_p90_us": wl.windowed_p90(writes) * us,
        "degraded_read_p50_us": statistics.median(degraded) * us,
        "degraded_read_p90_us": wl.windowed_p90([degraded]) * us,
        "rebuild_mb_per_s": statistics.median(
            [rate for rep in reps for rate in rep.rebuild_rates]),
        "space_amp": amp,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "setups": len(setups), "reads": sum(map(len, reads)),
        "writes": sum(map(len, writes)),
        "degraded_reads": len(degraded),
        "rebuilt_stripes": sum(rep.recovered for rep in reps),
        "crash_slots": [rep.slot for rep in reps],
    }
    return metrics, problems, *_tally(dep, reps), samples


def _tally(dep, reps) -> tuple[int, int]:
    """(attempted, failed) over foreground ops, degraded reads and stripes."""
    degraded_failed = sum(rep.failed_reads for rep in reps)
    fg_failed = sum(c.failed for c in dep.clients) - degraded_failed
    stripes_failed = sum(len(rep.failed_stripes) for rep in reps)
    attempted = (sum(c.completed for c in dep.clients) + fg_failed
                 + sum(rep.attempts + rep.recovered for rep in reps)
                 + stripes_failed)
    return attempted, fg_failed + degraded_failed + stripes_failed


def run_traced(workload, seed: int, seconds: float, inject: str | None):
    import workloads as wl
    from spans import Recorder, layer_metrics

    # Untraced reference for trace.overhead_share.
    dep = wl.deploy(workload, seed)
    _settle()
    _, wall = wl.foreground(dep, seconds=workload.fg_share * seconds)
    untraced_rate = sum(c.completed for c in dep.clients) / wall
    del dep
    gc.unfreeze()
    gc.collect()

    dep = wl.deploy(workload, seed)
    fg_count = max(workload.clients, int(workload.trace_fg_ops_per_s * seconds))
    degraded_count = max(1, int(workload.trace_degraded_per_s * seconds))
    recorder = Recorder()
    before = _stats(dep.clients)
    _settle()
    recorder.install()
    try:
        _, wall = wl.foreground(dep, count=fg_count)
        after = _stats(dep.clients)
        traced_rate = sum(c.completed for c in dep.clients) / wall
        rep = wl.repair(dep, seed, 0, count=degraded_count,
                        mark=lambda phase: setattr(recorder, "phase", phase))
    finally:
        recorder.uninstall()
    problems = wl.check_end_state(dep, [rep], inject)
    delta = {k: after[k] - before[k] for k in after}
    metrics, messages = layer_metrics(
        recorder, workload.delay(), delta, workload.stripes, rep.recovered
    )
    expected = workload.expected_messages()
    if expected is not None:
        for kind, want in zip(("read", "write"), expected):
            if messages[kind] != {want}:
                problems.append(
                    f"wire check: {kind} ops sent {sorted(messages[kind])} "
                    f"messages, Fig. 1 expects exactly {want}"
                )
    metrics["trace.overhead_share"] = untraced_rate / traced_rate - 1
    attempted, failed = _tally(dep, [rep])
    metrics["failed_op_share"] = failed / attempted
    recorder.dump(OUT / f"spans-{workload.name}.jsonl.gz")
    samples = {"spans": len(recorder.spans),
               "fg_ops": sum(c.completed for c in dep.clients),
               "degraded_reads": len(rep.degraded_s),
               "rebuilt_stripes": rep.recovered}
    return metrics, problems, attempted, failed, samples


def run_one(name: str, args) -> tuple[dict, int]:
    import workloads as wl

    workload = wl.WORKLOADS[name]
    runner = run_traced if args.trace else run_untraced
    metrics, problems, attempted, failed, samples = runner(
        workload, args.seed, args.seconds, args.inject
    )
    units = _units()
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": float(value), "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }
    record = {"meta": _metadata(workload, args), "samples": samples,
              "problems": problems, "result": result}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(f"# {name} {json.dumps(record['meta'])}")
    print(f"# samples {json.dumps(samples)}")
    for metric, entry in result["metrics"].items():
        print(f"# {metric:42s} {entry['value']:14.4f} {entry['unit']}")
    for problem in problems:
        print(f"# INCORRECT: {problem}")
    return result, 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject", choices=("wrong-read", "bad-stripe"),
        help="self-test only: plant a wrong expected value or an "
             "inconsistent stripe; the correctness gate must reject the run",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _load_program()
    import workloads as wl

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in wl.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(wl.WORKLOADS)} or all")
    results = []
    for name in names:
        results.append(run_one(name, args))
        gc.unfreeze()
        gc.collect()
    if len(results) == 1:
        final = results[0][0]
    else:
        final = {
            "correct": all(r["correct"] for r, _ in results),
            "attempted": sum(r["attempted"] for r, _ in results),
            "failed": sum(r["failed"] for r, _ in results),
            "metrics": {
                f"{name}/{metric}": entry
                for name, (r, _) in zip(names, results)
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(final), flush=True)
    return max(code for _, code in results)


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: one workload per run, every answer checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload engine-serial --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with nothing traced; ``--trace 1`` runs the workload again with the
profiler and the benchmark's spans on and reports the per-layer
metrics instead (spans are written to ``.perfbench_out/`` at the end).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record
the host (``os.cpu_count()``, ``nproc``, Python, commit), the latency
sample count and ``failed_share``.  The exit status is nonzero when any
answer was wrong, errored or was refused.

``--repeats N`` (without ``--workload``) runs every workload ``N``
times, interleaved and each in its own process, and prints the median
and interquartile range of every metric.

Workloads, metrics and what each per-layer metric should move are
listed in ``BENCHMARK.json``.  The program under test is imported from
``src/``; nothing in it is changed or instrumented.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+$")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
SCRATCH = Path(".perfbench_tmp")
OUT = Path(".perfbench_out")
HASH_SEED = "0"


def load_spec(root: Path = Path(".")) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def result_line(spec: dict, trace: bool, values: dict, ledger) -> dict:
    """The contract's last line: every metric of the run's kind, by name."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise KeyError(f"metrics missing {missing}, unexpected {extra}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def _settle() -> None:
    """Keep the set-up's objects out of every later garbage collection,
    so collections during the measurement cost what the program's own
    garbage costs."""
    gc.collect()
    gc.freeze()


def run_inproc(workload: str, seed: int, seconds: float, trace: bool, scratch: Path):
    from inproc import InProcess

    run = InProcess(workload, seed, scratch)
    try:
        setups = []
        for _ in range(SETUPS):
            start = time.perf_counter()
            run.setup()
            setups.append(time.perf_counter() - start)
        _settle()
        if trace:
            values = run.trace()
        else:
            values = run.measure(seconds)
            values["setup_s"] = sorted(setups)[len(setups) // 2]
    finally:
        run.close()
    return values, run.ledger, run.windows, run.spans.items


async def _serve(workload: str, seed: int, seconds: float, trace: bool, scratch: Path):
    from serve import Serve

    run = Serve(workload, seed, scratch)
    try:
        setups = []
        for _ in range(SETUPS):
            start = time.perf_counter()
            await run.setup()
            setups.append(time.perf_counter() - start)
        _settle()
        if trace:
            values = await run.trace(seconds)
        else:
            values = await run.measure(seconds)
            values["setup_s"] = sorted(setups)[len(setups) // 2]
            run.check_responses()
    finally:
        await run.close()
    return values, run.ledger, run.windows, getattr(run, "spans", [])


def run_one(spec: dict, args) -> int:
    from measure import host_info, samples_beyond

    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {workloads}")
    SCRATCH.mkdir(exist_ok=True)
    scratch = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir()
    trace = bool(args.trace)
    try:
        if args.workload.startswith("serve-"):
            outcome = asyncio.run(_serve(args.workload, args.seed, args.seconds, trace, scratch))
        else:
            outcome = run_inproc(args.workload, args.seed, args.seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    values, ledger, windows, spans = outcome
    if trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(spans))
    print(json.dumps({"host": host_info(), "workload": args.workload, "seed": args.seed}))
    print(
        json.dumps(
            {
                "latency_samples": sum(windows),
                "latency_windows": len(windows),
                "min_samples_beyond_p99": samples_beyond(min(windows, default=0), 99),
                "failed_share": ledger.share,
                "misses": ledger.misses,
            }
        )
    )
    print(json.dumps(result_line(spec, trace, values, ledger)), flush=True)
    return 0 if ledger.failed == 0 else 1


def run_protocol(spec: dict, args) -> int:
    """Every workload ``--repeats`` times, interleaved, one process each."""
    from measure import host_info, iqr, median

    workloads = [w["name"] for w in spec["workloads"]]
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    status = 0
    for repeat in range(args.repeats):
        # Rotate the order so no workload always runs first.
        shift = repeat % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            seed = args.seed + repeat
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({"host": host_info(), "repeats": args.repeats}))
    for workload in workloads:
        for name, series in values[workload].items():
            print(
                f"{workload:14} {name:30} median {median(series):12.5g} "
                f"iqr {iqr(series):10.4g} {units[name]:6} n={len(series)}"
            )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=0)
    args = parser.parse_args(argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set and dict order over string vertex labels steer the engines'
        # traversal; a fixed hash seed makes equal inputs run equal work.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    spec = load_spec()
    src = Path("src").resolve()
    if not (src / "repro" / "__init__.py").exists():
        print("no program to measure: src/repro is missing here", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    if args.repeats:
        return run_protocol(spec, args)
    if not args.workload:
        parser.error("--workload or --repeats is required")
    return run_one(spec, args)


if __name__ == "__main__":
    sys.exit(main())

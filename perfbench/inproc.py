"""The in-process workloads: ``engine-serial`` and ``parallel-n2``.

One round is a suite pass (every instance under every method, methods
interleaved per instance), one ``solve_many`` batch, and a slice of the
closed request loop.  Rounds repeat until the time is up.  ``solve_s.<m>``
sums each instance's median time over the rounds; the batch time and
the per-slice latency percentiles and rates are medians over rounds.
"""

from __future__ import annotations

import cProfile
import sys
import threading
import time
import warnings
from collections import defaultdict

from repro.duality import decide_duality
from repro.duality.witness import check_result_witness
from repro.hypergraph.canonical import mask_payload
from repro.parallel.batch import solve_batch_entry, solve_many
from repro.parallel.executor import (
    FK_SHARDS_PER_JOB,
    SHARD_RUNNERS,
    TREE_SHARDS_PER_JOB,
    merge_shard_outcomes,
    shard_kind,
    shard_worker_items,
    solve_shards,
)
from repro.parallel.planner import plan_bm, plan_fk, plan_logspace
from repro.select.selector import ColdStartWarning
from repro.service import EnginePool

import suite
from layers import SERVER_ONLY, common_probes, profile_counts
from measure import Ledger, Spans, median, percentile, summed_medians

SERIAL_METHODS = ("bm", "fk-b", "logspace", "tractable", "auto")
SHARDED_METHODS = ("bm", "fk-b", "logspace")
#: The method of every single-instance request (the server's default).
REQUEST_METHOD = "fk-b"
JOBS = 2
#: Seconds of closed request loop per round.
LATENCY_SLICE_S = 3.0
#: Request instances generated per run (cycled by the closed loop).
REQUESTS = 400
#: Verdicts kept for the store probe of the traced run.
STORE_PROBE = 300

warnings.simplefilter("ignore", ColdStartWarning)


def _forget() -> None:
    """Empty the program's memo caches (``functools.lru_cache``).

    The suite repeats instances across rounds and methods, and equal
    hypergraphs hit caches keyed by content (logspace memoises per
    scope), so without this a round would time a replay of the one
    before instead of a first-time decision.
    """
    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _solve(ledger: Ledger, item, method: str, **kw):
    """One timed ``decide_duality`` call on first-seen objects with empty
    caches, checked; (result, seconds)."""
    g, h = item.fresh()
    _forget()
    start = time.perf_counter()
    try:
        result = decide_duality(g, h, method, **kw)
    except Exception as exc:  # noqa: BLE001 - a failed request is counted
        ledger.error(f"{item.name} {method}: {type(exc).__name__}: {exc}")
        return None, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    ledger.check(item, result)
    return result, elapsed


def _batch(ledger: Ledger, items, n_jobs: int, method: str = REQUEST_METHOD):
    """One ``solve_many`` call over ``items``; (results, seconds)."""
    pairs = [i.fresh() for i in items]
    start = time.perf_counter()
    try:
        out = solve_many(pairs, method=method, n_jobs=n_jobs)
    except Exception as exc:  # noqa: BLE001
        for item in items:
            ledger.error(f"{item.name} batch: {type(exc).__name__}: {exc}")
        return [], time.perf_counter() - start
    elapsed = time.perf_counter() - start
    for item, entry in zip(items, out):
        ledger.check(item, entry.result)
    return [entry.result for entry in out], elapsed


class _Inputs:
    """Everything a run solves, generated from the seed."""

    def __init__(self, workload: str, seed: int) -> None:
        self.suite = {"all": suite.engine_suite(seed)}
        if workload == "parallel-n2":
            self.suite.update(suite.parallel_suite(seed))
        self.batch = suite.batch(seed)
        self.requests = suite.request_stream(seed, REQUESTS, "q")
        self.payloads = [
            (mask_payload(i.g), mask_payload(i.h), REQUEST_METHOD)
            for i in self.requests
        ]


class InProcess:
    """One run of an in-process workload."""

    def __init__(self, workload: str, seed: int, scratch) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.parallel = workload == "parallel-n2"
        self.ledger = Ledger()
        self.spans = Spans()
        self.pool: EnginePool | None = None
        self.inputs: _Inputs | None = None
        #: Latency samples of each window a percentile was taken over.
        self.windows: list[int] = []
        #: (instance, result) of the first requests, for the store probe.
        self.verdicts: list = []
        #: Serial results the sharded ones must equal, bit for bit.
        self.reference: dict = {}

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """Generate the inputs; warm the 2-worker pool (parallel-n2)."""
        self.close()
        self.inputs = _Inputs(self.workload, self.seed)
        if self.parallel:
            self.pool = EnginePool(JOBS).start()
            for future in [
                self.pool.submit(solve_batch_entry, p, collect=False)
                for p in self.inputs.payloads[: 2 * JOBS]
            ]:
                future.result()

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None

    # -- one suite pass ---------------------------------------------------

    def _pairs(self):
        """(instance, method) in pass order: methods interleaved per instance."""
        if not self.parallel:
            return [(i, m) for i in self.inputs.suite["all"] for m in SERIAL_METHODS]
        names = {}
        for method in SHARDED_METHODS:
            for item in self.inputs.suite[method]:
                names.setdefault(item.name, (item, []))[1].append(method)
        return [(item, m) for item, methods in names.values() for m in methods]

    def suite_pass(self, profiles=None) -> tuple[dict, list]:
        """Seconds per (instance, method), and (instance, method, result,
        seconds) rows."""
        times: dict[tuple[str, str], float] = {}
        rows = []
        jobs = {"n_jobs": JOBS} if self.parallel else {}
        for item, method in self._pairs():
            profile = profiles.get(method) if profiles else None
            start = time.perf_counter()
            if profile is not None:
                profile.enable()
            result, elapsed = _solve(self.ledger, item, method, **jobs)
            if profile is not None:
                profile.disable()
                self.spans.record(
                    "decide_duality", start, start + elapsed, method=method, instance=item.name
                )
            times[item.name, method] = elapsed
            rows.append((item, method, result, elapsed))
        if self.parallel:
            # tractable has no sharded path: 2 cores reach it through
            # solve_many; auto races its portfolio over 2 workers.  Both
            # run the engine-serial suite.
            common = self.inputs.suite["all"]
            _results, times["suite", "tractable"] = _batch(
                self.ledger, common, JOBS, "tractable"
            )
            for item in common:
                result, elapsed = _solve(self.ledger, item, "auto", n_jobs=JOBS)
                times[item.name, "auto"] = elapsed
                rows.append((item, "auto", result, elapsed))
        return times, rows

    # -- the closed request loop -----------------------------------------

    def request_slice(self, seconds: float, offset: int) -> tuple[list, int]:
        """Closed-loop single-instance requests for ``seconds``: one
        caller in-process (serial), or two callers through the warm
        2-worker pool.  Returns (latencies, next offset)."""
        requests = self.inputs.requests
        latencies: list[float] = []
        lock = threading.Lock()
        counter = [offset]
        deadline = time.perf_counter() + seconds

        def caller():
            while time.perf_counter() < deadline:
                with lock:
                    index = counter[0] % len(requests)
                    counter[0] += 1
                item = requests[index]
                pair = item.fresh() if self.pool is None else None
                start = time.perf_counter()
                try:
                    if pair is not None:
                        result = decide_duality(*pair, REQUEST_METHOD)
                    else:
                        future = self.pool.submit(
                            solve_batch_entry, self.inputs.payloads[index], collect=False
                        )
                        result = future.result()[0]
                except Exception as exc:  # noqa: BLE001
                    with lock:
                        self.ledger.error(f"{item.name}: {type(exc).__name__}: {exc}")
                    continue
                elapsed = time.perf_counter() - start
                with lock:
                    latencies.append(elapsed)
                    self.ledger.check(item, result)
                    if len(self.verdicts) < STORE_PROBE:
                        self.verdicts.append((item, result))

        if self.pool is None:
            caller()
        else:
            threads = [threading.Thread(target=caller) for _ in range(JOBS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return latencies, counter[0]

    # -- the untraced run ---------------------------------------------------

    def measure(self, seconds: float) -> dict:
        passes, batches, p50s, p99s, rates = [], [], [], [], []
        self.windows = []
        offset = 0
        deadline = time.perf_counter() + seconds
        while True:
            times, rows = self.suite_pass()
            self.check_against_serial(rows)
            passes.append(times)
            _results, elapsed = _batch(
                self.ledger, self.inputs.batch, JOBS if self.parallel else 1
            )
            batches.append(elapsed)
            latencies, offset = self.request_slice(LATENCY_SLICE_S, offset)
            p50s.append(percentile(latencies, 50) * 1000)
            p99s.append(percentile(latencies, 99) * 1000)
            rates.append(len(latencies) / LATENCY_SLICE_S)
            self.windows.append(len(latencies))
            if time.perf_counter() >= deadline:
                break
        out = {f"solve_s.{m}": v for m, v in summed_medians(passes).items()}
        out.update(
            {
                "batch_s": median(batches),
                "p50_ms": median(p50s),
                "p99_ms": median(p99s),
                "throughput_rps": median(rates),
            }
        )
        return out

    # -- the traced run -------------------------------------------------------

    def trace(self) -> dict:
        """One untraced pass, then the same pass under the profiler and
        the benchmark's spans; the per-layer numbers of this workload."""
        plain, _rows = self.suite_pass()
        profiles = {m: cProfile.Profile() for m in SERIAL_METHODS}
        traced, rows = self.suite_pass(profiles)
        out: dict[str, float] = defaultdict(float, dict.fromkeys(SERVER_ONLY, 0))
        for method, profile in profiles.items():
            counts = profile_counts(profile)
            chi_calls = counts.pop("chi_calls")
            if method == "fk-b":
                out["duality.fk-b.chi_calls"] = chi_calls
            for name, value in counts.items():
                out[name] += value

        nodes: dict[str, int] = defaultdict(int)
        depth: dict[str, int] = defaultdict(int)
        witness_times, raced, auto_calls = [], 0, 0
        per_instance: dict[str, dict[str, float]] = defaultdict(dict)
        for item, method, result, elapsed in rows:
            if result is None:
                continue
            per_instance[item.name][method] = elapsed
            if method in ("bm", "fk-b", "logspace", "tractable"):
                nodes[method] += result.stats.nodes
                depth[method] += result.stats.max_depth
            if method == "auto":
                auto_calls += 1
                mode = result.stats.extra.get("auto", {}).get("mode")
                raced += mode != "predicted"
            if not result.is_dual:
                start = time.perf_counter()
                check_result_witness(item.g, item.h, result)
                witness_times.append(time.perf_counter() - start)
        for method in ("bm", "fk-b", "logspace", "tractable"):
            out[f"duality.{method}.nodes"] = nodes[method]
            out[f"duality.{method}.max_depth"] = depth[method]
        out["duality.witness_check_ms"] = median(witness_times) * 1000
        out["select.raced_share"] = raced / auto_calls if auto_calls else 0.0
        regret = 0.0
        for times in per_instance.values():
            singles = [times[m] for m in ("bm", "fk-b", "logspace", "tractable") if m in times]
            if "auto" in times and singles:
                regret += times["auto"] - min(singles)
        out["select.regret_s"] = regret
        out.update(self.trace_parallel())

        self.request_slice(LATENCY_SLICE_S, 0)
        out.update(common_probes(self.scratch, self.inputs.requests, self.verdicts))
        plain_s, traced_s = sum(plain.values()), sum(traced.values())
        out["obs.trace_overhead_share"] = (traced_s - plain_s) / plain_s
        return out

    def trace_parallel(self) -> dict:
        """Planner, shard and merge split of every sharded call
        (``parallel-n2``; zero on the serial workload, which bypasses it)."""
        out = {
            "parallel.plan_s": 0.0,
            "parallel.shards": 0,
            "parallel.shard_imbalance": 0.0,
            "parallel.merge_s": 0.0,
            "parallel.hop_s": 0.0,
        }
        if not self.parallel:
            return out
        planners = {
            "fk-b": lambda g, h: plan_fk(g, h, use_b=True, target_shards=JOBS * FK_SHARDS_PER_JOB),
            "bm": lambda g, h: plan_bm(g, h, target_shards=JOBS * TREE_SHARDS_PER_JOB),
            "logspace": lambda g, h: plan_logspace(g, h, target_shards=JOBS * TREE_SHARDS_PER_JOB),
        }
        imbalances = []
        for item, method in self._pairs():
            g, h = item.fresh()
            _forget()
            plan, plan_s = self.spans.timed(f"plan:{method}", planners[method], g, h)
            result, sharded_s = self.spans.timed("solve_shards", solve_shards, plan, JOBS)
            self.ledger.check(item, result)
            out["parallel.plan_s"] += plan_s
            if plan.resolved is not None:
                continue
            runner = SHARD_RUNNERS[shard_kind(plan)]
            outcomes, work = [], []
            for shard in shard_worker_items(plan):
                outcome, seconds = self.spans.timed("shard", runner, shard)
                outcomes.append(outcome)
                work.append(seconds)
            _merged, merge_s = self.spans.timed(
                "merge_shard_outcomes", merge_shard_outcomes, plan, outcomes
            )
            out["parallel.shards"] += len(work)
            out["parallel.merge_s"] += merge_s
            busiest = max(work, default=0.0)
            out["parallel.hop_s"] += sharded_s - busiest - merge_s
            if work:
                imbalances.append(busiest / (sum(work) / len(work)))
        out["parallel.shard_imbalance"] = median(imbalances)
        return out

    # -- the correctness reference ------------------------------------------

    def check_against_serial(self, rows) -> None:
        """Sharded certificates must equal the serial engine's, bit for bit
        (checked after each pass, off the clock)."""
        for item, method, sharded, _elapsed in rows:
            if not self.parallel or method not in SHARDED_METHODS or sharded is None:
                continue
            key = (item.name, method)
            if key not in self.reference:
                self.reference[key] = decide_duality(item.g, item.h, method)
            serial = self.reference[key]
            self.ledger.attempted += 1
            if (serial.verdict, serial.certificate) != (sharded.verdict, sharded.certificate):
                self.ledger.fail(f"{item.name} {method}: sharded certificate differs from serial")

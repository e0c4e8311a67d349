"""The wire workloads: ``serve-fresh`` and ``serve-repeat``.

A ``repro serve --listen`` subprocess (``--jobs 2``, ``--store`` in a
scratch directory, default method fk-b, ``--cache-max 64``) is driven
from this one asyncio process over at most two connections:

* an **open loop** at a fixed rate, about half the closed-loop capacity
  measured on a 2-core box, each request timed from when it was due;
* a **closed loop**: two connections, each keeping ``DEPTH`` requests
  outstanding (saturation), reported as completed requests per second;
* per method, the wire suite sent one request at a time
  (``solve_s.<m>``), and one ``AsyncDualityClient.solve_many`` batch.

``serve-fresh`` sends only new instances (every request is a cache miss
that computes and appends to the journal).  ``serve-repeat`` replays a
working set solved during set-up, four times larger than the in-memory
LRU, with seeded Zipf popularity, so the cold tail falls through to
SQLite.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from repro.net.client import AsyncDualityClient
from repro.net.protocol import encode_hypergraph, parse_response
from repro.parallel.batch import result_from_json
from repro.store import VerdictStore

import suite
from layers import IN_PROCESS_ONLY, common_probes
from measure import Ledger, median, percentile, summed_medians

METHODS = ("bm", "fk-b", "logspace", "tractable", "auto")
CACHE_MAX = 64
WORKING_SET = 4 * CACHE_MAX
ZIPF_S = 1.1
DEPTH = 4
#: Open-loop request rates (1/s): about half the closed-loop capacity
#: of each workload on a 2-core box.  Fixed, so every commit is
#: offered the same load.
RATE = {"serve-fresh": 100.0, "serve-repeat": 600.0}
#: Requests per phase: enough for 10 samples beyond p99 in the open loop.
OPEN_COUNT = {"serve-fresh": 1000, "serve-repeat": 3000}
#: Percentiles are taken per window of 1000 open-loop requests (10
#: samples beyond p99) and reported as the median over windows.
WINDOWS = {"serve-fresh": 1, "serve-repeat": 3}
CLOSED_COUNT = {"serve-fresh": 1000, "serve-repeat": 6000}
#: serve-fresh compacts the store journal every SEGMENT requests.
SEGMENT = 50
SUITE_ROUNDS = 3
#: Linux only; elsewhere the client ACKs as the kernel decides.
QUICKACK = getattr(socket, "TCP_QUICKACK", None)
#: Requests in the traced and untraced overhead probes.
PROBE = 150


def _body(item) -> str:
    """A solve request as JSON without its id (encoded before timing)."""
    return json.dumps(
        {"op": "solve", "g": encode_hypergraph(item.g), "h": encode_hypergraph(item.h)}
    )


class Pipe:
    """One pipelined JSON-lines connection: send now, match replies by id."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.sock = writer.get_extra_info("socket")
        self.pending: dict[int, asyncio.Future] = {}
        self.next_id = 0
        self.response_bytes: list[int] = []
        self.task = asyncio.ensure_future(self._read())

    @classmethod
    async def open(cls, host: str, port: int) -> "Pipe":
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 22)
        return cls(reader, writer)

    async def _read(self) -> None:
        try:
            while True:
                line = await self.reader.readuntil(b"\n")
                self._quickack()
                self.response_bytes.append(len(line))
                response = parse_response(line)
                future = self.pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result((time.perf_counter(), response))
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            for future in self.pending.values():
                if not future.done():
                    future.set_exception(ConnectionError(str(exc)))

    def _quickack(self) -> None:
        """ACK at once instead of delaying.  The server's sockets do not
        set TCP_NODELAY, so with pipelined requests each response waits
        for the ACK of the one before; a delayed ACK makes that wait flip
        between ~0 and ~6 ms within a run."""
        if QUICKACK is not None:
            self.sock.setsockopt(socket.IPPROTO_TCP, QUICKACK, 1)

    def send(self, body: str) -> asyncio.Future:
        """Write one request now; the future gets (receive time, response)."""
        request_id = self.next_id
        self.next_id += 1
        future = asyncio.get_running_loop().create_future()
        self.pending[request_id] = future
        self.writer.write(f'{{"id": {request_id}, {body[1:]}'.encode() + b"\n")
        return future

    async def close(self) -> None:
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


class Server:
    """A ``repro serve --listen`` subprocess in a scratch directory."""

    def __init__(self, scratch: Path) -> None:
        self.directory = scratch / f"server-{time.monotonic_ns()}"
        self.directory.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path("src").resolve())
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--listen", "127.0.0.1:0",
                "--jobs", "2",
                "--store", str(self.directory / "verdicts.db"),
                "--cache-max", str(CACHE_MAX),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        line = self._first_line(60.0)
        try:
            listening = json.loads(line)["listening"]
        except (ValueError, KeyError, TypeError):
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}") from None
        self.host, self.port = listening["host"], listening["port"]

    def _first_line(self, timeout: float) -> str:
        box: list[str] = []
        reader = threading.Thread(target=lambda: box.append(self.proc.stdout.readline()))
        reader.start()
        reader.join(timeout)
        return box[0] if box else ""

    def client(self, trace: bool = False) -> AsyncDualityClient:
        return AsyncDualityClient(self.host, self.port, timeout=120.0, trace=trace)

    async def shutdown(self) -> None:
        try:
            async with self.client() as client:
                await client.shutdown_server()
        except (OSError, ConnectionError, RuntimeError):
            pass
        try:
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: self.proc.wait(timeout=30)
            )
        except subprocess.TimeoutExpired:
            self.kill()
        self.proc.stdout.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


async def _solve_each(client: AsyncDualityClient, items, method: str | None):
    """Round trips one at a time; (seconds each, responses)."""
    times, responses = [], []
    for item in items:
        start = time.perf_counter()
        try:
            response = await client.solve(item.g, item.h, method=method)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            response = {"ok": False, "error": {"message": str(exc)}}
        times.append(time.perf_counter() - start)
        responses.append(response)
    return times, responses


class Serve:
    """One run of a serve workload."""

    def __init__(self, workload: str, seed: int, scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.repeat = workload == "serve-repeat"
        self.ledger = Ledger()
        self.server: Server | None = None
        self.checks: list = []  # (instance, response) to check off the clock
        #: Latency samples of each window a percentile was taken over.
        self.windows: list[int] = []
        self.late: list[float] = []
        self.response_bytes: list[int] = []

    # -- set-up -----------------------------------------------------------

    async def setup(self) -> None:
        """Generate inputs, start and warm the server; for serve-repeat,
        solve the working set, the batch and the wire suite once."""
        await self.close()
        if self.repeat:
            rng = random.Random(f"{self.workload}:{self.seed}")
            self.working = suite.request_stream(self.seed, WORKING_SET, "r")
            self.bodies = [_body(item) for item in self.working]
            weights = [1.0 / rank**ZIPF_S for rank in range(1, WORKING_SET + 1)]
            order = list(range(WORKING_SET))
            rng.shuffle(order)
            self.draw = lambda: order[rng.choices(range(WORKING_SET), weights)[0]]
        else:
            count = OPEN_COUNT[self.workload] + CLOSED_COUNT[self.workload]
            self.fresh = suite.request_stream(self.seed, count, "f")
            self.bodies = [_body(item) for item in self.fresh]
            self.cursor = 0
        self.batch = suite.batch(self.seed)
        self.server = Server(self.scratch)
        async with self.server.client() as client:
            await client.ping()
            warm = suite.request_stream(self.seed, 8, "warm")
            await client.solve_many([(i.g, i.h) for i in warm])
            if self.repeat:
                wire = suite.wire_suite(self.seed, "w")
                chunks = [(self.working, None), (self._batch_items(0), None)]
                chunks += [(wire, m) for m in METHODS if m != "auto"]
                for items, method in chunks:
                    await client.solve_many([(i.g, i.h) for i in items], method=method)
                    await self.compact()
        await self.compact()

    async def compact(self) -> None:
        """Fold the server's store journal into SQLite, as ``repro store
        compact`` does.  Every store miss re-reads the whole journal, so
        without compaction a fresh-request phase slows as it runs (about
        30 µs per journal line per request on a 2-core box); compacting
        every SEGMENT requests keeps the offered work the same throughout."""
        def fold():
            store = VerdictStore(self.server.directory / "verdicts.db")
            try:
                store.compact()
            finally:
                store.close()

        await asyncio.get_running_loop().run_in_executor(None, fold)

    async def close(self) -> None:
        if self.server is not None:
            await self.server.shutdown()
            self.server = None

    # -- request sources -------------------------------------------------------

    def _next(self) -> int:
        """Index of the next request body."""
        if self.repeat:
            return self.draw()
        index = self.cursor
        if index >= len(self.bodies):
            raise RuntimeError("fresh request stream exhausted")
        self.cursor += 1
        return index

    def _item(self, index: int):
        return self.working[index] if self.repeat else self.fresh[index]

    def _batch_items(self, round_no: int):
        """The batch: the same keys on serve-repeat, fresh each round else."""
        tag = "b" if self.repeat else f"b{round_no}"
        return [suite.retag(item, tag) for item in self.batch]

    def _wire_suite(self, round_no: int):
        return suite.wire_suite(self.seed, "w" if self.repeat else f"w{round_no}")

    def _maybe_compact(self, sent: int, tasks: list) -> None:
        """On serve-fresh, start a journal compaction every SEGMENT
        requests, concurrently with the load (as a periodic ``repro store
        compact`` would run)."""
        if not self.repeat and sent % SEGMENT == 0:
            tasks.append(asyncio.ensure_future(self.compact()))

    # -- phases -----------------------------------------------------------

    async def open_loop(self, pipes, rate: float, count: int) -> list[float]:
        """Send on a fixed schedule regardless of replies; latency from due time."""
        start = time.perf_counter() + 0.05
        waits, compactions = [], []
        for n in range(count):
            due = start + n / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            index = self._next()
            sent = time.perf_counter()
            self.late.append(sent - due)
            future = pipes[n % len(pipes)].send(self.bodies[index])
            waits.append((due, index, future))
            self._maybe_compact(n + 1, compactions)
        latencies = []
        for due, index, future in waits:
            try:
                received, response = await asyncio.wait_for(future, 120)
            except Exception as exc:  # noqa: BLE001
                self.ledger.error(f"open loop: {type(exc).__name__}: {exc}")
                continue
            latencies.append(received - due)
            self.checks.append((self._item(index), response))
        await asyncio.gather(*compactions)
        return latencies

    async def closed_loop(self, pipes, count: int) -> tuple[int, float]:
        """DEPTH callers per connection, each sending after its reply,
        until ``count`` requests were sent; (completed, seconds)."""
        left = [count]
        done = [0]
        compactions: list = []

        async def caller(pipe):
            while left[0] > 0:
                left[0] -= 1
                self._maybe_compact(count - left[0], compactions)
                index = self._next()
                try:
                    _received, response = await asyncio.wait_for(
                        pipe.send(self.bodies[index]), 120
                    )
                except Exception as exc:  # noqa: BLE001
                    self.ledger.error(f"closed loop: {type(exc).__name__}: {exc}")
                    continue
                self.checks.append((self._item(index), response))
                done[0] += 1

        begin = time.perf_counter()
        await asyncio.gather(*(caller(p) for p in pipes for _ in range(DEPTH)))
        elapsed = time.perf_counter() - begin
        await asyncio.gather(*compactions)
        return done[0], elapsed

    async def suite_round(self, client, round_no: int) -> tuple[dict, float]:
        """Round-trip seconds per (instance, method) over the wire suite,
        and the seconds of one batch."""
        wire = self._wire_suite(round_no)
        times = {}
        for method in METHODS:
            seconds, responses = await _solve_each(client, wire, method)
            times.update({(i.name, method): t for i, t in zip(wire, seconds)})
            self.checks += list(zip(wire, responses))
            if not self.repeat:
                await self.compact()
        items = self._batch_items(round_no)
        start = time.perf_counter()
        responses = await client.solve_many([(i.g, i.h) for i in items])
        batch_s = time.perf_counter() - start
        self.checks += list(zip(items, responses))
        return times, batch_s

    # -- the untraced run ---------------------------------------------------

    async def measure(self, seconds: float) -> dict:
        deadline = time.perf_counter() + seconds
        pipes = [await Pipe.open(self.server.host, self.server.port) for _ in range(2)]
        try:
            latencies = await self.open_loop(pipes, RATE[self.workload], OPEN_COUNT[self.workload])
            await self.compact()
            completed, busy = await self.closed_loop(pipes, CLOSED_COUNT[self.workload])
            await self.compact()
        finally:
            for pipe in pipes:
                self.response_bytes += pipe.response_bytes
                await pipe.close()
        rounds, batches = [], []
        async with self.server.client() as client:
            round_no = 0
            while round_no < SUITE_ROUNDS or time.perf_counter() < deadline:
                times, batch_s = await self.suite_round(client, round_no)
                rounds.append(times)
                batches.append(batch_s)
                round_no += 1
                await self.compact()
        throughput = completed / busy
        size = len(latencies) // WINDOWS[self.workload]
        windows = [latencies[i * size:(i + 1) * size] for i in range(WINDOWS[self.workload])]
        self.windows = [len(w) for w in windows]
        out = {f"solve_s.{m}": v for m, v in summed_medians(rounds).items()}
        out.update(
            {
                "batch_s": median(batches),
                "p50_ms": median(percentile(w, 50) for w in windows) * 1000,
                "p99_ms": median(percentile(w, 99) for w in windows) * 1000,
                "throughput_rps": throughput,
            }
        )
        return out

    def check_responses(self) -> list:
        """Verdict and witness of every response; (instance, result) pairs."""
        verdicts = []
        for item, response in self.checks:
            if not isinstance(response, dict) or not response.get("ok", True) or "verdict" not in response:
                error = response.get("error") if isinstance(response, dict) else response
                self.ledger.error(f"{item.name}: {error}")
                continue
            result = result_from_json(response)
            if self.ledger.check(item, result):
                verdicts.append((item, result))
        self.checks = []
        return verdicts

    # -- the traced run ---------------------------------------------------------

    async def trace(self, seconds: float) -> dict:
        """The workload as measured, then the same single-request probe
        untraced and traced (client ``trace=True``): span medians, the
        server's ``stats``/``metrics``, and the client-side probes."""
        await self.measure(seconds)
        verdicts = self.check_responses()
        await self.compact()
        if self.repeat:
            untraced = [self.working[self.draw()] for _ in range(PROBE)]
            traced = [self.working[self.draw()] for _ in range(PROBE)]
        else:
            untraced = suite.request_stream(self.seed, PROBE, "u")
            traced = suite.request_stream(self.seed, PROBE, "t")
        async with self.server.client() as client:
            plain_times, responses = await _solve_each(client, untraced, None)
            self.checks += list(zip(untraced, responses))
        await self.compact()
        async with self.server.client(trace=True) as client:
            traced_times, responses = await _solve_each(client, traced, None)
            self.checks += list(zip(traced, responses))
            spans = client.trace_sink.spans()
            stats = await client.stats()
            await client.metrics()
        self.check_responses()
        self.spans = [span.to_dict() for span in spans]

        by_trace: dict[str, dict[str, float]] = defaultdict(dict)
        for span in spans:
            by_trace[span.trace_id][span.name.split(":")[0]] = span.duration_s * 1000
        def span_median(name, minus=None):
            values = [
                t[name] - (t.get(minus, 0.0) if minus else 0.0)
                for t in by_trace.values()
                if name in t
            ]
            return median(values)

        origin = stats.get("responses_by_origin", {})
        hits, misses = stats.get("cache_hits", 0), stats.get("cache_misses", 0)
        plain_p50, traced_p50 = median(plain_times), median(traced_times)
        out = dict.fromkeys(IN_PROCESS_ONLY, 0)
        out |= {
            "service.queue_wait_ms": span_median("queue-wait"),
            "service.engine_ms": span_median("engine"),
            "service.pool_hop_ms": span_median("worker-solve", "engine"),
            "service.origin.computed": origin.get("computed", 0),
            "service.origin.cache": origin.get("cache", 0),
            "service.origin.dedup": origin.get("dedup", 0),
            "service.cache_hit_share": hits / (hits + misses) if hits + misses else 0.0,
            "net.parse_ms": span_median("parse"),
            "net.serialize_ms": span_median("serialize"),
            "net.write_ms": span_median("client-request", "server"),
            "net.response_bytes": median(self.response_bytes),
            "net.late_ms": percentile(self.late, 99) * 1000,
            "store.evictions": stats.get("cache_evictions", 0),
            "obs.trace_overhead_share": (traced_p50 - plain_p50) / plain_p50,
        }
        requests = self.working if self.repeat else self.fresh[:300]
        out.update(common_probes(self.scratch, requests, verdicts[:300]))
        return out

"""Statistics, host facts, the correctness ledger and in-memory spans."""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

from repro.duality.witness import check_result_witness


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def iqr(values) -> float:
    """Distance between the first and third quartile (0 below 2 values)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def summed_medians(passes: list[dict]) -> dict[str, float]:
    """Per method, the sum over instances of each instance's median time
    across passes (``passes`` map ``(instance, method)`` to seconds), so
    one slow call in one pass does not move the total."""
    per_key: dict[tuple, list[float]] = {}
    for times in passes:
        for key, seconds in times.items():
            per_key.setdefault(key, []).append(seconds)
    out: dict[str, float] = {}
    for (_instance, method), values in per_key.items():
        out[method] = out.get(method, 0.0) + median(values)
    return out


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q`` percentile."""
    return count - int(-(-count * q // 100))


def git_commit(root: Path = Path(".")) -> str:
    """The checked-out commit, read from ``.git`` in the checkout only."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info() -> dict:
    """The protocol facts every result records."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


class Ledger:
    """Counts attempted and failed operations, with the first few misses.

    A failure is an error, a refusal, a wrong verdict, an invalid
    certificate, or a sharded certificate that differs from serial.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.misses) < 20:
            self.misses.append(what)

    def check(self, instance, result) -> bool:
        """Verdict against the truth, and the NOT_DUAL witness."""
        self.attempted += 1
        if result.is_dual != instance.dual:
            self.fail(f"{instance.name}: wrong verdict {result.verdict.value}")
            return False
        if not result.is_dual and not check_result_witness(
            instance.g, instance.h, result
        ):
            self.fail(f"{instance.name}: invalid witness")
            return False
        return True

    def error(self, what: str) -> None:
        self.attempted += 1
        self.fail(what)

    @property
    def share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Spans:
    """Benchmark-side spans around calls into each layer, kept in memory."""

    def __init__(self) -> None:
        self.items: list[dict] = []

    def record(self, name: str, start: float, end: float, **tags) -> None:
        self.items.append({"name": name, "start": start, "end": end, **tags})

    def timed(self, name: str, fn, *args, **tags):
        """Call ``fn(*args)``; record its span; return (value, seconds)."""
        start = time.perf_counter()
        value = fn(*args)
        end = time.perf_counter()
        self.record(name, start, end, **tags)
        return value, end - start

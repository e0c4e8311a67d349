"""Self-tests of the benchmark; run from the checkout root::

    python3 perfbench/selftest.py          # every check (a few minutes)
    python3 perfbench/selftest.py --fast   # spec and checker only

Checks that metric names are well formed and unique, that the
predictions cover every per-layer metric, that every workload emits
every metric of ``BENCHMARK.json`` in both modes, and that a wrong
verdict is counted as failed and makes the run exit nonzero.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(Path("src").resolve())]

import run  # noqa: E402

SPEC = run.load_spec()
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYER = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_names():
    names = E2E + LAYER + WORKLOADS
    bad = [n for n in names if not run.NAME.match(n)]
    assert not bad, f"malformed names: {bad}"
    assert len(set(E2E + LAYER)) == len(E2E + LAYER), "a metric name is used twice"
    assert "setup_s" in E2E


def test_predictions():
    predictions = json.loads((HERE / "predictions.json").read_text())["per_layer"]
    assert sorted(predictions) == sorted(LAYER), "predictions must cover every per-layer metric"
    for name, entry in predictions.items():
        for workload, metrics in entry["moves"].items():
            assert workload in WORKLOADS, (name, workload)
            assert set(metrics) <= set(E2E), (name, metrics)
        assert set(entry["bypass"]) <= set(WORKLOADS), name
        assert not set(entry["bypass"]) & set(entry["moves"]), name


def test_checker_counts_a_wrong_verdict():
    from measure import Ledger
    from suite import request_stream

    from repro.duality import decide_duality
    from repro.duality.result import Verdict

    item = next(i for i in request_stream(0, 20, "t") if i.dual)
    result = decide_duality(item.g, item.h, "fk-b")
    ledger = Ledger()
    assert ledger.check(item, result)
    wrong = dataclasses.replace(result, verdict=Verdict.NOT_DUAL)
    assert not ledger.check(item, wrong)
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_wrong_verdict_exits_nonzero():
    """One flipped verdict inside a real run: counted, and exit status 1."""
    import inproc

    from repro.duality.result import Verdict

    real = inproc.decide_duality
    flipped = []

    def lying(g, h, method="bm", **kw):
        result = real(g, h, method, **kw)
        if not flipped and result.is_dual:
            flipped.append(method)
            return dataclasses.replace(result, verdict=Verdict.NOT_DUAL)
        return result

    inproc.decide_duality = lying
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = run.main(
                ["--workload", "engine-serial", "--seed", "0", "--seconds", "0.1", "--trace", "0"]
            )
    finally:
        inproc.decide_duality = real
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert flipped and status == 1, status
    assert last["failed"] >= 1 and last["correct"] is False, last


def test_every_metric_emitted():
    """Each workload, both modes: the last line carries exactly the spec's
    metrics (``run.result_line`` refuses anything else)."""
    for workload in WORKLOADS:
        for trace, wanted in ((0, E2E), (1, LAYER)):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(last["metrics"]) == sorted(wanted), (workload, trace)
            assert last["failed"] == 0 and last["attempted"] >= 1, (workload, last)
            print(f"  {workload} trace={trace}: {len(wanted)} metrics", flush=True)


def main() -> int:
    fast = "--fast" in sys.argv[1:]
    tests = [test_names, test_predictions, test_checker_counts_a_wrong_verdict]
    if not fast:
        tests += [test_wrong_verdict_exits_nonzero, test_every_metric_emitted]
    for test in tests:
        test()
        print(f"ok {test.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

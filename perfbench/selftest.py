"""Tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench/selftest.py

They pin the arithmetic the reported numbers rest on (percentile rule,
throughput, folding passes, host normalization, layer attribution), that a failing
request is counted and the run goes on, that exact outputs do not
depend on the interpreter's hash seed, and that the host reference
kernel ignores the live heap.
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from layers import attribute, layer_table  # noqa: E402
from stats import (  # noqa: E402
    host_normalized,
    local_host_s,
    percentile,
    samples_beyond,
    supported_percentile,
    throughput,
    time_host_reference,
)


def op(latency_s, ok=True, kind="compile", cnot=1, host_s=0.001):
    return {
        "kind": kind, "latency_s": latency_s, "ok": ok, "error": "",
        "served": "", "cnot": cnot, "depth": 2, "duration": 3, "gates": 4,
        "swap_cnots": 0, "bridge_cnots": 0, "canceled_cnots": 0,
        "logical_cnots": 0, "host_s": host_s,
    }


def fake_result(ops, failed_ops=(), setup_s=1.0, peak_rss_mb=10.0):
    return {
        "ops": ops, "host_s": [0.001], "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s, "checks": {"failed_ops": list(failed_ops)},
    }


# -- percentile rule ------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
    (200, 95.0), (499, 95.0), (500, 98.0), (600, 98.0), (999, 98.0),
    (1000, 99.0), (1200, 99.0), (10000, 99.9),
])
def test_supported_percentile_is_highest_with_ten_beyond(n, expected):
    assert supported_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_p99_of_a_thousand_distinct_samples_has_ten_beyond():
    values = [float(i) for i in range(1000)]
    p99 = percentile(values, 99)
    assert sum(v > p99 for v in values) == samples_beyond(1000, 99) == 10


def test_report_prints_sample_count_and_supported_percentile(capsys):
    ops = [op(0.01 + i * 1e-5) for i in range(400)]
    results = [fake_result(ops, setup_s=s) for s in (1.0, 2.0, 3.0)]
    metrics = run.end_to_end(results)
    args = type("Args", (), {"workload": "w", "seed": 1, "seconds": 1})
    run.print_end_to_end(args, results, metrics)
    out = capsys.readouterr().out
    assert "n=400, 20 beyond" in out
    assert "highest percentile with >= 10 beyond: p95" in out


# -- throughput arithmetic --------------------------------------------------

def test_throughput_is_completed_per_timed_second():
    assert throughput(1200, 20.0) == 60.0
    with pytest.raises(ValueError):
        throughput(1, 0.0)


def test_failed_requests_count_in_time_but_not_in_throughput():
    result = fake_result([op(1.0), op(2.0, ok=False), op(1.0)],
                         failed_ops=[2], setup_s=0.6)
    metrics = run.end_to_end([result])
    assert run.failed_count(result) == 2
    assert metrics["throughput_per_s"] == pytest.approx(1 / 4.0)
    assert metrics["cnot_total"] == 1
    assert metrics["setup_s"] == 0.6


# -- passes and host normalization --------------------------------------------

def test_throughput_sums_each_requests_median_pass_on_the_reference_host():
    # Pass 2 ran on a host twice as slow: twice the seconds, and the
    # reference kernel around each request took twice as long.  Request
    # 1 of pass 3 hit a slow stretch the kernel did not see.
    passes = [
        fake_result([op(1.0), op(3.0)], setup_s=0.9, peak_rss_mb=12.0),
        fake_result([op(2.0, host_s=0.002), op(6.0, host_s=0.002)],
                    setup_s=0.5, peak_rss_mb=10.0),
        fake_result([op(1.5), op(3.0)], setup_s=0.7, peak_rss_mb=11.0),
    ]
    assert [run.normalized_seconds(r) for r in passes] == pytest.approx(
        [4.0, 4.0, 4.5])
    metrics = run.end_to_end(passes)
    assert metrics["throughput_per_s"] == pytest.approx(2 / (1.0 + 3.0))
    assert metrics["setup_s"] == 0.7
    assert metrics["peak_rss_mb"] == 11.0
    assert metrics["cnot_total"] == 2


def test_host_normalized_scales_to_the_reference_host():
    assert host_normalized(3.0, 0.002) == pytest.approx(1.5)


def test_local_host_time_uses_samples_during_and_beside_the_request():
    samples = [(0.0, 9.0), (1.0, 1.0), (2.5, 2.0), (2.7, 4.0), (3.5, 3.0),
               (9.0, 9.0)]
    # During [2, 3]: 2.0 and 4.0; nearest before: 1.0; after: 3.0.
    assert local_host_s(samples, 2.0, 3.0) == pytest.approx(2.5)
    # No sample during [1.2, 1.4]: the one before and the one after.
    assert local_host_s(samples, 1.2, 1.4) == pytest.approx(1.5)
    # Before the first sample or after the last one: one side only.
    assert local_host_s(samples, 10.0, 11.0) == 9.0


def test_a_request_failed_in_one_pass_or_differing_between_passes_fails():
    passes = [
        fake_result([op(1.0), op(1.0), op(1.0, cnot=5)]),
        fake_result([op(1.0), op(1.0, ok=False), op(1.0, cnot=6)]),
        fake_result([op(1.0), op(1.0), op(1.0, cnot=5)], failed_ops=[0]),
    ]
    folded = run.fold_passes(passes)
    assert folded["checks"]["failed_ops"] == [0, 2]
    assert [o["ok"] for o in folded["ops"]] == [True, False, True]
    assert run.completed_ops(folded) == []
    # Op 0 failed its check once, op 1 errored once, op 2 differs: every
    # execution of op 0 and op 2 counts, and the one of op 1.
    assert run.failed_executions(passes, folded) == 3 + 1 + 3
    metrics = run.end_to_end(passes)
    assert metrics["cnot_total"] == 0


# -- layer attribution --------------------------------------------------------

def test_attribution_goes_to_the_latest_started_open_span():
    # A request window whose daemon span waits for an executor job.
    window = [(0.0, 10.0)]
    spans = [
        (1.0, 9.0, "serve:request"),
        (2.0, 8.0, "job:run"),
        (3.0, 5.0, "pass:route"),
        (11.0, 12.0, "pass:cancel"),   # outside every window
    ]
    totals = attribute(spans, window)
    assert totals == {
        "unattributed": 2.0, "serve:request": 2.0, "job:run": 4.0,
        "pass:route": 2.0,
    }
    assert sum(totals.values()) == 10.0
    rows = dict(layer_table(totals))
    assert rows["baselines+repro.routing"] == 2.0
    assert list(dict(layer_table(totals)))[-1] == "unattributed"


# -- failure counting, hash-seed independence (run the real program) ---------

def test_invalid_spec_counts_as_failed_and_the_run_goes_on():
    from child import run_requests
    from workloads import WORKLOADS

    workload = WORKLOADS["cold-compile"]
    ops = [("chem:Unobtainium", "JW", "smoke", 0.1),
           ("chem:LiH", "JW", "smoke", 0.1)]
    outcomes = run_requests(workload, None, ops)["outcomes"]
    assert [o.ok for o in outcomes] == [False, True]
    assert "Unobtainium" in outcomes[0].error
    assert outcomes[1].cnot > 0


EXACT = ("cnot", "depth", "duration", "gates", "swap_cnots", "bridge_cnots",
         "canceled_cnots", "logical_cnots")


def test_exact_outputs_do_not_depend_on_the_hash_seed():
    config = {"workload": "cold-compile", "seed": 4, "seconds": 1,
              "start": 0.5, "mode": "measure", "checks": True}
    outputs = []
    with tempfile.TemporaryDirectory() as workdir:
        for hash_seed in (0, 12345):
            result = run.run_child(config, workdir,
                                   deadline=time.monotonic() + 120,
                                   hash_seed=hash_seed)
            assert result["checks"]["ok"], result["checks"]["notes"]
            outputs.append((
                [tuple(o[k] for k in EXACT) for o in result["ops"]],
                result["counters"].get("workload.builds"),
            ))
    assert outputs[0] == outputs[1]
    assert outputs[0][1] == len(outputs[0][0]) >= 2


# -- host reference -------------------------------------------------------------

def test_host_reference_is_not_moved_by_a_large_live_heap():
    def median_ms():
        return statistics.median(time_host_reference() for _ in range(40)) * 1e3

    before = median_ms()
    heap = [{"k": (i, str(i))} for i in range(1_500_000)]
    during = median_ms()
    del heap
    assert during < 1.5 * before

"""Self-tests of the benchmark: seeded inputs, checks, tracing, metric names.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from symdesign import catalog, cli, group, perm, pipeline  # noqa: E402
from tracing import Span, Tracer, per_op_self, self_times  # noqa: E402

WORKLOADS = workloads.WORKLOADS


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_inputs_pass_the_checks(name, seed):
    w = WORKLOADS[name]
    inputs = w.setup(seed)
    w.check(inputs, w.op(inputs))


def test_nonzero_seed_relabels_the_inputs():
    assert workloads.d1_setup(7).block != workloads.d1_setup(0).block
    assert workloads.paley_setup(7).generators != workloads.paley_setup(0).generators
    m12 = workloads.m12_setup(7)
    assert m12["group"]["generators"] != workloads.m12_setup(0)["group"]["generators"]
    assert workloads.m12_setup(7) == m12


def test_checks_reject_a_wrong_output():
    w = WORKLOADS["fi22-elim"]
    report = w.op(w.setup(0))
    report.sections[0].tuples[0].detail = "tampered"
    with pytest.raises(workloads.CheckFailed):
        w.check(None, report)


def test_reproduce_d1_matches_the_readme():
    assert worker.readme_reproduce_d1_matches()


def _reproduce_d1_stdout() -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["reproduce-d1"]) == 0
    return buf.getvalue()


def test_traced_operations_give_byte_identical_output():
    w = WORKLOADS["m12-search"]
    data = w.setup(0)
    plain = w.op(data)
    plain_d1 = _reproduce_d1_stdout()
    originals = (perm.Permutation.__mul__, group.PermGroup.subdegrees,
                 pipeline.coset_action, catalog.load)
    tracer = Tracer()
    with tracer.installed():
        assert pipeline.coset_action is not originals[2]
        with tracer.operation(1):
            traced = w.op(data)
        traced_d1 = _reproduce_d1_stdout()
    assert (perm.Permutation.__mul__, group.PermGroup.subdegrees,
            pipeline.coset_action, catalog.load) == originals
    assert traced.to_text() == plain.to_text()
    assert workloads.report_json(traced) == workloads.report_json(plain)
    assert traced_d1 == plain_d1

    given = {name: 0.0 for name, _u, _b, source in metrics.PER_LAYER if source is None}
    values = {k: v["value"] for k, v in metrics.layer_metrics(tracer, given).items()}
    assert values["pipeline.tuples"] == 22
    assert values["pipeline.base_block_search.calls"] == 8
    assert values["group.subdegrees.calls"] == 16
    assert values["pipeline.subdegrees_useful_ratio"] == 4 / 16
    assert values["pipeline.design_found_ratio"] == 4 / 8
    assert values["pipeline.self_s"] > 0 and values["group.self_s"] > 0


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span(1, 0, 1, "bench.op", "bench", 0, 100),
        Span(2, 1, 1, "pipeline.run_pipeline", "pipeline", 10, 90),
        Span(3, 2, 1, "group.coset_action", "group", 20, 50),
        Span(4, 2, 1, "design.verify_symmetric", "design", 55, 70),
        Span(5, 4, 1, "group.PermGroup.order", "group", 60, 65),
        Span(6, 0, 2, "bench.op", "bench", 200, 210),
    ]
    assert self_times(spans) == {1: 20, 2: 35, 3: 30, 4: 10, 5: 5, 6: 10}
    per_op = per_op_self(spans)
    assert per_op[1]["group"] == pytest.approx(35e-9)
    assert per_op[1]["design.verify_symmetric"] == pytest.approx(10e-9)
    assert sum(per_op[1][layer] for layer in ("bench", "pipeline", "group", "design")) \
        == pytest.approx(100e-9)
    assert per_op[2]["bench"] == pytest.approx(10e-9)


def test_interval_takes_sampling_out_and_corrects_by_the_median(monkeypatch):
    with calibrate.Interval() as clock:
        end = time.perf_counter() + 3.5 * calibrate.PERIOD_S
        while time.perf_counter() < end:
            pass
    wall = 3.5 * calibrate.PERIOD_S
    assert len(clock.samples) >= 4  # before, at least two ticks, after
    assert clock.raw <= wall + 0.02 and clock.raw > wall - len(clock.samples) * 0.05
    median = statistics.median(clock.samples)
    assert clock.corrected == pytest.approx(clock.raw * calibrate.NOMINAL_S / median)

    monkeypatch.setattr(calibrate, "sample", lambda reps=calibrate.EDGE_REPS: 0.002)
    with calibrate.Interval() as clock:
        pass
    assert clock.corrected == pytest.approx(clock.raw * calibrate.NOMINAL_S / 0.002)
    with calibrate.Interval(sampled=False) as plain:
        pass
    assert plain.samples == [] and plain.raw >= 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tail_percentile_keeps_ten_samples_above():
    assert metrics.tail(list(range(20, 0, -1))) == (50.0, 10)
    assert metrics.tail(list(range(11))) == (100 / 11, 0)
    with pytest.raises(ValueError):
        metrics.tail(list(range(10)))


def test_run_prints_a_correct_result_line(capsys):
    assert run.main(["--workload", "d1", "--seed", "2", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # the loop process's cold op, at least one fresh process per round, the loop
    least = 1 + run.SEGMENTS + run.MIN_LOOP_SAMPLES
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= least
    assert sorted(result["metrics"]) == sorted(name for name, *_ in metrics.END_TO_END)


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in metrics.PER_LAYER]

"""One workload in one fresh, single-threaded process.

    python3 bench/worker.py PHASE WORKLOAD SEED SECONDS

PHASE is one of
  first  set up, run the first (cold) operation, stop;
  serve  the same, then answer commands on stdin: ``run SECONDS MIN``
         runs operations back to back for about SECONDS (at least MIN of
         them) and ``end`` reports peak RSS and stops;
  trace  set up with catalog.load traced, run the fixed-input probes, then
         SECONDS/2 of untraced and SECONDS/2 of traced operations.

first and serve report every time both raw and corrected for the host's
speed (see calibrate.py).  Every reply is one JSON line on stdout; only
trace reads SECONDS.
Every operation's output is checked; a failed check is counted and
reported on stderr, and the run goes on.
"""

import contextlib
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402

MIN_TRACE_SAMPLES = 3
MAX_REPORTED_FAILURES = 5


class Runner:
    """Runs and checks operations of one workload, counting failures.

    Operations are timed by ``calibrate.Interval``, sampled for the host's
    speed when ``calibrated``.
    """

    def __init__(self, workload, inputs, calibrated: bool):
        self.workload = workload
        self.inputs = inputs
        self.calibrated = calibrated
        self.attempted = 0
        self.failed = 0

    def run(self, span=contextlib.nullcontext()) -> calibrate.Interval:
        """One timed operation inside ``span``, checked outside both."""
        self.attempted += 1
        clock = calibrate.Interval(self.calibrated)
        try:
            with clock, span:
                out = self.workload.op(self.inputs)
        except Exception as exc:  # a failing operation must not stop the run
            self.fail(f"operation raised {exc!r}")
            return clock
        try:
            self.workload.check(self.inputs, out)
        except Exception as exc:
            self.fail(f"check failed: {exc}")
        return clock

    def loop(self, seconds: float, min_samples: int, span=lambda op: contextlib.nullcontext()):
        """Operations back to back, at least ``min_samples`` (>= 1) of them.

        Stops before an operation that, at the pace of the last one, would
        end past ``seconds``; operation i runs inside ``span(i)``.  Returns
        their clocks.
        """
        clocks = []
        start = time.perf_counter()
        while len(clocks) < min_samples or time.perf_counter() - start + clocks[-1].raw <= seconds:
            clocks.append(self.run(span(len(clocks) + 1)))
        return clocks

    def fail(self, reason: str):
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"{self.workload.name}: operation {self.attempted}: {reason}", file=sys.stderr)


def readme_reproduce_d1_matches() -> bool:
    """stdout of ``symdesign reproduce-d1`` equals the block in README.md."""
    import io
    import re

    from symdesign import cli

    match = re.search(r"```\n(blocks: .*?)```", (ROOT / "README.md").read_text(), re.S)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["reproduce-d1"])
    return match is not None and code == 0 and buf.getvalue() == match.group(1)


def emit(reply: dict):
    print(json.dumps(reply), flush=True)


def setup(name: str, seed: int, calibrated: bool = True):
    """Runner for the workload, and the clock of its setup: importing
    symdesign, loading the catalog data and generating the inputs."""
    with calibrate.Interval(calibrated) as clock:
        import workloads  # imports symdesign

        workload = workloads.WORKLOADS[name]
        runner = Runner(workload, workload.setup(seed), calibrated)
    return runner, clock


def cold_start(name: str, seed: int):
    """Runner after setup and one cold operation, with both their times,
    raw and corrected for the host's speed."""
    runner, setup_clock = setup(name, seed)
    first_clock = runner.run()
    return runner, {
        "raw": {"setup_s": setup_clock.raw, "first_op_s": first_clock.raw},
        "corrected": {"setup_s": setup_clock.corrected, "first_op_s": first_clock.corrected},
    }


def first_phase(name: str, seed: int):
    runner, reply = cold_start(name, seed)
    emit(dict(reply, attempted=runner.attempted, failed=runner.failed))


def serve_phase(name: str, seed: int):
    import resource

    runner, reply = cold_start(name, seed)
    emit(reply)
    for line in sys.stdin:
        command, *args = line.split()
        if command == "end":
            break
        clocks = runner.loop(float(args[0]), int(args[1]))
        emit({"times": [c.raw for c in clocks], "corrected": [c.corrected for c in clocks]})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Once per run, untimed, and after peak RSS is read so it moves no metric.
    if name == "d1" and seed == 0:
        runner.attempted += 1
        if not readme_reproduce_d1_matches():
            runner.fail("reproduce-d1 output differs from the README block")
    emit({"peak_rss_mb": peak_rss_mb, "attempted": runner.attempted, "failed": runner.failed})


def trace_phase(name: str, seed: int, seconds: float):
    import statistics

    import metrics
    import probes
    from tracing import Tracer

    import workloads  # noqa: F401  (symdesign is imported before any wrapper)

    loads = Tracer(layers=("catalog",))
    with loads.installed():
        runner, _clock = setup(name, seed, calibrated=False)
    given = probes.run_probes()
    given["catalog.load_s"] = sum(s.t1 - s.t0 for s in loads.spans) / 1e9
    given["catalog.load.calls"] = loads.counts["catalog.load"]

    runner.run()  # warm-up
    untraced = [c.raw for c in runner.loop(seconds / 2, MIN_TRACE_SAMPLES)]
    tracer = Tracer()
    with tracer.installed():
        traced = [c.raw for c in runner.loop(seconds / 2, MIN_TRACE_SAMPLES, tracer.operation)]
    given["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{name}.tsv")
    emit({
        "metrics": metrics.layer_metrics(tracer, given),
        "untraced_ops": len(untraced),
        "traced_ops": len(traced),
        "attempted": runner.attempted,
        "failed": runner.failed,
    })


def main(argv) -> int:
    phase, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    if phase == "trace":
        trace_phase(name, seed, seconds)
    elif phase == "serve":
        serve_phase(name, seed)
    else:
        first_phase(name, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

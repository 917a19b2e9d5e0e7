"""symdesign benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload process is a fresh,
single-threaded Python started from here; processes run one after another,
never side by side.

--trace 0 measures the end-to-end metrics with tracing off.  A loop
  process sets up, runs its first operation, then runs a closed loop (one
  client: each operation starts when the last returned) in SEGMENTS
  slices.  Before each slice, while the loop process waits, fresh
  processes each set up and run one cold operation.  Fresh processes get
  about FRESH_SHARE of S and the loop the rest, interleaved so that both
  spread over the whole run.  Every timed interval is corrected for the
  host's speed at that moment by the calibration loop of calibrate.py.
--trace 1 runs one traced process and reports the per-layer metrics.

Every operation's output is checked.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, PER_LAYER, REPORTED, tail  # noqa: E402

WORKLOADS = ("d1", "m12-search", "fi22-elim", "paley-wide")
SEGMENTS = 7
# Share of the run given to fresh processes; the loop gets the rest, but
# never fewer than MIN_LOOP_SAMPLES operations, which on the long
# workloads (about 1.3 s per operation) already take more than its share.
FRESH_SHARE = 0.6
MIN_LOOP_SAMPLES = 11  # the tail percentile needs ten samples above it
DEADLINE_S = 170  # the whole run, children included, ends within this


class BenchError(RuntimeError):
    pass


def _worker_cmd(phase: str, workload: str, seed: int, seconds: float) -> list:
    return [sys.executable, str(BENCH / "worker.py"), phase, workload, str(seed), str(seconds)]


_ENV = dict(os.environ, PYTHONHASHSEED="0")


def run_worker(phase: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Run one worker process to completion; its last stdout line is the reply."""
    try:
        proc = subprocess.run(_worker_cmd(phase, workload, seed, seconds), cwd=ROOT, env=_ENV,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{phase} process for {workload} overran the deadline") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{phase} process for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


class LoopProcess:
    """The serve-phase worker, driven one command at a time over its stdin."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen(_worker_cmd("serve", workload, seed, 0), cwd=ROOT,
                                     env=_ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def reply(self) -> dict:
        left = max(0.0, self.deadline - time.monotonic())
        ready, _, _ = select.select([self.proc.stdout], [], [], left)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError("loop process overran the deadline or exited early")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.reply()

    def close(self):
        """Let the process exit on end of input; kill it if it does not in time."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=max(0.1, min(5.0, self.deadline - time.monotonic())))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    """FRESH_SHARE of ``seconds`` in fresh cold-start processes, the rest in
    the loop, interleaved in SEGMENTS rounds so that both spread over the
    whole run."""
    fresh_share = FRESH_SHARE * seconds / SEGMENTS
    loop_share = (1 - FRESH_SHARE) * seconds / SEGMENTS
    loop = LoopProcess(workload, seed, deadline)
    try:
        fresh = [loop.reply()]
        times, corrected = [], []
        fresh_s = 0.0
        for round_ in range(1, SEGMENTS + 1):
            while True:
                t0 = time.monotonic()
                fresh.append(run_worker("first", workload, seed, seconds, deadline))
                fresh_s += time.monotonic() - t0
                if fresh_s >= round_ * fresh_share:
                    break
            at_least = MIN_LOOP_SAMPLES - len(times) if round_ == SEGMENTS else 1
            reply = loop.ask(f"run {loop_share} {max(1, at_least)}")
            times += reply["times"]
            corrected += reply["corrected"]
        final = loop.ask("end")
    finally:
        loop.close()

    def cold(kind, key):
        return statistics.median(r[kind][key] for r in fresh)

    pct, tail_s = tail(corrected)
    values = {
        "setup_s": cold("corrected", "setup_s"),
        "first_op_s": cold("corrected", "first_op_s"),
        "op_p50_s": statistics.median(corrected),
        "op_tail_s": tail_s,
        "peak_rss_mb": final["peak_rss_mb"],
    }
    raw = {
        "setup_s": cold("raw", "setup_s"),
        "first_op_s": cold("raw", "first_op_s"),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail(times)[1],
    }
    attempted = final["attempted"] + sum(r["attempted"] for r in fresh[1:])
    failed = final["failed"] + sum(r["failed"] for r in fresh[1:])
    notes = {
        "setup_s": f"median of {len(fresh)} fresh processes",
        "first_op_s": f"median of {len(fresh)} fresh processes, caches cold",
        "op_p50_s": f"median of {len(times)} warm operations",
        "op_tail_s": f"p{pct:.0f} of {len(times)} warm operations",
        "peak_rss_mb": "loop process, getrusage",
    }
    print(f"{workload} seed {seed}: closed loop, 1 client, {seconds:g} s; times corrected "
          f"for host speed (calibrate.py), raw in brackets")
    for name, unit in REPORTED:
        shown = f"{values[name]:.6g} {unit}"
        if name in raw:
            shown += f" [{raw[name]:.6g}]"
        print(f"  {name:<12} {shown:<28} ({notes[name]})")
    print(f"  {'fail_ratio':<12} {failed / attempted:.6g}  ({failed}/{attempted} operations)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _b, _bd in END_TO_END}
    return attempted, failed, metrics


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    result = run_worker("trace", workload, seed, seconds, deadline)
    print(f"{workload} seed {seed}: {result['untraced_ops']} untraced and "
          f"{result['traced_ops']} traced operations; per operation:")
    for name, unit, _better, _source in PER_LAYER:
        print(f"  {name:<36} {result['metrics'][name]['value']:.6g} {unit}")
    return result["attempted"], result["failed"], result["metrics"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    src = ROOT / "src"
    if not (src / "symdesign" / "__init__.py").is_file():
        print(f"error: no symdesign sources under {src}", file=sys.stderr)
        return 2
    # Byte-compile up front so that no measured import pays for it.
    compileall.compile_dir(src, quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)
    measure = per_layer if args.trace else end_to_end
    try:
        attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

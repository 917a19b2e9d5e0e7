"""Run every benchmark workload once at seed 0 and record the results.

    python3 scripts/record_bench.py N

For each workload of BENCHMARK.json, in its order, this runs the declared
command with ``--workload W --seed 0 --seconds 22 --trace 0`` from the
repository root, one workload after another, then once more with
``--trace 1``, and writes BENCH_N.json there.  The file holds the git
revision (``dirty`` when ``git diff HEAD`` is not empty, and then
``diff_sha256``, the sha256 of that diff, so the record names the code it
timed), ``src_lines``, the summed line count of ``src/symdesign/*.py``
(what ``wc -l`` reports), each workload's JSON result line, the last line
the benchmark prints, under ``workloads``, and the per-layer metrics of
its traced run under ``layers``.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARGS = ["--seed", "0", "--seconds", "22", "--trace", "0"]
TRACE_ARGS = ["--seed", "0", "--seconds", "22", "--trace", "1"]


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def _run(spec, name: str, args) -> dict:
    """The JSON result line of one benchmark run of workload ``name``."""
    cmd = [*spec["command"], "--workload", name, *args]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print("usage: record_bench.py N", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    diff = _git("diff", "HEAD")
    record = {"revision": _git("rev-parse", "HEAD").decode().strip(), "dirty": bool(diff)}
    if diff:
        record["diff_sha256"] = hashlib.sha256(diff).hexdigest()
    record["src_lines"] = sum(f.read_bytes().count(b"\n")
                              for f in (ROOT / "src" / "symdesign").glob("*.py"))
    record.update(args=ARGS, workloads={})
    for workload in spec["workloads"]:
        name = workload["name"]
        record["workloads"][name] = _run(spec, name, ARGS)
        print(f"{name}: op_p50_s {record['workloads'][name]['metrics']['op_p50_s']['value']}")
    record.update(layer_args=TRACE_ARGS, layers={})
    for workload in spec["workloads"]:
        name = workload["name"]
        record["layers"][name] = _run(spec, name, TRACE_ARGS)["metrics"]
        print(f"{name}: traced")
    path = ROOT / f"BENCH_{argv[0]}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

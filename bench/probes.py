"""Fixed-input layer probes: the same inputs whatever the workload or seed.

Each probe warms up once, then reports the median per-call time of seven
timed repeats.  The inputs are the embedded M12 action on 144 points, its
2-(144,66,30) design, and the seed-0 Paley group of degree 263.
"""

from __future__ import annotations

import statistics
import time

from symdesign import catalog, design
from symdesign.group import StabChain

import workloads

REPEATS = 7


def per_call(fn, number: int = 1) -> float:
    """Median seconds per call of fn over REPEATS timed runs of ``number`` calls."""
    fn()
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        runs.append((time.perf_counter() - t0) / number)
    return statistics.median(runs)


def _call_every_point(p, points):
    for x in points:
        p(x)


def run_probes() -> dict:
    G = catalog.load("m12-144/G")
    des = design.construct_design(G, catalog.load("m12-144/base-block"))
    design.verify_symmetric(des)
    a, b = G.generators
    c, d = workloads.paley_setup(0).generators
    points = range(1, G.degree + 1)
    # Words in the generators: fixed elements that sift through every level.
    words = [a * b, b * a * b, a * b * b * a * b, b * b * a * b * a * b * b, a * b * a * b * b * b]
    chain = G.chain
    return {
        "perm.compose_us.d144": per_call(lambda: a * b, 2000) * 1e6,
        "perm.compose_us.d263": per_call(lambda: c * d, 2000) * 1e6,
        "perm.inverse_us.d144": per_call(a.inverse, 2000) * 1e6,
        "perm.call_ns.d144": per_call(lambda: _call_every_point(a, points), 100)
        / len(points) * 1e9,
        "group.chain_build_s": per_call(lambda: StabChain(G.generators, G.degree)),
        "group.sift_us": per_call(lambda: [chain.sift(w) for w in words], 40)
        / len(words) * 1e6,
        "group.point_stabilizer_s": per_call(lambda: G.point_stabilizer(1)),
        "design.block_stabilizer_s": per_call(lambda: design.block_stabilizer(G, des, 0)),
    }

"""Metric definitions: the end-to-end set and the per-layer set.

BENCHMARK.json lists the same names, units and directions; the benchmark's
self-tests keep the two in step.
"""

from __future__ import annotations

import math
import statistics

from tracing import per_op_self

# name, unit, better, bound (share of the parent's median it may worsen by).
# Times are medians of intervals corrected for the host's speed (see
# calibrate.py): on a shared host, interference from other tenants slows
# this process by up to 2x in episodes that can cover a whole run.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("first_op_s", "s", "lower", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
# Every end-to-end figure printed by name, including the tail, which is
# reported but carries no bound.
REPORTED = (
    ("setup_s", "s"),
    ("first_op_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)

# name, unit, better, source.  Sources:
#   None               a value the worker passes in (fixed-input probes and
#                      setup or overhead figures)
#   ("calls", key)     calls per operation of one wrapped function
#   ("self", key)      self seconds per operation of one span name or layer
#   ("tally", key)     a count per operation recorded by a tracer hook
#   ("ratio", a, b)    per-operation count a divided by count b (0 if b is 0)
PER_LAYER = (
    ("perm.compose_us.d144", "us", "lower", None),
    ("perm.compose_us.d263", "us", "lower", None),
    ("perm.inverse_us.d144", "us", "lower", None),
    ("perm.call_ns.d144", "ns", "lower", None),
    ("perm.mul.calls", "count", "lower", ("calls", "perm.Permutation.__mul__")),
    ("perm.call.calls", "count", "lower", ("calls", "perm.Permutation.__call__")),
    ("perm.inverse.calls", "count", "lower", ("calls", "perm.Permutation.inverse")),
    ("group.chain_build_s", "s", "lower", None),
    ("group.sift_us", "us", "lower", None),
    ("group.point_stabilizer_s", "s", "lower", None),
    ("group.self_s", "s", "lower", ("self", "group")),
    ("group.subdegrees.calls", "count", "lower", ("calls", "group.PermGroup.subdegrees")),
    ("group.subdegrees.self_s", "s", "lower", ("self", "group.PermGroup.subdegrees")),
    ("group.minimal_block_systems.calls", "count", "lower",
     ("calls", "group.PermGroup.minimal_block_systems")),
    ("group.minimal_block_systems.self_s", "s", "lower",
     ("self", "group.PermGroup.minimal_block_systems")),
    ("group.coset_action.calls", "count", "lower", ("calls", "group.coset_action")),
    ("group.coset_action.self_s", "s", "lower", ("self", "group.coset_action")),
    ("group.stabilizer_of_action.calls", "count", "lower",
     ("calls", "group.PermGroup.stabilizer_of_action")),
    ("design.block_stabilizer_s", "s", "lower", None),
    ("design.self_s", "s", "lower", ("self", "design")),
    ("design.verify_symmetric.calls", "count", "lower", ("calls", "design.verify_symmetric")),
    ("design.verify_symmetric.self_s", "s", "lower", ("self", "design.verify_symmetric")),
    ("design.complement.self_s", "s", "lower", ("self", "design.complement")),
    ("design.is_flag_transitive.calls", "count", "lower",
     ("calls", "design.is_flag_transitive")),
    ("design.is_flag_transitive.self_s", "s", "lower", ("self", "design.is_flag_transitive")),
    ("design.construct_design.self_s", "s", "lower", ("self", "design.construct_design")),
    ("design.imprimitivity_profile.self_s", "s", "lower",
     ("self", "design.imprimitivity_profile")),
    ("params.self_s", "s", "lower", ("self", "params")),
    ("params.enumerate_params.calls", "count", "lower", ("calls", "params.enumerate_params")),
    ("params.enumerate_params.self_s", "s", "lower", ("self", "params.enumerate_params")),
    ("arith.self_s", "s", "lower", ("self", "arith")),
    ("arith.divisors.calls", "count", "lower", ("calls", "arith.divisors")),
    ("pipeline.self_s", "s", "lower", ("self", "pipeline")),
    ("pipeline.tuples", "count", "lower", ("tally", "pipeline.tuples")),
    ("pipeline.base_block_search.calls", "count", "lower",
     ("calls", "pipeline.base_block_search")),
    ("pipeline.subgroup_index_gate.calls", "count", "lower",
     ("calls", "pipeline.subgroup_index_gate")),
    ("pipeline.subdegrees_useful_ratio", "ratio", "higher",
     ("ratio", "pipeline.subdegrees_distinct", "pipeline.subdegrees")),
    ("pipeline.design_found_ratio", "ratio", "higher",
     ("ratio", "pipeline.designs_found", "pipeline.base_block_search")),
    ("catalog.load_s", "s", "lower", None),
    ("catalog.load.calls", "count", "lower", None),
    ("trace.overhead_s", "s", "lower", None),
)


def tail(samples) -> tuple:
    """(percentile, value): the highest nearest-rank percentile with at
    least ten samples above it.  Needs at least eleven samples."""
    n = len(samples)
    if n < 11:
        raise ValueError(f"{n} samples; the tail needs at least 11")
    rank = n - 10
    return 100 * rank / n, sorted(samples)[rank - 1]


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, given: dict) -> dict:
    """Per-layer values from a traced run, per operation (median over ops)."""
    ops = sorted(op for op in tracer.op_counts if op > 0)
    selfs = per_op_self([s for s in tracer.spans if s.op > 0])
    counts = [tracer.op_counts[op] for op in ops]
    out = {}
    for name, unit, _better, source in PER_LAYER:
        if source is None:
            value = given[name]
        elif source[0] in ("calls", "tally"):
            value = median_or_zero(c[source[1]] for c in counts)
        elif source[0] == "self":
            value = median_or_zero(selfs[op][source[1]] for op in ops)
        else:
            _, num, den = source
            value = median_or_zero(c[num] / c[den] if c[den] else 0.0 for c in counts)
        if not math.isfinite(value):
            raise ValueError(f"{name} is {value}")
        out[name] = {"value": value, "unit": unit}
    return out

"""The benchmark's four workloads: seeded inputs, one operation, its check.

Every workload is a ``Workload`` triple:

* ``setup(seed)`` builds the inputs.  Seed 0 is the embedded data as
  shipped; any other seed relabels or reorders it so the amount of work
  stays the same while the inputs differ.
* ``op(inputs)`` is the timed operation.  It calls only public symdesign
  functions, through their modules, so that a tracer that rebinds module
  attributes sees every call.
* ``check(inputs, output)`` raises ``CheckFailed`` when the output is wrong.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

from symdesign import catalog, design, pipeline
from symdesign.group import PermGroup
from symdesign.perm import Permutation, cycle_string, parse_cycles

GOLDEN = Path(__file__).resolve().parent / "golden"

M12_DEGREE = 144
PALEY_Q = 263  # smallest prime = 3 (mod 4) above 255
# Classes through point 1 of the two minimal block systems of M12 on 144
# points, as printed by ``symdesign reproduce-d1``.
D1_CLASSES_OF_1 = (
    tuple(range(1, 13)),
    (1, 13, 35, 38, 57, 62, 81, 91, 103, 109, 128, 140),
)


class CheckFailed(AssertionError):
    """An operation's output differs from the expected result."""


def _expect(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], object]
    op: Callable[[object], object]
    check: Callable[[object, object], None]


@cache
def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text()


# ---- relabelling -------------------------------------------------------------


def relabelling(seed: int, degree: int) -> tuple:
    """Seeded point relabelling pi as an image tuple (pi[i-1] is pi(i)).

    Seed 0 is the identity, so seed 0 runs on the embedded data unchanged.
    """
    points = list(range(1, degree + 1))
    if seed:
        random.Random(seed).shuffle(points)
    return tuple(points)


def conjugate(g: Permutation, pi: tuple) -> Permutation:
    """The permutation pi(i) -> pi(g(i)): g written in the new labels."""
    images = [0] * len(pi)
    for i, x in enumerate(g.images):
        images[pi[i] - 1] = pi[x - 1]
    return Permutation(images)


def _relabel_text(text: str, pi: tuple) -> str:
    return cycle_string(conjugate(parse_cycles(text, len(pi)), pi))


# ---- d1: the 2-(144,66,30) certification -----------------------------------


@dataclass(frozen=True)
class D1Inputs:
    group: PermGroup
    block: tuple
    pi: tuple


@dataclass(frozen=True)
class D1Result:
    num_blocks: int
    params: tuple
    flag_transitive: bool
    anti_flag_transitive: bool
    systems: list
    profiles: list


def d1_setup(seed: int) -> D1Inputs:
    G = catalog.load("m12-144/G")
    block = catalog.load("m12-144/base-block")
    pi = relabelling(seed, M12_DEGREE)
    if seed:
        G = PermGroup([conjugate(g, pi) for g in G.generators], degree=M12_DEGREE)
        block = sorted(pi[b - 1] for b in block)
    return D1Inputs(G, tuple(block), pi)


def d1_op(inp: D1Inputs) -> D1Result:
    """The certification sequence of ``symdesign reproduce-d1``."""
    G = inp.group
    des = design.construct_design(G, inp.block)
    params = design.verify_symmetric(des)
    ft = design.is_flag_transitive(des, G)
    aft = design.is_flag_transitive(design.complement(des), G)
    systems = G.minimal_block_systems()
    profiles = [design.imprimitivity_profile(des, s) for s in systems]
    return D1Result(des.num_blocks, (params.v, params.k, params.lam), ft, aft,
                    systems, profiles)


def d1_check(inp: D1Inputs, out: D1Result):
    _expect(out.num_blocks == 144, f"{out.num_blocks} blocks, expected 144")
    _expect(out.params == (144, 66, 30), f"params {out.params}, expected (144,66,30)")
    _expect(out.flag_transitive, "not flag-transitive")
    _expect(not out.anti_flag_transitive, "anti-flag-transitive")
    shapes = [(s.num_classes, s.class_size) for s in out.systems]
    _expect(shapes == [(12, 12), (12, 12)], f"block systems {shapes}, expected 2x(12 of 12)")
    cdls = [(p.c, p.d, p.ell, p.s) for p in out.profiles]
    _expect(cdls == [(12, 12, 6, 11)] * 2, f"profiles {cdls}, expected (12,12,6,11) twice")
    pi = inp.pi
    got = sorted(sorted(s.class_containing(pi[0])) for s in out.systems)
    want = sorted(sorted(pi[x - 1] for x in cls) for cls in D1_CLASSES_OF_1)
    _expect(got == want, "classes through the image of point 1 differ")


# ---- m12-search: the M12 catalog pipeline ----------------------------------


def relabel_catalog(data: dict, pi: tuple) -> dict:
    """Copy of a catalog with every generator string conjugated by pi."""
    out = copy.deepcopy(data)
    records = [out["group"], *out.get("maximals", []), *out.get("subgroup_hints", [])]
    for rec in records:
        if rec.get("generators") is not None:
            rec["generators"] = [_relabel_text(s, pi) for s in rec["generators"]]
    return out


def m12_setup(seed: int) -> dict:
    data = catalog.load("m12-144/catalog")
    if seed:
        data = relabel_catalog(data, relabelling(seed, M12_DEGREE))
    return data


def pipeline_op(data: dict):
    return pipeline.run_pipeline(data)


def report_json(report) -> str:
    """The report as ``symdesign pipeline --json`` prints it."""
    return json.dumps(report.to_json_dict(), indent=1, sort_keys=True) + "\n"


def m12_check(_inp, report):
    text = report.to_text()
    _expect(text == golden_text("m12_report.txt"), "M12 report text differs from the golden copy")
    _expect(report_json(report) == golden_text("m12_report.json"),
            "M12 report JSON differs from the golden copy")


# ---- fi22-elim: index-gate elimination of the Fi22 stub ----------------------


def fi22_setup(seed: int) -> dict:
    """Fi22 stub; a nonzero seed shuffles maximal records and index-table rows."""
    data = catalog.load("fi22/catalog-stub")
    if seed:
        rng = random.Random(seed)
        data = copy.deepcopy(data)
        rng.shuffle(data["maximals"])
        for rec in data["maximals"]:
            for key in ("maximal_subgroups", "maximal_indices"):
                if key in rec:
                    rng.shuffle(rec[key])
        for rows in data.get("index_tables", {}).values():
            rng.shuffle(rows)
    return data


def fi22_rows(report) -> list:
    """Order-free view of a report: sorted (M, N, v, k, lam, status, detail)."""
    return sorted(
        [t.M_name, t.N_name, t.v, t.k, t.lam, t.status, t.detail]
        for sec in report.sections
        for t in sec.tuples
    )


def fi22_check(_inp, report):
    rows = fi22_rows(report)
    _expect(len(rows) == 12, f"{len(rows)} tuples, expected 12")
    _expect(all(r[5] == "nsg" for r in rows), "a tuple survived the index gate")
    _expect(rows == json.loads(golden_text("fi22_rows.json")),
            "Fi22 tuples differ from the golden copy")


# ---- paley-wide: the Paley design 2-(263,131,65) ------------------------------


@dataclass(frozen=True)
class PaleyInputs:
    generators: tuple
    block: tuple


@dataclass(frozen=True)
class PaleyResult:
    order: int
    num_blocks: int
    params: tuple
    flag_transitive: bool
    anti_flag_transitive: bool
    systems: list
    subdegrees: list


def paley_setup(seed: int) -> PaleyInputs:
    """Affine group x -> ax+b (a a nonzero square) and the Paley base block.

    Point x of Z_q gets label x+1.  The squares form a cyclic group of
    prime order (q-1)/2 = 131, so every square other than 1 generates it;
    the seed picks that multiplier and relabels the points.
    """
    q = PALEY_Q
    squares = sorted({x * x % q for x in range(1, q)})
    a = 4 if not seed else random.Random(seed).choice(squares[1:])
    pi = relabelling(seed, q)
    shift = Permutation([(x + 1) % q + 1 for x in range(q)])
    scale = Permutation([a * x % q + 1 for x in range(q)])
    gens = tuple(conjugate(g, pi) for g in (shift, scale))
    block = tuple(sorted(pi[x] for x in squares))
    return PaleyInputs(gens, block)


def paley_op(inp: PaleyInputs) -> PaleyResult:
    G = PermGroup(inp.generators, degree=len(inp.generators[0].images))
    order = G.order()
    des = design.construct_design(G, inp.block)
    params = design.verify_symmetric(des)
    ft = design.is_flag_transitive(des, G)
    aft = design.is_flag_transitive(design.complement(des), G)
    systems = G.minimal_block_systems()
    subdegrees = G.subdegrees(1)
    return PaleyResult(order, des.num_blocks, (params.v, params.k, params.lam), ft, aft,
                       systems, subdegrees)


def paley_check(_inp, out: PaleyResult):
    q = PALEY_Q
    _expect(out.order == q * (q - 1) // 2, f"group order {out.order}, expected {q * (q - 1) // 2}")
    _expect(out.num_blocks == q, f"{out.num_blocks} blocks, expected {q}")
    want = (q, (q - 1) // 2, (q - 3) // 4)
    _expect(out.params == want, f"params {out.params}, expected {want}")
    _expect(out.flag_transitive, "not flag-transitive")
    _expect(not out.anti_flag_transitive, "anti-flag-transitive")
    _expect(out.systems == [], f"{len(out.systems)} block systems, expected none")
    _expect(out.subdegrees == [1, (q - 1) // 2, (q - 1) // 2], f"subdegrees {out.subdegrees}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("d1", d1_setup, d1_op, d1_check),
        Workload("m12-search", m12_setup, pipeline_op, m12_check),
        Workload("fi22-elim", fi22_setup, pipeline_op, fi22_check),
        Workload("paley-wide", paley_setup, paley_op, paley_check),
    )
}

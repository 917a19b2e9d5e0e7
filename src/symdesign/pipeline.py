"""Catalog-driven search for flag-transitive point-imprimitive designs.

Runs on catalogs as ``catalog.load_catalogs`` returns them: produces
candidate tuples (M, N, (v,k,lam)) with imprimitivity data, applies the
subgroup-index and subdegree eliminations, and attempts base-block design
construction for the tuples that survive.  Candidate tuples are independent
work items over immutable shared groups; this runner evaluates them
sequentially in canonical order so reports are byte-identical across runs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import divisors
from .catalog import CatalogError, GroupCatalog, MaximalRecord, load_catalogs
from .design import Certificate, Design, NotSymmetric, certify, construct_design
from .group import CosetAction, PermGroup, coset_action, induced_orbits
from .params import classify_type, derive_cdl, enumerate_params

__all__ = [
    "CandidateTuple",
    "PipelineReport",
    "GATE_POSSIBLE",
    "GATE_NSG",
    "GATE_UNKNOWN",
    "large_filter",
    "candidate_vs",
    "divisibility_gate",
    "subgroup_index_gate",
    "first_bad_subdegree",
    "base_block_search",
    "run_pipeline",
]

GATE_POSSIBLE = "possible"
GATE_NSG = "nsg"
GATE_UNKNOWN = "unknown"

STATUS_OPEN = "open"
STATUS_NSG = "nsg"
STATUS_NSD = "nsd"
STATUS_DESIGN = "design-found"
STATUS_NO_BLOCK = "no-block-of-length-k"
STATUS_NOT_DESIGN = "not-a-design"


class CandidateTuple:
    """One (M, N, (v,k,lam)) row with gate verdicts and a terminal status."""

    __slots__ = ("group", "nr_M", "nr_N", "M_name", "N_name", "i_H", "i_K", "v", "k",
                 "lam", "cdl", "type_tag", "gate_H", "gate_K", "status", "detail",
                 "invariants")

    def __init__(self, group: str, nr_M: int, nr_N: int, M_name: str, N_name: str,
                 i_H: int, i_K: int, v: int, k: int, lam: int, cdl: tuple,
                 type_tag: str, gate_H: str = GATE_UNKNOWN, gate_K: str = GATE_UNKNOWN,
                 status: str = STATUS_OPEN, detail: str = "",
                 invariants: dict | None = None):
        self.group = group
        self.nr_M = nr_M
        self.nr_N = nr_N
        self.M_name = M_name
        self.N_name = N_name
        self.i_H = i_H
        self.i_K = i_K
        self.v = v
        self.k = k
        self.lam = lam
        self.cdl = cdl
        self.type_tag = type_tag
        self.gate_H = gate_H
        self.gate_K = gate_K
        self.status = status
        self.detail = detail
        self.invariants = invariants

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"CandidateTuple({fields})"

    @property
    def params(self) -> tuple:
        return (self.v, self.k, self.lam)


# ---- individual gates ------------------------------------------------------


def large_filter(g_order: int, m_order: int) -> bool:
    """Whether the subgroup order cubed reaches the group order."""
    return g_order <= m_order**3


def candidate_vs(M: MaximalRecord) -> list[int]:
    """Candidate point counts v = z * index(M) over divisors z > 1 of |M|.

    z = 1 is excluded: a point-imprimitive stabilizer is never maximal, so
    the index of M cannot itself be the point count.
    """
    if M.order_factorization is None and M.order > 10**18:
        raise CatalogError(
            f"{M.name}: order exceeds 10^18; supply order_factorization in the catalog"
        )
    zs, index = divisors(M.order, M.order_factorization), M.index  # read once per call
    return [z * index for z in zs if z > 1]


def divisibility_gate(params: tuple, N: MaximalRecord) -> bool:
    """k must divide |N| and the index of N must divide v."""
    v, k, _lam = params
    return N.order % k == 0 and v % N.index == 0


def subgroup_index_gate(name: str, i: int, index_tables: dict) -> str:
    """Can the named group have a subgroup of index i?

    Walks maximal-subgroup index tables: a subgroup of index i > 1 lies in
    a maximal subgroup whose index j divides i, leaving a subgroup of
    index i/j one level down.  Verdicts: "nsg" when every chain refutes,
    "possible" when some chain bottoms out at index 1, "unknown" when the
    tables run out first.  Indices strictly decrease, so this terminates.
    """
    if i < 1:
        raise ValueError(f"index {i} must be positive")
    if i == 1:
        return GATE_POSSIBLE
    entries = index_tables.get(name)
    if entries is None:
        return GATE_UNKNOWN
    verdict = GATE_NSG
    for sub_name, j in entries:
        if j < 2 or i % j:
            continue
        if i == j:
            return GATE_POSSIBLE
        if sub_name is None:
            branch = GATE_UNKNOWN
        else:
            branch = subgroup_index_gate(sub_name, i // j, index_tables)
        if branch == GATE_POSSIBLE:
            return GATE_POSSIBLE
        if branch == GATE_UNKNOWN:
            verdict = GATE_UNKNOWN
    return verdict


def first_bad_subdegree(k: int, lam: int, subdegrees) -> int | None:
    """Smallest nontrivial subdegree e with k not dividing lam*e; a tuple
    passes the subdegree gate when there is none."""
    for e in sorted(subdegrees):
        if e > 1 and (lam * e) % k:
            return e
    return None


# ---- base-block search -----------------------------------------------------


class SearchOutcome(NamedTuple):
    status: str
    design: object | None = None
    certificate: dict | None = None
    orbit_lengths: tuple = ()


class _Run:
    """What one ``run_pipeline`` call makes once for a catalog, one table
    per kind.  Nothing is module-level, so two runs do the same work.

    * ``candidates``: the (v,k,lam) candidates of each (|M|, index).
    * ``derived``: the cdl rows and type tag of each (v,k,lam).
    * ``actions``: the coset action of each subgroup, keyed on ``id(H)``;
      the catalog holds H for the whole run.
    * ``orbits``: the K-orbits on the cosets, keyed by the generators of G,
      H and K.
    * ``trials``: for each orbit tried as a base block, the design and its
      certificate, or None when it is no symmetric design (see ``_trial``),
      keyed by the coset image's generators and the orbit.
    """

    def __init__(self):
        self.candidates, self.derived, self.actions, self.orbits, self.trials = {}, {}, {}, {}, {}


def _once(table: dict, key, make, *args):
    """``table[key]``, made as ``make(*args)`` the first time it is asked for."""
    if key not in table:
        table[key] = make(*args)
    return table[key]


def _trial(group: PermGroup, orbit) -> tuple[Design, Certificate | None]:
    """The design of ``orbit`` under ``group`` and its certificate, or None
    when ``certify`` refutes it as no symmetric design."""
    design = construct_design(group, orbit)
    try:
        return design, certify(design, group)
    except NotSymmetric:
        return design, None


def _key(group: PermGroup) -> tuple:
    """Names a group by its generators, which fix its chain and so every
    coset label and orbit computed from it."""
    return group.degree, tuple(g.table for g in group.generators)


def base_block_search(act: CosetAction, K: PermGroup, params: tuple,
                      run: _Run | None = None) -> SearchOutcome:
    """Hunt for a base block among the K-orbits on the cosets of the action.

    Every K-orbit of length k is tried as a base block for a design under
    the coset image of ``act.G``; the first verified symmetric design with
    the expected parameters is returned with its certificate.

    ``run`` keeps what does not depend on ``params`` for later searches
    (see ``_Run``).  A shared run gives the same outcomes as a fresh one.
    """
    if run is None:
        run = _Run()
    v, k, lam = params
    korbits = _once(run.orbits, (_key(act.G), _key(act.H), _key(K)), induced_orbits, act, K)
    lengths = tuple(len(o) for o in korbits)
    hits = [o for o in korbits if len(o) == k]
    if not hits:
        return SearchOutcome(STATUS_NO_BLOCK, orbit_lengths=lengths)
    image = _key(act.group)
    for orbit in hits:
        design, cert = _once(run.trials, (image, tuple(orbit)), _trial, act.group, orbit)
        if cert is None or cert.params != (v, k, lam):
            continue
        invariants = {
            "params": (v, k, lam),
            "flag_transitive": cert.flag_transitive,
            "subdegrees": tuple(act.group.subdegrees(1)),
            "profiles": tuple(sorted((p.c, p.d, p.ell, p.s) for p in cert.profiles)),
            # verify_symmetric has certified that every block pair meets in lam
            "block_intersections": ((lam, v * (v - 1) // 2),),
        }
        return SearchOutcome(STATUS_DESIGN, design, invariants, lengths)
    return SearchOutcome(STATUS_NOT_DESIGN, orbit_lengths=lengths)


# ---- the runner ------------------------------------------------------------


class GroupReport(NamedTuple):
    name: str
    tuples: list

    def candidates(self) -> list:
        """Tuples that survived the elimination gates."""
        alive = (STATUS_OPEN, STATUS_DESIGN, STATUS_NO_BLOCK, STATUS_NOT_DESIGN)
        return [t for t in self.tuples if t.status in alive]


class PipelineReport(NamedTuple):
    sections: list

    def to_text(self) -> str:
        lines = []
        for sec in self.sections:
            lines.append(f"group {sec.name}: {len(sec.tuples)} tuples, "
                         f"{len(sec.candidates())} candidates")
            header = (
                f"{'M':<12} {'N':<12} {'nr':<6} {'(iH,iK)':<10} "
                f"{'v':>8} {'k':>6} {'lam':>6}  {'cdl':<18} {'type':<5} status"
            )
            lines.append(header)
            for t in sec.tuples:
                cdl = ",".join(f"({c},{d},{l})" for c, d, l, _s in t.cdl) or "-"
                nr = f"({t.nr_M},{t.nr_N})"
                ihk = f"({t.i_H},{t.i_K})"
                lines.append(
                    f"{t.M_name:<12} {t.N_name:<12} {nr:<6} {ihk:<10} "
                    f"{t.v:>8} {t.k:>6} {t.lam:>6}  {cdl:<18} {t.type_tag:<5} "
                    + t.status
                    + (f"  [{t.detail}]" if t.detail else "")
                )
        if not self.sections:
            lines.append("empty catalog: no groups")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        """The data that ``json.dumps`` writes as ``pipeline --json``."""
        return {
            "groups": [
                {
                    "name": sec.name,
                    "tuples": [
                        {
                            "M": t.M_name,
                            "N": t.N_name,
                            "nr_M": t.nr_M,
                            "nr_N": t.nr_N,
                            "i_H": t.i_H,
                            "i_K": t.i_K,
                            "v": t.v,
                            "k": t.k,
                            "lam": t.lam,
                            "cdl": t.cdl,
                            "type": t.type_tag,
                            "gate_H": t.gate_H,
                            "gate_K": t.gate_K,
                            "status": t.status,
                            "detail": t.detail,
                            "invariants": t.invariants,
                        }
                        for t in sec.tuples
                    ],
                }
                for sec in self.sections
            ]
        }


def _resolve_subgroups(cat: GroupCatalog, M: MaximalRecord, index: int) -> list:
    """Groups of index ``index`` in M available from catalog data."""
    if index == 1:
        return [("=" + M.name, M.group)] if M.group is not None else []
    return [(h.name, h.group) for h in cat.hints
            if h.inside == M.name and h.index == index]


def _evaluate(cat: GroupCatalog, tup: CandidateTuple, M: MaximalRecord,
              N: MaximalRecord, run: _Run) -> tuple:
    """The verdict (status, detail, invariants) of a tuple whose gates are set.

    An "nsg" gate (H side first) refutes it; with no group generators, or
    no known H of index i_H in M, it stays open.  Each H acts on v cosets
    (the loaded orders give |G:H| = |G:M| |M:H|); if every H has a bad
    subdegree it is "nsd" with the first H's.  With no known K of index i_K
    in N it stays open; else each surviving H and each K go to
    ``base_block_search`` until a design is found, whose certificate is
    the only invariants a verdict carries.
    """
    if tup.gate_H == GATE_NSG:
        return STATUS_NSG, f"{M.name} has no subgroup of index {tup.i_H}", None
    if tup.gate_K == GATE_NSG:
        return STATUS_NSG, f"{N.name} has no subgroup of index {tup.i_K}", None
    if cat.group is None:
        return STATUS_OPEN, "no generator data", None
    hs = _resolve_subgroups(cat, M, tup.i_H)
    if not hs:
        return STATUS_OPEN, f"no generators known for an index-{tup.i_H} subgroup of {M.name}", None

    surviving, bad = [], []
    for hname, H in hs:
        act = _once(run.actions, id(H), coset_action, cat.group, H)
        e = first_bad_subdegree(tup.k, tup.lam, act.group.subdegrees(1))
        if e is None:
            surviving.append((hname, act))
        else:
            bad.append(e)
    if not surviving:
        return STATUS_NSD, f"smallest bad subdegree {bad[0]}", None
    ks = _resolve_subgroups(cat, N, tup.i_K)
    if not ks:
        return STATUS_OPEN, f"no generators known for an index-{tup.i_K} subgroup of {N.name}", None

    outcomes = []
    for hname, act in surviving:
        for kname, K in ks:
            outcome = base_block_search(act, K, tup.params, run)
            if outcome.status == STATUS_DESIGN:
                return STATUS_DESIGN, f"H={hname}, K={kname}", outcome.certificate
            outcomes.append(outcome)
    if any(o.status == STATUS_NOT_DESIGN for o in outcomes):
        return STATUS_NOT_DESIGN, "length-k orbits exist but verify no design", None
    return STATUS_NO_BLOCK, f"K-orbit lengths {list(outcomes[0].orbit_lengths)}", None


def _candidates(M: MaximalRecord) -> list:
    """``enumerate_params`` over ``candidate_vs(M)``, skipping each v whose
    v - 1 is prime to |M|, for which it would return [] unfactored."""
    order = M.order
    return [cand for v in candidate_vs(M) if math.gcd(v - 1, order) > 1
            for cand in enumerate_params(v, order)]


def _derived(params: tuple) -> tuple:
    return tuple(derive_cdl(*params)), classify_type(*params).tag


def run_pipeline(catalog_data) -> PipelineReport:
    """Execute the whole search over every group in the catalog.

    Each catalog gets one ``_Run`` for this call; nothing outlives it.
    """
    report = PipelineReport([])
    for cat in load_catalogs(catalog_data):
        large = [M for M in cat.maximals if large_filter(cat.order, M.order)]
        tuples = []
        run = _Run()
        tables = cat.index_tables
        for nr_M, M in enumerate(large, 1):
            for cand in _once(run.candidates, (M.order, M.index), _candidates, M):
                params = cand.triple
                for nr_N, N in enumerate(large, 1):
                    if not divisibility_gate(params, N):
                        continue
                    cdl, type_tag = _once(run.derived, params, _derived, params)
                    i_H, i_K = cand.v // M.index, cand.v // N.index
                    tup = CandidateTuple(
                        group=cat.name,
                        nr_M=nr_M,
                        nr_N=nr_N,
                        M_name=M.name,
                        N_name=N.name,
                        i_H=i_H,
                        i_K=i_K,
                        v=cand.v,
                        k=cand.k,
                        lam=cand.lam,
                        cdl=cdl,
                        type_tag=type_tag,
                        gate_H=subgroup_index_gate(M.name, i_H, tables),
                        gate_K=subgroup_index_gate(N.name, i_K, tables),
                    )
                    tup.status, tup.detail, tup.invariants = _evaluate(cat, tup, M, N, run)
                    tuples.append(tup)
        tuples.sort(key=lambda t: (t.nr_M, t.nr_N, t.k, t.v))
        report.sections.append(GroupReport(cat.name, tuples))
    return report

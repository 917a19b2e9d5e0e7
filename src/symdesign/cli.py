"""Command-line surface for batch use and report generation.

Exit status: 0 on success, 1 on a negative mathematical verdict (e.g. a
design refutation or a failed transitivity check), 2 on usage or parse
errors.  All output is deterministic; ``pipeline --json`` mirrors the text
report's data exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog as _catalog
from .design import (
    DesignParams,
    ImprimitivityProfile,
    NotSymmetric,
    certify,
    construct_design,
    design_file_text,
    is_anti_flag_transitive,
    is_flag_transitive,
    parse_design_file,
    verify_symmetric,
)
from .group import assert_subgroup, coset_action, group_file_text, parse_group_file
from .params import check_basic, classify_type, derive_cdl, enumerate_params
from .pipeline import run_pipeline

OK, REFUTED, USAGE = 0, 1, 2


def _read_group(path: str):
    with open(path) as fh:
        group, name = parse_group_file(fh.read())
    return group, name


def _read_design(path: str):
    with open(path) as fh:
        return parse_design_file(fh.read())


def _cmd_order(args) -> int:
    group, _ = _read_group(args.groupfile)
    print(group.order())
    return OK


def _cmd_orbits(args) -> int:
    group, _ = _read_group(args.groupfile)
    acting = group
    if args.under:
        sub, _ = _read_group(args.under)
        assert_subgroup(group, sub, "--under group")
        acting = sub
    for orbit in acting.orbits():
        print(",".join(map(str, orbit)))
    return OK


def _cmd_subdegrees(args) -> int:
    group, _ = _read_group(args.groupfile)
    sub = group.subdegrees(args.point)
    print(",".join(map(str, sub)))
    print(f"rank: {len(sub)}")
    return OK


def _cmd_blocks(args) -> int:
    group, _ = _read_group(args.groupfile)
    systems = group.minimal_block_systems()
    if not systems:
        print("primitive: no nontrivial block system")
        return REFUTED
    for i, sys_ in enumerate(systems, 1):
        print(f"system {i}: {sys_.num_classes} classes of {sys_.class_size}")
        for cls in sys_.classes:
            print("  " + ",".join(map(str, cls)))
    return OK


def _cmd_coset_action(args) -> int:
    group, _ = _read_group(args.groupfile)
    sub, _ = _read_group(args.subgroupfile)
    act = coset_action(group, sub)
    text = group_file_text(act.group, name=f"coset action of degree {act.degree}")
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"degree {act.degree} action written to {args.out}")
    return OK


def _cmd_search_params(args) -> int:
    cands = enumerate_params(args.v, args.m_order)
    for cand in cands:
        print(f"{cand.v} {cand.k} {cand.lam}")
    return OK if cands else REFUTED


def _cmd_classify_type(args) -> int:
    basic = check_basic(args.v, args.k, getattr(args, "lambda"))
    if not basic:
        print("; ".join(basic.failures))
        return REFUTED
    t = classify_type(args.v, args.k, getattr(args, "lambda"))
    witness = " ".join(f"(c,d,l)=({c},{d},{l})" for c, d, l in t.witnesses)
    print(f"type: {t.tag}" + (f" {witness}" if witness else "")
          + (f" [all: {','.join(t.all_tags)}]" if len(t.all_tags) > 1 else ""))
    return OK if t.tag != "none" else REFUTED


def _cmd_derive_cdl(args) -> int:
    rows = derive_cdl(args.v, args.k, getattr(args, "lambda"))
    for c, d, l, s in rows:
        print(f"c={c} d={d} l={l} s={s}")
    return OK if rows else REFUTED


def _parse_block(arg: str) -> list[int]:
    if os.path.exists(arg):
        with open(arg) as fh:
            text = fh.read()
    else:
        text = arg
    entries = [x.strip() for x in text.replace("\n", ",").split(",") if x.strip()]
    block = []
    for pos, x in enumerate(entries, 1):
        try:
            block.append(int(x))
        except ValueError:
            raise ValueError(f"--block entry {pos} ({x!r}) is not an integer") from None
    return block


def _cmd_construct_design(args) -> int:
    group, _ = _read_group(args.groupfile)
    design = construct_design(group, _parse_block(args.block))
    with open(args.out, "w") as fh:
        fh.write(design_file_text(design))
    print(f"{design.num_blocks} blocks written to {args.out}")
    return OK


def _cmd_verify_design(args) -> int:
    design = _read_design(args.designfile)
    try:
        params = verify_symmetric(design)
    except NotSymmetric as exc:
        print(f"not symmetric: {exc} [axiom {exc.axiom}]")
        return REFUTED
    kind = "nontrivial" if params.nontrivial else "trivial"
    print(f"symmetric {params}, {kind}")
    return OK


def _cmd_flag_transitive(args) -> int:
    design = _read_design(args.designfile)
    group, _ = _read_group(args.groupfile)
    if args.anti:
        result = is_anti_flag_transitive(design, group, force=args.force)
        label = "anti-flag-transitive"
    else:
        result = is_flag_transitive(design, group, force=args.force)
        label = "flag-transitive"
    print(f"{label}: {'yes' if result else 'no'}")
    return OK if result else REFUTED


def _cmd_pipeline(args) -> int:
    with open(args.catalogfile) as fh:
        data = json.load(fh)
    report = run_pipeline(data)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=1, sort_keys=True))
    else:
        print(report.to_text(), end="")
    return OK


# The paper's values for the M12 design: blocks, params, flag- and
# anti-flag-transitivity, the class of 1 in each minimal block system, and
# the (c,d,l,s) profile against each system.
_D1_EXPECTED = (
    144, DesignParams(144, 66, 30), True, False,
    (tuple(range(1, 13)), (1, 13, 35, 38, 57, 62, 81, 91, 103, 109, 128, 140)),
    (ImprimitivityProfile(12, 12, 6, 11),) * 2,
)


def _cmd_reproduce_d1(args) -> int:
    G = _catalog.load("m12-144/G")
    design = construct_design(G, _catalog.load("m12-144/base-block"))
    cert = certify(design, G)
    aft = is_anti_flag_transitive(design, G)
    params, ft = cert.params, cert.flag_transitive
    print(f"blocks: {design.num_blocks}")
    print(f"params: {params}")
    print(f"flag-transitive: {'yes' if ft else 'no'}")
    print(f"anti-flag-transitive: {'yes' if aft else 'no'}")
    for i, (sys_, prof) in enumerate(zip(cert.systems, cert.profiles), 1):
        print(f"class of 1 in system {i}: "
              + ",".join(map(str, sys_.class_containing(1))))
        print(f"profile system {i}: {prof}")
    classes_of_1 = tuple(s.class_containing(1) for s in cert.systems)
    good = (design.num_blocks, params, ft, aft, classes_of_1, cert.profiles) == _D1_EXPECTED
    first, prof = cert.systems[0], cert.profiles[0]
    print(
        f"summary: ({params.v},{params.k},{params.lam}) "
        f"{'design-found' if good else 'MISMATCH'}; "
        f"flag-transitive: {'yes' if ft else 'no'}; "
        f"anti-flag-transitive: {'yes' if aft else 'no'}; "
        f"systems: {len(cert.systems)}x({first.num_classes} classes of "
        f"{first.class_size}); (c,d,l,s)=({prof.c},{prof.d},{prof.ell},{prof.s})"
    )
    return OK if good else REFUTED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symdesign",
        description="permutation groups, symmetric 2-designs, and the "
        "flag-transitive imprimitive design search",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("order", help="group order from a group file")
    p.add_argument("groupfile")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("orbits", help="orbit partition of a group (or a subgroup)")
    p.add_argument("groupfile")
    p.add_argument("--under", metavar="SUBGROUPFILE")
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("subdegrees", help="point-stabilizer orbit lengths")
    p.add_argument("groupfile")
    p.add_argument("--point", type=int, required=True)
    p.set_defaults(func=_cmd_subdegrees)

    p = sub.add_parser("blocks", help="minimal nontrivial block systems")
    p.add_argument("groupfile")
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("coset-action", help="permutation image on the cosets of a subgroup")
    p.add_argument("groupfile")
    p.add_argument("subgroupfile")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_coset_action)

    p = sub.add_parser("search-params", help="admissible (v,k,lambda) for a subgroup order")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--m-order", type=int, required=True)
    p.set_defaults(func=_cmd_search_params)

    p = sub.add_parser("classify-type", help="imprimitive parameter shape a/b/c/d")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", type=int, required=True)
    p.set_defaults(func=_cmd_classify_type)

    p = sub.add_parser("derive-cdl", help="class-equation solutions (c,d,l,s)")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", type=int, required=True)
    p.set_defaults(func=_cmd_derive_cdl)

    p = sub.add_parser("construct-design", help="design from the orbit of a base block")
    p.add_argument("groupfile")
    p.add_argument("--block", required=True, metavar="CSV_OR_FILE")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_construct_design)

    p = sub.add_parser("verify-design", help="check the symmetric design axioms")
    p.add_argument("designfile")
    p.set_defaults(func=_cmd_verify_design)

    p = sub.add_parser("flag-transitive", help="flag transitivity under a group")
    p.add_argument("designfile")
    p.add_argument("groupfile")
    p.add_argument("--anti", action="store_true")
    p.add_argument("--force", action="store_true",
                   help="allow trivial designs")
    p.set_defaults(func=_cmd_flag_transitive)

    p = sub.add_parser("pipeline", help="run the catalog search and print the report")
    p.add_argument("catalogfile")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("reproduce-d1", help="end-to-end 2-(144,66,30) reconstruction")
    p.set_defaults(func=_cmd_reproduce_d1)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # JSONDecodeError and CatalogError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())

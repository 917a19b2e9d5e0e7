"""Embedded, checksum-pinned datasets and the pipeline catalog format.

Each dataset id maps to a payload (group, point list, design, or
pipeline catalog), a provenance note, and a validator that re-checks the
defining invariants on every load.  Transcribed permutation data is the
dominant risk here, so the validators are deliberately strict: group
orders, fixed points, and orbit signatures all have to match before a
payload is handed out.  The four M12 groups are built from generator
strings of ``m12_catalog.json``, so one checksum pins all of them.

``load_catalogs`` turns the JSON catalog format into the records the
pipeline searches.  It checks every field's shape and type, that orders
and indices are at least 1, every stated order against its factorization
and its generators, order * index against the group order, and that all
generators lie in the group, so the pipeline's gates can trust what they
get.  Anything malformed or inconsistent raises CatalogError naming the
JSON path.

Within one catalog, each distinct cycle string is parsed once, and
records that repeat a generator list share one parse and one stabilizer
chain: the repeat is still its own ``PermGroup``, but it takes the first
one's complete chain and skips the membership sifts already done.  Both
live only for that catalog's load.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

from .arith import _proven_prime
from .design import Design, parse_design_file, verify_symmetric
from .group import PermGroup
from .perm import MAX_DEGREE, parse_cycles

__all__ = [
    "CatalogError",
    "MaximalRecord",
    "SubgroupHint",
    "GroupCatalog",
    "load_catalogs",
    "load",
    "dataset_ids",
    "provenance",
]


class CatalogError(ValueError):
    """Unknown dataset id, checksum mismatch or invariant failure, and
    malformed or inconsistent pipeline catalog data."""


# sha256 of every file-backed payload; regenerated by scripts/pin_checksums.py
_CHECKSUMS = {
    "fano.design": "9e15d0d450f9b7fde2be06fc56cef0596b8be5e25473fc150c133afea44f96d7",
    "fi22_stub.json": "2f6ebd5605e0ebd6b7cd246f04c69b1d42f81bcca079950e10498ab2fed1a569",
    "m12_144_base_block.txt": "8248b4c341d22a1284ac6a41d5eb207f900f9f09074766640efcd6438b09acae",
    "m12_catalog.json": "e842500ed2e9fb874f02fea1082bb40d46144e6383df6f8acb503bcc2a0fc94d",
}


def _sha256(data: bytes) -> str:
    """Hex SHA-256 from CPython's built-in module (``_sha2`` on 3.12+,
    ``_sha256`` on 3.10-3.11), so no load maps OpenSSL; ``hashlib`` only
    when neither is built."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _read(fname: str) -> str:
    try:
        with open(os.path.join(os.path.dirname(__file__), "data", fname)) as fh:
            text = fh.read()
    except FileNotFoundError as exc:
        raise CatalogError(f"missing data file {fname}") from exc
    digest = _sha256(text.encode())
    pinned = _CHECKSUMS.get(fname)
    if pinned and digest != pinned:
        raise CatalogError(f"checksum mismatch for {fname}: {digest}")
    return text


def _load_json(fname: str) -> dict:
    return json.loads(_read(fname))


def _check(cond: bool, dataset: str, what: str):
    if not cond:
        raise CatalogError(f"{dataset}: invariant failed: {what}")


def _m12_group(name: str | None = None) -> PermGroup:
    """The group on generator strings of ``m12_catalog.json``: the catalog
    group's, or those of its first maximal or hint called ``name``."""
    data = _load_json("m12_catalog.json")
    degree = data["group"]["degree"]
    records = data["maximals"] + data["subgroup_hints"]
    rec = data["group"] if name is None else next(r for r in records if r["name"] == name)
    return PermGroup([parse_cycles(s, degree) for s in rec["generators"]], degree=degree)


def _load_m12_G() -> PermGroup:
    G = _m12_group()
    _check(G.degree == 144, "m12-144/G", "degree 144")
    _check(G.order() == 95040, "m12-144/G", "order 95040")
    return G


def _load_m12_H() -> PermGroup:
    H = _m12_group("point-L2(11)")
    _check(H.order() == 660, "m12-144/H", "order 660")
    _check(all(g(1) == 1 for g in H.generators), "m12-144/H", "fixes point 1")
    return H


def _load_m12_K() -> PermGroup:
    K = _m12_group("block-L2(11)")
    _check(K.order() == 660, "m12-144/K", "order 660")
    lengths = sorted(len(o) for o in K.orbits())
    _check(lengths == [1, 11, 11, 55, 66], "m12-144/K", "orbit lengths 1,11,11,55,66")
    return K


def _load_m12_N3() -> PermGroup:
    N = _m12_group("L2(11)max")
    _check(N.order() == 660, "m12-144/maximal-l211", "order 660")
    lengths = sorted(len(o) for o in N.orbits())
    _check(lengths == [12, 132], "m12-144/maximal-l211", "orbit lengths 12,132")
    return N


def _load_base_block() -> list[int]:
    block = [int(x) for x in _read("m12_144_base_block.txt").replace("\n", "").split(",")]
    _check(len(block) == 66, "m12-144/base-block", "66 points")
    _check(block == sorted(set(block)), "m12-144/base-block", "sorted distinct points")
    _check(1 <= block[0] and block[-1] <= 144, "m12-144/base-block", "points in 1..144")
    return block


def _load_fano() -> Design:
    design = parse_design_file(_read("fano.design"))
    params = verify_symmetric(design)
    _check((params.v, params.k, params.lam) == (7, 3, 1), "fixtures/fano", "(7,3,1)")
    return design


_REGISTRY = {
    "m12-144/G": (
        _load_m12_G,
        "144-point permutation representation of the Mathieu group M12, "
        "acting on the cosets of a non-maximal L2(11) subgroup; the group "
        "generators of m12_catalog.json",
    ),
    "m12-144/H": (
        _load_m12_H,
        "point stabilizer of 1 in the 144-point M12 action; L2(11), the "
        "intersection of the class stabilizers of the two invariant partitions; "
        "the first point-L2(11) hint of m12_catalog.json",
    ),
    "m12-144/K": (
        _load_m12_K,
        "block stabilizer of the base block of the 2-(144,66,30) design "
        "inside the 144-point M12 action; L2(11) with a single fixed point; "
        "the first block-L2(11) hint of m12_catalog.json",
    ),
    "m12-144/maximal-l211": (
        _load_m12_N3,
        "maximal L2(11) subgroup of the 144-point M12 action, orbit "
        "lengths 12 and 132; found by scripts/find_maximal_l211.py and kept "
        "as the L2(11)max maximal of m12_catalog.json",
    ),
    "m12-144/base-block": (
        _load_base_block,
        "base block of the point-imprimitive 2-(144,66,30) design with "
        "automorphism group M12: the 66-point orbit of the block stabilizer",
    ),
    "fixtures/fano": (
        _load_fano,
        "Fano plane 2-(7,3,1), the development of the difference set {1,2,4} mod 7",
    ),
    "m12-144/catalog": (
        lambda: _load_json("m12_catalog.json"),
        "search catalog for M12: the two M11 classes and the maximal L2(11), "
        "with their maximal-subgroup index tables and known index-12 subgroups",
    ),
    "fi22/catalog-stub": (
        lambda: _load_json("fi22_stub.json"),
        "search catalog stub for Fi22: the two O7(3) maximal classes with "
        "their smallest maximal-subgroup indices; no generator data",
    ),
}


def dataset_ids() -> list[str]:
    return sorted(_REGISTRY)


def provenance(dataset_id: str) -> str:
    try:
        return _REGISTRY[dataset_id][1]
    except KeyError as exc:
        raise CatalogError(f"unknown dataset id {dataset_id!r}") from exc


def load(dataset_id: str):
    """Parse, checksum-verify, and invariant-check one embedded dataset."""
    try:
        loader, _ = _REGISTRY[dataset_id]
    except KeyError as exc:
        raise CatalogError(f"unknown dataset id {dataset_id!r}") from exc
    return loader()


# ---- the pipeline catalog format ---------------------------------------------


class MaximalRecord(NamedTuple):
    """A maximal subgroup: order, index, and optionally its group (built
    from stated generators) and its order factorization."""

    name: str
    order: int
    index: int
    group: PermGroup | None = None
    order_factorization: dict | None = None


class SubgroupHint(NamedTuple):
    """Known subgroup of a maximal class, with explicit generators."""

    name: str
    inside: str
    index: int
    group: PermGroup


class GroupCatalog(NamedTuple):
    """One group's search data; ``index_tables`` maps a group name to its
    (maximal subgroup name or None, index) rows."""

    name: str
    order: int
    group: PermGroup | None
    maximals: tuple
    hints: tuple
    index_tables: dict


def _record(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise CatalogError(f"{where}: expected a JSON object")
    return value


def _field(rec: dict, key: str, where: str):
    if key not in rec:
        raise CatalogError(f"{where}: missing field {key!r}")
    return rec[key]


def _str(value, where: str) -> str:
    if not isinstance(value, str):
        raise CatalogError(f"{where}: expected a string")
    return value


def _list(value, where: str):
    if not isinstance(value, (list, tuple)):
        raise CatalogError(f"{where}: expected a list")
    return value


def _records(data: dict, key: str) -> list:
    """(path, object) for each entry of the optional list ``data[key]``."""
    items = _list(data.get(key, []), key)
    return [(f"{key}[{i}]", _record(item, f"{key}[{i}]")) for i, item in enumerate(items)]


def _pairs(rows, where: str):
    for row in _list(rows, where):
        if not isinstance(row, (list, tuple)) or len(row) != 2:
            raise CatalogError(f"{where}: row {row!r} is not a pair")
    return rows


def _int(value, where: str) -> int:
    """An integer given as a JSON number or a decimal string."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise CatalogError(f"{where}: expected an integer, got {value!r}")


def _positive(value, where: str) -> int:
    """An integer of at least 1, as ``_int`` reads it: an order or an index."""
    n = _int(value, where)
    if n < 1:
        raise CatalogError(f"{where}: {n} is below 1")
    return n


def _parse_factorization(value, order: int, where: str) -> dict | None:
    """{prime: exponent} from [p, e] rows; primes, e >= 1, product = order."""
    if value is None:
        return None
    where = f"{where}.order_factorization"
    fact = {}
    product = 1
    for i, (p, e) in enumerate(_pairs(value, where)):
        p, e = _int(p, f"{where}[{i}][0]"), _int(e, f"{where}[{i}][1]")
        try:
            if not _proven_prime(p):
                raise ValueError(f"{p} is not a prime")
        except ValueError as exc:
            raise CatalogError(f"{where}[{i}][0]: {exc}") from None
        if not 1 <= e <= order.bit_length():  # checked before p**e is computed
            raise CatalogError(
                f"{where}[{i}][1]: exponent {e} is below 1 or above {order.bit_length()}")
        fact[p] = e
        product *= p**e
    if product != order:
        raise CatalogError(f"{where}: product {product} != order {order}")
    return fact


def _index_rows(rows, where: str) -> tuple:
    """(name, index) rows of an index table; a null name stays None."""
    return tuple(
        (None if name is None else _str(name, f"{where}[{i}][0]"),
         _positive(index, f"{where}[{i}][1]"))
        for i, (name, index) in enumerate(_pairs(rows, where))
    )


def _parse_entries(record: dict, where: str) -> tuple:
    entries = list(_index_rows(record.get("maximal_subgroups", []),
                               f"{where}.maximal_subgroups"))
    where = f"{where}.maximal_indices"
    indices = _list(record.get("maximal_indices", []), where)
    entries += [(None, _positive(index, f"{where}[{i}]")) for i, index in enumerate(indices)]
    return tuple(entries)


def _parse_generators(strings, degree: int | None, where: str, parsed: dict):
    """The permutations of ``strings``, each distinct string parsed once
    into ``parsed`` (string -> permutation at ``degree``)."""
    if strings is None:
        return None
    if degree is None:
        raise CatalogError(f"{where}: generators given without a degree")
    where = f"{where}.generators"
    if not all(isinstance(s, str) for s in _list(strings, where)):
        raise CatalogError(f"{where}: expected cycle strings")
    try:
        return tuple(parsed.get(s) or parsed.setdefault(s, parse_cycles(s, degree))
                     for s in strings)
    except ValueError as exc:
        raise CatalogError(f"{where}: {exc}") from None


def _load_one_catalog(data: dict) -> GroupCatalog:
    grp = _record(_field(data, "group", "catalog"), "group")
    name = _str(_field(grp, "name", "group"), "group.name")
    order = _positive(_field(grp, "order", "group"), "group.order")
    degree = grp.get("degree")
    if degree is not None:
        degree = _int(degree, "group.degree")
        if not 1 <= degree <= MAX_DEGREE:
            raise CatalogError(f"group.degree: {degree} is outside 1..{MAX_DEGREE}")
    _parse_factorization(grp.get("order_factorization"), order, "group")
    parsed: dict = {}  # cycle string -> permutation, for this catalog only
    gens = _parse_generators(grp.get("generators"), degree, "group", parsed)
    group = None if gens is None else PermGroup(gens, degree=degree)
    if group is not None and group.order() != order:
        raise CatalogError(f"{name}: stated order {order} != computed {group.order()}")

    built: dict[tuple, PermGroup] = {}  # generator tables -> first group

    def subgroup(sub_gens, label: str) -> PermGroup:
        """The group generated by ``sub_gens``, which must lie in ``group``;
        a repeated generator list gets a new group on the first one's chain."""
        key = tuple(g.table for g in sub_gens)
        first = built.get(key)
        sub = PermGroup(sub_gens, degree=degree)
        if first is not None:
            sub._chain = first.chain
        elif group is not None and not all(map(group.contains, sub_gens)):
            raise CatalogError(f"{label}: generator outside {name}")
        else:
            orbit = None if group is None else group._fixed_point_orbit(sub_gens)
            sub._bound = None if orbit is None else group.order() // len(orbit)
            built[key] = sub
        return sub

    tables = {
        key: _index_rows(rows, f"index_tables.{key}")
        for key, rows in _record(data.get("index_tables", {}), "index_tables").items()
    }
    maximals = []
    for where, rec in _records(data, "maximals"):
        m_name = _str(_field(rec, "name", where), f"{where}.name")
        m_gens = _parse_generators(rec.get("generators"), degree, where, parsed)
        m_order = _positive(_field(rec, "order", where), f"{where}.order")
        m_index = _positive(_field(rec, "index", where), f"{where}.index")
        entries = _parse_entries(rec, where)
        if entries:
            tables.setdefault(m_name, entries)
        fact = _parse_factorization(rec.get("order_factorization"), m_order, where)
        if m_order * m_index != order:
            raise CatalogError(f"{m_name}: order*index != |{name}|")
        m_group = None if m_gens is None else subgroup(m_gens, m_name)
        if m_group is not None and m_group.order() != m_order:
            raise CatalogError(f"{m_name}: generator order != stated order")
        maximals.append(MaximalRecord(m_name, m_order, m_index, m_group, fact))

    hints = []
    for where, rec in _records(data, "subgroup_hints"):
        inside = _str(_field(rec, "inside", where), f"{where}.inside")
        h_name = _str(rec.get("name", f"hint-{inside}"), f"{where}.name")
        owner = next((m for m in maximals if m.name == inside), None)
        if owner is None:
            raise CatalogError(f"hint {h_name}: unknown maximal {inside!r}")
        if group is None:
            raise CatalogError(f"hint {h_name}: hints need group generators")
        h_gens = _list(_field(rec, "generators", where), f"{where}.generators")
        hgroup = subgroup(_parse_generators(h_gens, degree, where, parsed), f"hint {h_name}")
        index = _int(_field(rec, "index", where), f"{where}.index")
        if index < 1 or owner.order % index or hgroup.order() != owner.order // index:
            raise CatalogError(
                f"hint {h_name}: order {hgroup.order()} is not |{inside}|/{index}"
            )
        hints.append(SubgroupHint(h_name, inside, index, hgroup))

    return GroupCatalog(name, order, group, tuple(maximals), tuple(hints), tables)


def load_catalogs(data) -> list[GroupCatalog]:
    """Accept a single parsed catalog object or {"groups": [...]}; validate all.

    Malformed data raises CatalogError naming the record and the field.
    """
    data = _record(data, "catalog")
    if not data:
        return []
    if "groups" in data:
        return [_load_one_catalog(rec) for _, rec in _records(data, "groups")]
    return [_load_one_catalog(data)]

"""Embedded, checksum-pinned datasets used by the tests and the CLI.

Each dataset id maps to a payload (group file, point list, design, or
pipeline catalog), a provenance note, and a validator that re-checks the
defining invariants on every load.  Transcribed permutation data is the
dominant risk here, so the validators are deliberately strict: group
orders, fixed points, and orbit signatures all have to match before a
payload is handed out.
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources

from .design import Design, parse_design_file, verify_symmetric
from .group import PermGroup, parse_group_file

__all__ = ["CatalogError", "load", "dataset_ids", "provenance"]


class CatalogError(ValueError):
    """Unknown dataset id, checksum mismatch or invariant failure, and
    malformed or inconsistent pipeline catalog data."""


# sha256 of every file-backed payload; regenerated by scripts/pin_checksums.py
_CHECKSUMS = {
    "fano.design": "9e15d0d450f9b7fde2be06fc56cef0596b8be5e25473fc150c133afea44f96d7",
    "fi22_stub.json": "2f6ebd5605e0ebd6b7cd246f04c69b1d42f81bcca079950e10498ab2fed1a569",
    "m12_144_G.grp": "87640ae039b27d695889787e7f031c1e9826c86a2c534eef011109ad19fc54a1",
    "m12_144_H.grp": "b0646af6d54c2f5bba232e4cdc84e6a58b655bb5cfdd766f44afc1e89f0405a2",
    "m12_144_K.grp": "3b7787f34d8181c4f376b36aff8968e15ab681fd0f10035714fbd69351042c62",
    "m12_144_N3.grp": "0f61d90e4519a7a83887fab00f7474ecb529ab50c177963657e4582dda19124b",
    "m12_144_base_block.txt": "8248b4c341d22a1284ac6a41d5eb207f900f9f09074766640efcd6438b09acae",
    "m12_catalog.json": "e842500ed2e9fb874f02fea1082bb40d46144e6383df6f8acb503bcc2a0fc94d",
}


def _read(fname: str) -> str:
    try:
        text = (resources.files("symdesign.data") / fname).read_text()
    except FileNotFoundError as exc:
        raise CatalogError(f"missing data file {fname}") from exc
    digest = hashlib.sha256(text.encode()).hexdigest()
    pinned = _CHECKSUMS.get(fname)
    if pinned and digest != pinned:
        raise CatalogError(f"checksum mismatch for {fname}: {digest}")
    return text


def _load_group(fname: str) -> PermGroup:
    group, _name = parse_group_file(_read(fname))
    return group


def _check(cond: bool, dataset: str, what: str):
    if not cond:
        raise CatalogError(f"{dataset}: invariant failed: {what}")


def _load_m12_G() -> PermGroup:
    G = _load_group("m12_144_G.grp")
    _check(G.degree == 144, "m12-144/G", "degree 144")
    _check(G.order() == 95040, "m12-144/G", "order 95040")
    return G


def _load_m12_H() -> PermGroup:
    H = _load_group("m12_144_H.grp")
    _check(H.order() == 660, "m12-144/H", "order 660")
    _check(all(g(1) == 1 for g in H.generators), "m12-144/H", "fixes point 1")
    return H


def _load_m12_K() -> PermGroup:
    K = _load_group("m12_144_K.grp")
    _check(K.order() == 660, "m12-144/K", "order 660")
    lengths = sorted(len(o) for o in K.orbits())
    _check(lengths == [1, 11, 11, 55, 66], "m12-144/K", "orbit lengths 1,11,11,55,66")
    return K


def _load_m12_N3() -> PermGroup:
    N = _load_group("m12_144_N3.grp")
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


def _load_json(fname: str) -> dict:
    return json.loads(_read(fname))


_REGISTRY = {
    "m12-144/G": (
        _load_m12_G,
        "144-point permutation representation of the Mathieu group M12, "
        "acting on the cosets of a non-maximal L2(11) subgroup",
    ),
    "m12-144/H": (
        _load_m12_H,
        "point stabilizer of 1 in the 144-point M12 action; L2(11), the "
        "intersection of the class stabilizers of the two invariant partitions",
    ),
    "m12-144/K": (
        _load_m12_K,
        "block stabilizer of the base block of the 2-(144,66,30) design "
        "inside the 144-point M12 action; L2(11) with a single fixed point",
    ),
    "m12-144/maximal-l211": (
        _load_m12_N3,
        "maximal L2(11) subgroup of the 144-point M12 action, orbit "
        "lengths 12 and 132; found by scripts/find_maximal_l211.py",
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

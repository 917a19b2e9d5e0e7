"""Contracts of the result records, and what importing the package loads.

The frozen records are NamedTuples: each keeps the repr, the ``str`` and
the truth value it is read by, and refuses assignment.  ``CandidateTuple``
is the one record the pipeline fills in, so its fields stay assignable.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from symdesign.catalog import MaximalRecord
from symdesign.design import Certificate, DesignParams, ImprimitivityProfile
from symdesign.params import ImprimitivityType, ParamCandidate, check_basic, classify_type
from symdesign.pipeline import CandidateTuple

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("record, text", [
    (DesignParams(144, 66, 30), "DesignParams(v=144, k=66, lam=30)"),
    (ImprimitivityProfile(12, 12, 6, 11), "ImprimitivityProfile(c=12, d=12, ell=6, s=11)"),
    (Certificate(DesignParams(7, 3, 1), True, (), ()),
     "Certificate(params=DesignParams(v=7, k=3, lam=1), flag_transitive=True, "
     "systems=(), profiles=())"),
    (check_basic(144, 66, 30), "BasicCheck(ok=True, failures=())"),
    (ParamCandidate(v=144, k=66, lam=30, t=11, m=5, k1=13, k2=11, lam1=5, lam2=6),
     "ParamCandidate(v=144, k=66, lam=30, t=11, m=5, k1=13, k2=11, lam1=5, lam2=6)"),
    (classify_type(16, 6, 2),
     "ImprimitivityType(tag='b', witnesses=((4, 4, 2), (4, 4, 2)), all_tags=('b',))"),
], ids=["DesignParams", "ImprimitivityProfile", "Certificate", "BasicCheck",
        "ParamCandidate", "ImprimitivityType"])
def test_frozen_record_repr_is_pinned(record, text):
    assert repr(record) == text


def test_record_strings():
    assert str(DesignParams(144, 66, 30)) == "(144,66,30)"
    assert f"{ImprimitivityProfile(12, 12, 6, 11)}" == "(c,d,l,s)=(12,12,6,11)"
    assert DesignParams(144, 66, 30).nontrivial
    assert not DesignParams(7, 6, 5).nontrivial


def test_basic_check_is_false_for_a_failing_triple():
    check = check_basic(10, 3, 1)
    assert bool(check) is False
    assert check.failures  # a nonempty tuple would be truthy without __bool__
    assert bool(check_basic(144, 66, 30)) is True


@pytest.mark.parametrize("record, name", [
    (DesignParams(144, 66, 30), "lam"),
    (MaximalRecord(name="M11", order=7920, index=12), "order"),
    (ParamCandidate(v=144, k=66, lam=30, t=11, m=5, k1=13, k2=11, lam1=5, lam2=6), "k"),
    (ImprimitivityType("none", (), ()), "tag"),
])
def test_record_fields_refuse_assignment(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, 0)


def test_maximal_record_takes_keywords_and_defaults():
    M = MaximalRecord(name="M11", order=7920, index=12)
    assert (M.name, M.order, M.index) == ("M11", 7920, 12)
    assert M.group is None and M.order_factorization is None


def test_candidate_tuple_is_filled_in():
    t = CandidateTuple(group="M12", nr_M=1, nr_N=2, M_name="M11a", N_name="M11b",
                       i_H=12, i_K=12, v=144, k=66, lam=30, cdl=(), type_tag="a")
    assert (t.gate_H, t.gate_K, t.status, t.detail, t.invariants) == (
        "unknown", "unknown", "open", "", None)
    t.gate_H = "possible"
    t.status = "design-found"
    t.invariants = {"params": (144, 66, 30)}
    assert (t.gate_H, t.status, t.invariants["params"]) == ("possible", "design-found",
                                                             (144, 66, 30))
    assert t.params == (144, 66, 30)
    assert repr(t).startswith("CandidateTuple(group='M12', nr_M=1, nr_N=2,")
    with pytest.raises(AttributeError):
        t.unknown_field = 1


def test_import_loads_neither_dataclasses_nor_inspect():
    """Cold start: the package and its CLI pull in no ``dataclasses`` (and
    through it ``inspect``)."""
    code = ("import sys, symdesign, symdesign.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_leaves_hashlib_unloaded():
    """Cold start: a checksummed ``catalog.load`` takes SHA-256 from
    CPython's built-in module, so neither ``hashlib`` nor OpenSSL's
    ``_hashlib`` is loaded before or after it."""
    code = ("import sys, symdesign, symdesign.cli; "
            "from symdesign.catalog import load; "
            "print('hashlib' in sys.modules, '_hashlib' in sys.modules, end=' '); "
            "load('m12-144/H'); "
            "print('hashlib' in sys.modules, '_hashlib' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False"] * 4


def test_checksums_fall_back_to_hashlib():
    """With both built-in SHA-256 modules blocked, every pinned file still
    loads through ``hashlib``, and a wrong pin still raises."""
    code = textwrap.dedent("""\
        import sys
        sys.modules["_sha2"] = sys.modules["_sha256"] = None
        from symdesign import catalog
        for dataset_id in catalog.dataset_ids():
            catalog.load(dataset_id)
        print("hashlib" in sys.modules)
        catalog._CHECKSUMS["m12_catalog.json"] = "0" * 64
        try:
            catalog.load("m12-144/G")
        except catalog.CatalogError as exc:
            print(exc)
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    loaded_hashlib, mismatch = out.stdout.splitlines()
    assert loaded_hashlib == "True"
    assert mismatch.startswith("checksum mismatch for m12_catalog.json: ")

"""Run a fixed list of source mutants against the tests meant to kill them.

    python3 scripts/mutants.py

Each mutant is one exact text substitution (old -> new) in one file under
``src/`` and the pytest selection that should fail on it.  The script
copies ``src/``, ``tests/``, ``conftest.py`` and ``pyproject.toml`` into a
temporary directory and first runs every selection there unchanged: a
selection that already fails proves nothing, so that exits 1.  Then, one
mutant at a time, it writes the substitution into the copy, runs the
selection, prints ``killed`` (pytest failed) or ``survived`` (it passed),
and puts the file back.  It exits 1 when any mutant survives, or when a
mutant's old text does not occur exactly once in its file, so the list
cannot go stale unseen.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/symdesign, old text, new text, pytest selection)
MUTANTS = [
    ("row-read-big-endian", "perm.py",
     'return int.from_bytes(key, "little")',
     'return int.from_bytes(key, "big")',
     ["tests/test_perm.py::test_mask_read_back_at_the_ends_of_the_byte_range",
      "tests/test_design.py::test_a_mask_row_holds_the_design_points_alone"]),
    ("row-read-past-plane-0-short", "perm.py",
     "rest = row >> 2048",
     "rest = row >> 2040",
     ["tests/test_perm.py::test_mask_read_back_at_the_ends_of_the_byte_range"]),
    ("mask-order-flipped", "perm.py",
     "reverse=type(keys[0]) is bytes",
     "reverse=type(keys[0]) is not bytes",
     ["tests/test_design.py", "-k", "kept_list or sorted_tuple_walk"]),
    ("mask-one-plane", "perm.py",
     "mask = bytearray(((degree >> 8) + 1) << 8)",
     "mask = bytearray(256)",
     ["tests/test_perm.py", "-k", "plane_masks"]),
    ("plane-select-off-by-one", "perm.py",
     "select[h] = 255",
     "select[h + 1] = 255",
     ["tests/test_perm.py", "-k", "plane_masks"]),
    ("plane-count-short", "perm.py",
     "for h in range((p.degree >> 8) + 1):",
     "for h in range(p.degree >> 8):",
     ["tests/test_perm.py", "-k", "plane_masks"]),
    ("class-rep-of-slot-0", "group.py",
     "rep = _pack([0, *(",
     "rep = _pack([1, *(",
     ["tests/test_group.py", "-k", "invariance or block_system"]),
    ("subdegree-gate-counts-1", "pipeline.py",
     "if e > 1 and (lam * e) % k:",
     "if e >= 1 and (lam * e) % k:",
     ["tests/test_pipeline.py", "-k", "subdegree_gate"]),
    ("nsg-without-recursion", "pipeline.py",
     "branch = subgroup_index_gate(sub_name, i // j, index_tables)",
     "branch = GATE_NSG",
     ["tests/test_pipeline.py", "-k", "subgroup_index_gate"]),
    ("prime-proof-bound-dropped", "arith.py",
     "if prime and n >= _MR_PROOF_BOUND:",
     "if prime and n < 0:",
     ["tests/test_params.py", "-k", "cannot_prove_prime"]),
    ("point-degree-one-sided", "design.py",
     "        if d != k:\n",
     "        if d > k:\n",
     ["tests/test_design.py", "-k", "verify_symmetric"]),
    ("block-pair-one-sided", "design.py",
     "if meet != lam:  # walk again",
     "if meet > lam:  # walk again",
     ["tests/test_design.py", "-k", "verify_symmetric"]),
    ("chain-bound-ignored", "group.py",
     "while i >= 0 and self.order() != self._bound:",
     "while i >= 0:",
     ["tests/test_group.py", "-k", "bound"]),
    ("chain-level-0-unchecked", "group.py",
     "while i >= 0 and self.order() != self._bound:",
     "while i >= 1 and self.order() != self._bound:",
     ["tests/test_group.py", "-k", "bound or chain"]),
    ("tree-edge-of-generator-0", "group.py",
     "if parent[y] != (x, i):",
     "if parent[y] != (x, 0):",
     ["tests/test_stabilizer.py::test_stabilizer_matches_the_reference",
      "tests/test_group.py::test_class_stabilizer_chains_of_the_m12_systems_are_the_reference_build"]),
    ("gather-without-index-0", "group.py",
     "itemgetter(0, *self._orbit)",
     "itemgetter(*self._orbit)",
     ["tests/test_coset_action.py::test_the_point_path_gathers_what_enumeration_labels"]),
    ("point-256-skipped", "perm.py",
     "compress(range(256, degree + 1)",
     "compress(range(257, degree + 1)",
     ["tests/test_perm.py::test_mask_read_back_at_the_ends_of_the_byte_range"]),
    ("last-slot-dropped", "perm.py",
     'rest.to_bytes(degree - 255, "little")',
     'rest.to_bytes(degree - 256, "little")',
     ["tests/test_perm.py::test_mask_read_back_at_the_ends_of_the_byte_range"]),
]


def _pytest(cwd: Path, selection) -> bool:
    """Whether the selection passes in the copy at ``cwd``."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True).returncode == 0


def main() -> int:
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        for name in ("conftest.py", "pyproject.toml"):
            shutil.copy(ROOT / name, copy / name)
        for selection in dict.fromkeys(tuple(m[4]) for m in MUTANTS):
            if not _pytest(copy, selection):
                print(f"selection fails unmutated: {' '.join(selection)}")
                return 1
        for name, file, old, new, selection in MUTANTS:
            path = copy / "src" / "symdesign" / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name}: stale, {old!r} occurs {text.count(old)} times in {file}")
                status = 1
                continue
            path.write_text(text.replace(old, new))
            try:
                survived = _pytest(copy, selection)
            finally:
                path.write_text(text)
            print(f"{name}: {'survived' if survived else 'killed'}")
            status |= survived
    return status


if __name__ == "__main__":
    sys.exit(main())

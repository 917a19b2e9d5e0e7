"""Exact permutation-group and symmetric 2-design toolkit.

Submodules:
  perm      permutations and disjoint-cycle text
  group     stabilizer chains, orbits, block systems, coset actions
  design    symmetric 2-design verification and group actions on designs
  params    admissible parameter enumeration and imprimitivity arithmetic
  pipeline  catalog-driven search: gates, base-block search, runner, report
  catalog   embedded, checksum-pinned datasets and the catalog format
  cli       command-line interface
"""

__version__ = "0.1.0"

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

from .perm import Permutation, parse_cycles, cycle_string
from .group import (
    PermGroup,
    BlockSystem,
    StabChain,
    CosetAction,
    SubgroupError,
    coset_action,
    induced_orbits,
)
from .design import (
    Design,
    DesignParams,
    ImprimitivityProfile,
    NotSymmetric,
    ProfileViolation,
    verify_symmetric,
    complement,
    construct_design,
    block_stabilizer,
    is_flag_transitive,
    is_anti_flag_transitive,
    imprimitivity_profile,
    Certificate,
    certify,
)
from .params import (
    ParamCandidate,
    ImprimitivityType,
    check_basic,
    enumerate_params,
    brute_force_params,
    classify_type,
    derive_cdl,
)
from .pipeline import run_pipeline, base_block_search, PipelineReport
from .catalog import load as load_dataset

__version__ = "0.1.0"

"""Deeper checks on the embedded 144-point data: the coset action route,
block stabilizers, and the divisibility identities a flag-transitive design
must satisfy."""

import math

import pytest

from symdesign.catalog import load
from symdesign.design import (
    NotSymmetric,
    block_stabilizer,
    complement,
    construct_design,
    verify_symmetric,
)
from symdesign.group import coset_action, induced_orbits
from symdesign.perm import parse_cycles


@pytest.fixture(scope="module")
def G():
    return load("m12-144/G")


@pytest.fixture(scope="module")
def design(G):
    D = construct_design(G, load("m12-144/base-block"))
    verify_symmetric(D)
    return D


def test_no_transposition_in_the_group(G):
    assert not G.contains(parse_cycles("(1,2)", 144))


def test_coset_action_on_h_matches_the_natural_action(G):
    H = load("m12-144/H")
    act = coset_action(G, H)
    assert act.degree == 144
    assert act.group.is_transitive()
    assert act.group.subdegrees(1) == [1, 11, 11, 55, 66]


@pytest.mark.parametrize("subgroup", ["H", "maximal-l211"])
def test_coset_action_group_is_the_image_of_the_generators(G, subgroup):
    act = coset_action(G, load(f"m12-144/{subgroup}"))
    assert len(act.group.generators) == len(G.generators)
    for i, g in enumerate(G.generators):
        assert act.group.generators[i] == act.image_of(g)


def test_induced_orbits_of_k(G):
    H = load("m12-144/H")
    K = load("m12-144/K")
    orbits = induced_orbits(coset_action(G, H), K)
    assert sorted(len(o) for o in orbits) == [1, 11, 11, 55, 66]


def test_design_complement_parameters(design, G):
    comp = complement(design)
    assert (comp.params.v, comp.params.k, comp.params.lam) == (144, 78, 42)
    assert 78 * 77 == 42 * 143


def test_block_stabilizer_of_the_design(design, G):
    stab = block_stabilizer(G, design, 0)
    assert stab.order() == 660
    assert design.num_blocks * stab.order() == G.order()


def test_point_side_divisibility(design, G):
    # flag-transitivity forces k | |G_alpha| and k | lam * gcd(v-1, |G_alpha|)
    stab = G.point_stabilizer(1)
    k, lam, v = 66, 30, 144
    assert stab.order() % k == 0
    assert (lam * math.gcd(v - 1, stab.order())) % k == 0


def test_point_side_block_orbit_length(design, G):
    # the stabilizer of a point acts on the blocks through that point with
    # a single orbit of length k (the flag count argument)
    H = load("m12-144/H")
    base = load("m12-144/base-block")
    idx = design.blocks.index(tuple(base))
    assert 1 in design.blocks[idx]
    hb = block_stabilizer(H, design, idx)
    assert H.order() // hb.order() == 66


def test_perturbed_design_is_refuted(design):
    blocks = list(design.blocks)
    foreign = tuple(range(1, 67))
    assert foreign not in design.blocks
    blocks[0] = foreign
    with pytest.raises(NotSymmetric):
        verify_symmetric(type(design)(144, blocks))

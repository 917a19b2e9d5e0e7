"""Point stabilizers read off the chain, and the early-stopping stabilizer,
against the exhaustive reference.

``PermGroup.point_stabilizer`` conjugates the chain's levels below the
first; a point outside the first basic orbit falls back to
``stabilizer_of_action``, which stops at |G|/|orbit| and skips the
Schreier tree's own edges.  Every case must agree with
``reference_stabilizer_of_action`` on the order and the orbit partition.
"""

import random
import sys
import tracemalloc

import pytest

from symdesign.catalog import load
from symdesign.design import (
    _block_action_images,
    block_stabilizer,
    construct_design,
    is_flag_transitive,
)
from symdesign.group import PermGroup
from symdesign.perm import Permutation

from helpers import (
    FIXTURES,
    cyclic,
    grp,
    paley,
    random_wreath_subgroup,
    reference_stabilizer_of_action,
    sym,
    wreath,
)


def point_action(g, x):
    return g.table[x]


def point_rows(G):
    return [g.table for g in G.generators]


def class_rows(G, system):
    return [[system.class_of[g.table[c[0]]] for c in system.classes] for g in G.generators]


def block_tuple_rows(G, design):
    """The block action on the blocks' point tuples, not their indices."""
    blocks, rows = design.blocks, _block_action_images(G, design)
    return [{blocks[i]: blocks[j] for i, j in enumerate(row)} for row in rows]


def action_of(G, rows):
    """The action ``rows`` tabulate under G's generators, as the reference's
    ``action(g, x)``."""
    row_of = dict(zip(G.generators, rows))
    return lambda g, x: row_of[g][x]


def _points(G):
    return sorted({1, (G.degree + 1) // 2, G.degree})


def _point_cases(G):
    return [(point, point_rows(G)) for point in _points(G)]


def _fixture_cases():
    groups = {name: group for name, (group, _order) in FIXTURES.items()}
    groups["C2wrS3"] = wreath(cyclic(2), sym(3))
    groups["S3wrC4"] = wreath(sym(3), cyclic(4))
    for seed in range(8):
        groups[f"wreath-word-{seed}"] = random_wreath_subgroup(random.Random(seed))
    groups["S4-base-2"] = grp(4, "(2,3)", "(1,2,3,4)")  # first base point 2, not 1
    groups["C2xC3"] = grp(5, "(1,2)", "(3,4,5)")  # 3..5 lie outside the first basic orbit
    groups["trivial"] = PermGroup.trivial(5)  # no chain levels at all
    for name, G in groups.items():
        cases = _point_cases(G)
        if G.is_transitive() and G.degree > 1:
            for system in G.minimal_block_systems():
                cases.append((0, class_rows(G, system)))
        yield name, G, cases


def _m12_cases():
    G = load("m12-144/G")
    design = construct_design(G, load("m12-144/base-block"))
    rows = _block_action_images(G, design)
    cases = _point_cases(G) + [(0, rows), (77, rows)]
    cases += [(0, class_rows(G, system)) for system in G.minimal_block_systems()]
    yield "m12-144", G, cases


def _paley_cases():
    for q in (11, 19, 23, 43, 263):
        G, block = paley(q)
        design = construct_design(G, block)
        cases = _point_cases(G) + [(0, _block_action_images(G, design))]
        if q == 11:  # auxiliary points that are not ints
            cases.append((design.blocks[0], block_tuple_rows(G, design)))
        yield f"paley-{q}", G, cases


CASES = {name: (G, cases) for make in (_fixture_cases, _m12_cases, _paley_cases)
         for name, G, cases in make()}


def _path(G, point):
    """Which way ``point_stabilizer`` takes: the chain's first base point,
    a conjugate of its stabilizer, or the Schreier-generator fallback."""
    if not G.chain.base or point not in G.orbit(G.chain.base[0]):
        return "fallback"
    return "base" if point == G.chain.base[0] else "conjugate"


@pytest.mark.parametrize("name", sorted(CASES))
def test_point_stabilizer_matches_the_reference(name):
    G, _cases = CASES[name]
    for point in _points(G):
        stab = G.point_stabilizer(point)
        ref = reference_stabilizer_of_action(G, point, point_action)
        assert stab.order() == ref.order()
        assert stab.orbits() == ref.orbits()
        for g in stab.generators:
            assert g.table[point] == point and G.contains(g)


def test_point_stabilizer_cases_take_every_path():
    paths = {(name, point): _path(G, point) for name, (G, _cases) in CASES.items()
             for point in _points(G)}
    assert set(paths.values()) == {"base", "conjugate", "fallback"}
    assert paths["S4-base-2", 1] == paths["m12-144", 1] == "conjugate"
    assert paths["C2xC3", 3] == paths["trivial", 1] == "fallback"


@pytest.mark.parametrize("order_known", [False, True], ids=["fresh", "order-known"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_stabilizer_matches_the_reference(name, order_known):
    G, cases = CASES[name]
    for seed, rows in cases:
        group = PermGroup(G.generators, degree=G.degree)
        if order_known:
            group.order()
        stab = group.stabilizer_of_action(seed, rows)
        ref = reference_stabilizer_of_action(G, seed, action_of(G, rows))
        assert stab.order() == ref.order()
        assert stab.orbits() == ref.orbits()
        # the same deterministic sequence of kept generators: a fresh group
        # builds its chain for |G| first, so both cases run the same code
        assert stab.generators == ref.generators
        assert group._chain is not None  # |G| bounds the search


@pytest.fixture(scope="module")
def long_cycle():
    """A 1500-cycle and the traced peak of building its chain, built once
    for the two tests below."""
    G = cyclic(1500)
    tracemalloc.start()
    try:
        G.order()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return G, peak


def test_long_schreier_tree_needs_no_recursion(long_cycle):
    """One 1500-cycle: the chain built for |G| sifts the only non-tree edge,
    which closes a path of 1499 tree edges that the transversal walk climbs
    without recursing."""
    G, peak = long_cycle
    assert G.degree > sys.getrecursionlimit()
    tracemalloc.start()
    try:
        stab = G.stabilizer_of_action(1, point_rows(G))
        stab_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stab.order() == 1 and stab.generators == ()
    # about 12 kB per transversal element of degree 1500; no eager inverses
    assert peak < 30 * 2**20 and stab_peak < 30 * 2**20


def test_long_chain_level_forms_no_eager_inverses(long_cycle):
    """The chain of a 1500-cycle has one level of 1500 points; its tree
    forms only the elements that sifting needs."""
    G, peak = long_cycle
    assert G.order() == 1500 and len(G.chain.levels) == 1
    assert peak < 30 * 2**20


def test_chain_build_forms_inverses_on_demand(monkeypatch):
    """Counts inverses instead of timing: a build strips each Schreier
    generator as a pair and inverts only the residues it installs: one
    for the Paley-263 chain (levels of 263 and 131 points), seven for
    M12-144."""
    inverses = 0
    inverse = Permutation.inverse

    def counting_inverse(self):
        nonlocal inverses
        inverses += 1
        return inverse(self)

    for G, order, want in ((paley(263)[0], 263 * 131, 1), (load("m12-144/G"), 95040, 7)):
        G = PermGroup(G.generators, degree=G.degree)  # a load has built its chain
        inverses = 0
        monkeypatch.setattr(Permutation, "inverse", counting_inverse)
        assert G.order() == order
        monkeypatch.undo()
        assert inverses == want


def test_block_stabilizer_work_once_the_order_is_known(monkeypatch):
    """Counts products instead of timing: the Paley-263 block stabilizer is
    cyclic of order 131 and stops after its first kept generator."""
    G, block = paley(263)
    design = construct_design(G, block)
    assert G.order() == 263 * 131
    products = 0
    mul = Permutation.__mul__

    def counting_mul(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(Permutation, "__mul__", counting_mul)
    stab = block_stabilizer(G, design, 0)
    monkeypatch.undo()
    assert stab.order() == 131
    assert products <= 300


def test_block_stabilizer_hashes_no_permutation(monkeypatch):
    """The D1 block stabilizer reads the block action as one row per
    generator, so no generator is hashed to find its row."""
    G = load("m12-144/G")
    design = construct_design(G, load("m12-144/base-block"))
    hashes = 0
    permutation_hash = Permutation.__hash__

    def counting_hash(self):
        nonlocal hashes
        hashes += 1
        return permutation_hash(self)

    monkeypatch.setattr(Permutation, "__hash__", counting_hash)
    stab = block_stabilizer(G, design, 0)
    monkeypatch.undo()
    assert stab.order() == 660
    assert hashes == 0


def _products_and_inverses(monkeypatch, work):
    """(products, inverses) that ``work()`` forms."""
    counts = [0, 0]
    mul, inverse = Permutation.__mul__, Permutation.inverse

    def counting_mul(self, other):
        counts[0] += 1
        return mul(self, other)

    def counting_inverse(self):
        counts[1] += 1
        return inverse(self)

    monkeypatch.setattr(Permutation, "__mul__", counting_mul)
    monkeypatch.setattr(Permutation, "inverse", counting_inverse)
    try:
        work()
    finally:
        monkeypatch.undo()
    return tuple(counts)


def test_flag_walk_forms_a_generator_only_for_the_pairs_it_adds(monkeypatch):
    """The D1 flag check walks Schreier pairs and forms a * b^-1 only for
    a non-identity pair, so it inverts no transversal element."""
    G = load("m12-144/G")
    design = construct_design(G, load("m12-144/base-block"))
    assert G.order() == 95040
    products, inverses = _products_and_inverses(
        monkeypatch, lambda: is_flag_transitive(design, G))
    assert products <= 30 and inverses <= 3


def test_block_stabilizer_inverts_only_what_it_keeps(monkeypatch):
    """The M12 and Paley-263 block stabilizers strip each Schreier pair for
    membership and form the generator only when they keep it; the first one
    kept is its pair's residue through the empty chain, not formed again."""
    cases = [(load("m12-144/G"), load("m12-144/base-block"), 95040, 660, 7),
             (*paley(263), 263 * 131, 131, 1)]
    for G, block, group_order, order, most in cases:
        assert G.order() == group_order  # builds G's chain before the count
        design = construct_design(G, block)
        orders = []
        _, inverses = _products_and_inverses(
            monkeypatch, lambda: orders.append(block_stabilizer(G, design, 0).order()))
        assert orders == [order] and inverses <= most

import copy
import pickle
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdesign.catalog import load
from symdesign.design import (
    Design,
    DesignParams,
    ImprimitivityProfile,
    NotSymmetric,
    ProfileViolation,
    _block_action_images,
    block_stabilizer,
    certify,
    complement,
    construct_design,
    design_file_text,
    imprimitivity_profile,
    is_anti_flag_transitive,
    is_flag_transitive,
    parse_design_file,
    verify_symmetric,
)
from symdesign.group import BlockSystem, PermGroup, StabChain
from symdesign.perm import Permutation, _set_points, parse_cycles

from helpers import (
    FIXTURES,
    cyclic,
    element_closure,
    grp,
    paley,
    random_groups,
    random_wreath_subgroup,
    reference_block_action,
    reference_construct_design,
    reference_imprimitivity_profile,
    reference_is_flag_transitive,
    reference_tuple_walk,
    reference_verify_symmetric,
    sym,
)


@pytest.fixture(scope="module")
def fano():
    return construct_design(cyclic(7), [1, 2, 4])


@pytest.fixture(scope="module")
def f21():
    return FIXTURES["F21"][0]


def test_fano_verifies(fano):
    params = verify_symmetric(fano)
    assert (params.v, params.k, params.lam) == (7, 3, 1)
    assert params.nontrivial


def test_block_count_refutation():
    with pytest.raises(NotSymmetric) as exc:
        verify_symmetric(Design(7, [(1, 2, 4)]))
    assert exc.value.axiom == "block-count"


def test_block_size_refutation(fano):
    blocks = list(fano.blocks)
    blocks[3] = (1, 2, 3, 4)
    with pytest.raises(NotSymmetric) as exc:
        verify_symmetric(Design(7, blocks))
    assert exc.value.axiom in ("block-size", "point-degree")


def test_duplicate_block_refutation(fano):
    blocks = list(fano.blocks)
    blocks[3] = blocks[0]
    with pytest.raises(NotSymmetric) as exc:
        verify_symmetric(Design(7, blocks))
    assert exc.value.axiom in ("duplicate-block", "point-degree")


def test_pair_condition_refutation(fano):
    # swap two points in one block: degrees shift and pair counts break
    blocks = list(fano.blocks)
    blocks[0] = (1, 2, 5)
    with pytest.raises(NotSymmetric):
        verify_symmetric(Design(7, blocks))


def _paley(q=11):
    """2-(q,(q-1)/2,(q-3)/4) from the squares mod a prime q = 3 (mod 4),
    under x -> x+1 (point x is x+1)."""
    return construct_design(cyclic(q), [x * x % q + 1 for x in range(1, q)])


def _m12():
    return construct_design(load("m12-144/G"), load("m12-144/base-block"))


def _perturbations(design, rng, count):
    """Designs that differ from ``design`` at one point of one block (a point
    swapped for one outside the block, dropped, or added), or by a trade that
    keeps every block size and point degree: a in B_i and b in B_j change
    places."""
    v, blocks = design.v, design.blocks
    out = []
    for _ in range(count):
        changed = [list(b) for b in blocks]
        i, j = rng.sample(range(len(blocks)), 2)
        kind = rng.choice(["swap", "drop", "add", "trade", "trade"])
        bi, bj = changed[i], changed[j]
        if kind == "trade" and set(bi) != set(bj):
            a = rng.choice([pt for pt in bi if pt not in bj])
            b = rng.choice([pt for pt in bj if pt not in bi])
            bi[bi.index(a)], bj[bj.index(b)] = b, a
        else:
            if kind != "drop":
                bi.append(rng.choice([pt for pt in range(1, v + 1) if pt not in bi]))
            if kind != "add":
                bi.remove(rng.choice(bi[:-1] if kind == "swap" else bi))
        out.append(Design(v, changed))
    return out


def _outcome(check, design):
    try:
        return "params", check(design)
    except NotSymmetric as exc:
        return exc.axiom, exc.witness, str(exc)


@pytest.mark.parametrize("make, count", [
    (lambda: construct_design(cyclic(7), [1, 2, 4]), 60),
    (_paley, 60),
    (_m12, 6),
], ids=["fano", "paley-11", "m12"])
def test_verify_symmetric_matches_the_reference_on_perturbed_designs(make, count):
    design = make()
    rng = random.Random(count)
    extra = [Design(design.v, design.blocks[:-1] + design.blocks[:1]),  # a duplicate
             Design(design.v, design.blocks[:-1])]  # a block short
    axioms = set()
    for d in [design, *_perturbations(design, rng, count), *extra]:
        got = _outcome(verify_symmetric, d)
        assert got == _outcome(reference_verify_symmetric, Design(d.v, d.blocks))
        axioms.add(got[0])
    assert axioms >= {"params", "block-pair", "point-degree", "block-size", "duplicate-block"}


def _meet_path_cases(rng):
    """(group, k, base block of size k, or None to draw one at random)."""
    G, squares = paley(263)
    yield G, 131, squares
    yield load("m12-144/G"), 66, load("m12-144/base-block")
    yield FIXTURES["F21"][0], 3, None
    for _ in range(4):
        W = random_wreath_subgroup(rng)
        yield W, rng.randint(2, W.degree - 2), None
    for n in (7, 13, rng.randint(5, 30)):
        yield cyclic(n), rng.randint(2, n - 2), None


@pytest.mark.parametrize("seed", range(3))
def test_both_meet_paths_give_the_same_verdict_on_orbit_built_designs(seed):
    """An orbit-built design records its block action, so verify_symmetric
    meets block 0 with the rest; a copy without the action meets all pairs.
    Over random base blocks of sizes 1, 2, k and v-1, most of them not
    designs, both give the same params, or the same axiom, witness and
    message.  A random k-set under Paley-263 or M12-144 has a regular orbit
    (34,453 or 95,040 blocks) that fails at block-count before any meet, so
    there the size-k block is the design's own base block."""
    rng = random.Random(seed)
    outcomes = set()
    for G, k, block in _meet_path_cases(rng):
        v = G.degree
        for size in (1, 2, k, v - 1):
            base = block if size == k and block else rng.sample(range(1, v + 1), size)
            design = construct_design(G, base)
            assert design._action is not None
            got = _outcome(verify_symmetric, design)
            assert got == _outcome(verify_symmetric, Design(v, design.blocks))
            outcomes.add(got[0])
    assert outcomes >= {"params", "block-count", "block-pair"}


@st.composite
def _regular_structures(draw):
    """A square 0/1 incidence structure with every block size and point
    degree k: circulant blocks {i, ..., i+k-1} mod v, or Fano or Paley-11,
    with the points relabelled and then 2x2 trades applied (a in B_i and b
    in B_j change places).  Only such inputs reach the block-pair check."""
    base = draw(st.sampled_from(["circulant", "fano", "paley-11"]))
    if base == "circulant":
        v = draw(st.integers(2, 15))
        k = draw(st.integers(1, v - 1))
        blocks = [[(i + t) % v + 1 for t in range(k)] for i in range(v)]
    else:
        design = construct_design(cyclic(7), [1, 2, 4]) if base == "fano" else _paley()
        v, blocks = design.v, [list(b) for b in design.blocks]
    relabel = draw(st.permutations(range(1, v + 1)))
    blocks = [[relabel[pt - 1] for pt in b] for b in blocks]
    for i, j, x, y in draw(st.lists(st.tuples(*[st.integers(0, 255)] * 4), max_size=6)):
        bi, bj = blocks[i % v], blocks[j % v]
        only_i = [pt for pt in bi if pt not in bj]
        only_j = [pt for pt in bj if pt not in bi]
        if only_i:
            a, b = only_i[x % len(only_i)], only_j[y % len(only_j)]
            bi[bi.index(a)], bj[bj.index(b)] = b, a
    return Design(v, blocks)


@given(_regular_structures())
@settings(max_examples=300, deadline=None)
def test_block_pairs_decide_regular_square_structures(design):
    """The point-pair count is implied once the block pairs agree (Ryser):
    the full double count never refutes at a point pair."""
    expected = _outcome(reference_verify_symmetric, design)
    assert expected[0] != "point-pair"
    assert _outcome(verify_symmetric, design) == expected


@pytest.mark.parametrize("make, params", [
    (lambda: construct_design(cyclic(7), [1, 2, 4]), (7, 4, 2)),
    (_paley, (11, 6, 3)),
    (_m12, (144, 78, 42)),
    (lambda: construct_design(cyclic(5), [2]), (5, 4, 3)),
], ids=["fano", "paley-11", "m12", "trivial"])
def test_complement(make, params):
    design = make()
    comp = complement(design)
    assert comp.params == DesignParams(*params)
    assert comp.params == reference_verify_symmetric(comp)
    assert complement(comp) == design


def test_complement_of_a_single_point_has_an_empty_block():
    with pytest.raises(ValueError, match="^empty block$"):
        complement(Design(1, [(1,)]))


def test_construct_design_from_difference_set(fano):
    assert fano.num_blocks == 7
    assert fano.blocks[0] == (1, 2, 4)


def test_construct_design_singleton_is_trivial():
    D = construct_design(cyclic(5), [2])
    assert D.num_blocks == 5
    params = verify_symmetric(D)
    assert not params.nontrivial


def test_construct_design_orbit_shorter_than_v():
    # base block invariant under the 3-cycle: orbit of length 1
    D = construct_design(grp(3, "(1,2,3)"), [1, 2, 3])
    assert D.num_blocks == 1


def test_block_stabilizer_sizes(fano, f21):
    C7 = cyclic(7)
    triv = block_stabilizer(C7, fano, 0)
    assert triv.order() == 1
    stab = block_stabilizer(f21, fano, 0)
    assert stab.order() == 3
    assert f21.order() == fano.num_blocks * stab.order()


def test_block_stabilizer_of_globally_fixed_block():
    triv_group = PermGroup.trivial(7)
    D = construct_design(triv_group, [1, 2, 4])
    stab = block_stabilizer(triv_group, D, 0)
    assert stab.order() == triv_group.order() == 1


@pytest.mark.parametrize("degree", [3, 300])
def test_group_degree_must_match_the_point_count(fano, degree):
    for check in (lambda G: block_stabilizer(G, fano, 0), lambda G: is_flag_transitive(fano, G)):
        with pytest.raises(ValueError, match="group degree does not match the point count"):
            check(cyclic(degree))


def test_fano_flag_transitive_under_frobenius(fano, f21):
    assert is_flag_transitive(fano, f21)


def test_fano_not_flag_transitive_under_c7(fano):
    assert not is_flag_transitive(fano, cyclic(7))


def test_flag_transitivity_requires_block_preservation(fano):
    S7 = grp(7, "(1,2)", "(1,2,3,4,5,6,7)")
    with pytest.raises(ValueError, match="maps block"):
        is_flag_transitive(fano, S7)


def test_flag_transitivity_refuses_trivial_designs():
    D = construct_design(cyclic(5), [2])
    C5 = cyclic(5)
    with pytest.raises(ValueError, match="trivial"):
        is_flag_transitive(D, C5)
    assert is_flag_transitive(D, C5, force=True)


def test_fano_not_anti_flag_transitive(fano, f21):
    assert not is_anti_flag_transitive(fano, f21)


def test_flag_transitivity_rejects_an_intransitive_non_automorphism(fano):
    # <(1,2)> fixes points 3..7, so the non-automorphism must be caught
    # before the transitivity test could answer no
    group = grp(7, "(1,2)")
    for check in (is_flag_transitive, reference_is_flag_transitive):
        with pytest.raises(ValueError, match="maps block"):
            check(fano, group)


def test_flag_transitivity_answers_no_from_a_known_order(monkeypatch):
    """The Paley-263 complement has 263*132 flags, which do not divide
    |G| = 263*131, so no block stabilizer is cut out."""
    G, block = paley(263)
    comp = complement(construct_design(G, block))
    assert G.order() == 263 * 131

    def refuse(*_args):
        raise AssertionError("stabilizer_of_action was called")

    monkeypatch.setattr(PermGroup, "stabilizer_of_action", refuse)
    assert is_flag_transitive(comp, G) is False
    swap = PermGroup([parse_cycles("(1,2)", 263)])
    assert swap.order() == 2
    with pytest.raises(ValueError, match="outside the block set"):
        is_flag_transitive(comp, swap)


def _relabelled(G, block, seed):
    """G and its block under a seeded relabelling x -> pi(x); seed 0 keeps them."""
    if not seed:
        return G, block
    points = list(range(1, G.degree + 1))
    random.Random(seed).shuffle(points)
    pi = Permutation(points)
    return (PermGroup([pi.inverse() * g * pi for g in G.generators], degree=G.degree),
            [pi(x) for x in block])


def _m12_relabelled():
    """M12 on 144 points and its base block, both relabelled by x -> pi(x)."""
    return _relabelled(load("m12-144/G"), load("m12-144/base-block"), 13)


CARRIED = {
    "fano-c7": lambda: (cyclic(7), [1, 2, 4]),
    "paley-11": lambda: paley(11),
    "paley-263": lambda: paley(263),
    "m12": lambda: (load("m12-144/G"), load("m12-144/base-block")),
    "m12-relabelled": _m12_relabelled,
    "trivial": lambda: (cyclic(5), [2]),
}


@pytest.mark.parametrize("name", sorted(CARRIED))
def test_the_recorded_block_action_is_the_computed_one(name):
    G, block = CARRIED[name]()
    design = construct_design(G, block)
    assert design.num_blocks == design.v
    for D in (design, complement(design)):
        carried = _block_action_images(G, D)
        assert D._action is not None and carried is D._action[1]
        plain = Design(D.v, D.blocks)
        assert plain._action is None
        assert carried == _block_action_images(G, plain)
        twin = PermGroup([Permutation(g.images) for g in G.generators], degree=G.degree)
        assert _block_action_images(twin, D) is carried
        swapped = PermGroup(G.generators[::-1], degree=G.degree)
        rows = _block_action_images(swapped, D)
        assert rows == carried[::-1]
        assert (rows is carried) == (swapped.generators == G.generators)
        verdict = is_flag_transitive(D, G, force=True)
        assert is_flag_transitive(D, swapped, force=True) == verdict
        assert is_flag_transitive(plain, G, force=True) == verdict
        for index in (0, D.num_blocks - 1):
            assert (block_stabilizer(G, D, index).order()
                    == block_stabilizer(G, plain, index).order())


def _matches_the_frozenset_walk(G, block):
    """``construct_design`` gives the reference's blocks, and its recorded
    action and the recomputed one are the reference's block action."""
    design = construct_design(G, block)
    assert list(design.blocks) == reference_construct_design(G, block)
    rows = reference_block_action(design, G)
    assert design._action[1] == rows
    assert _block_action_images(G, Design(design.v, design.blocks)) == rows


@pytest.mark.parametrize("name", ["fano-c7", "paley-11", "paley-263", "m12", "m12-relabelled"])
def test_construct_design_matches_a_frozenset_walk(name):
    _matches_the_frozenset_walk(*CARRIED[name]())


@pytest.mark.parametrize("n", [255, 256])  # one each side of the byte-mask cut-off
@given(st.data())
@settings(max_examples=15, deadline=None)
def test_construct_design_matches_a_frozenset_walk_at_the_cut_off(n, data):
    members = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    _matches_the_frozenset_walk(cyclic(n), [x for x in range(1, n + 1) if members[x - 1]] or [n])


@given(random_groups(), st.data())
@settings(max_examples=100, deadline=None)
def test_construct_design_matches_a_frozenset_walk_on_random_groups(G, data):
    _matches_the_frozenset_walk(G, data.draw(st.sets(st.integers(1, G.degree), min_size=1)))


@pytest.mark.parametrize("name", ["fano-c7", "paley-263", "m12-relabelled"])
def test_a_generator_outside_the_recorded_action_is_refused_on_both_paths(name):
    G, block = CARRIED[name]()
    design = construct_design(G, block)
    wider = PermGroup([*G.generators, parse_cycles("(1,2)", G.degree)])
    for D in (design, complement(design)):
        messages = []
        for E in (D, Design(D.v, D.blocks)):
            with pytest.raises(ValueError, match="maps block") as exc:
                is_flag_transitive(E, wider, force=True)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


def test_complement_streams_its_blocks():
    """Each complement block is formed from one set at a time when the
    blocks are read, not from v sets built first (about 5 MB on Paley-263)."""
    G, block = paley(263)
    design = construct_design(G, block)
    verify_symmetric(design)
    tracemalloc.start()
    try:
        assert len(complement(design).blocks) == 263
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("name", ["m12", "paley-263"])
def test_a_complement_forms_its_blocks_when_they_are_read(name):
    """v(v-k) does not divide |G| for M12-144 or Paley-263, so the anti-flag
    check answers no without a complement block; an unread complement still
    compares, hashes, copies and pickles as the design of its blocks."""
    G, block = CARRIED[name]()
    design = construct_design(G, block)
    verify_symmetric(design)
    comp = complement(design)
    assert is_flag_transitive(comp, G) is False
    assert "blocks" not in vars(comp)
    points = set(range(1, design.v + 1))
    plain = Design(design.v, [points.difference(b) for b in design.blocks])
    assert complement(design).blocks == plain.blocks
    assert complement(design) == plain and hash(complement(design)) == hash(plain)
    for copied in (copy.deepcopy(comp), pickle.loads(pickle.dumps(comp))):
        assert copied.blocks == plain.blocks and copied.params == comp.params
    assert "blocks" not in vars(comp)
    assert complement(complement(design)) == design


def _agrees_on_both_paths(design):
    """``verify_symmetric`` gives one outcome with the design's recorded
    action, on a copy without it and by the reference; so does the
    complement of a design that verifies.  Returns the design's outcome."""
    got = _outcome(verify_symmetric, design)
    for D in (design, *([complement(design)] if got[0] == "params" else [])):
        outcome = _outcome(verify_symmetric, D)
        assert outcome == _outcome(verify_symmetric, Design(D.v, D.blocks))
        assert outcome == _outcome(reference_verify_symmetric, D)
    return got


@given(random_groups() | st.integers(3, 13).map(cyclic), st.data())
@settings(max_examples=200, deadline=None)
def test_verify_symmetric_of_an_orbit_matches_the_reference(G, data):
    block = data.draw(st.sets(st.integers(1, G.degree), min_size=1))
    _agrees_on_both_paths(construct_design(G, block))


@pytest.mark.parametrize("name", [*sorted(CARRIED), "c7-123"])
def test_verify_symmetric_reads_row_0_of_an_orbit(name):
    G, block = CARRIED[name]() if name in CARRIED else (cyclic(7), [1, 2, 3])
    design = construct_design(G, block)
    assert design._action is not None
    got = _agrees_on_both_paths(design)
    if name == "c7-123":  # {1,2,3} meets {1,2,7} in 2 and {1,6,7} in 1
        assert got == ("block-pair", (0, 2), "blocks 0,2 meet in 1, expected 2")
    else:
        assert got[0] == "params"


def test_a_design_without_a_recorded_action_has_every_pair_met():
    """A trade between Fano blocks 3 and 5 of points outside block 0 keeps
    block 0's meets, block sizes and point degrees, and breaks pair (3, 4)."""
    blocks = list(construct_design(cyclic(7), [1, 2, 4]).blocks)
    assert blocks[0] == (1, 2, 4) and blocks[3:6] == [(2, 3, 5), (2, 6, 7), (3, 4, 6)]
    blocks[3], blocks[5] = (2, 3, 6), (3, 4, 5)
    expected = ("block-pair", (3, 4), "blocks 3,4 meet in 2, expected 1")
    assert _agrees_on_both_paths(Design(7, blocks)) == expected


def test_point_degrees_by_orbit_name_the_least_point_off_degree():
    """<(1,2,3)(4,5)> carries {1,4} to 6 blocks of size 2: points 1-3 lie on
    2 of them, 4 and 5 on 3, and 6 on none."""
    design = construct_design(PermGroup([parse_cycles("(1,2,3)(4,5)", 6)]), [1, 4])
    assert design.num_blocks == 6 and design._action is not None
    bare = copy.copy(design)
    bare._action = None
    expected = ("point-degree", 4, "point 4 lies on 3 blocks, expected 2")
    for check, D in [(verify_symmetric, design), (verify_symmetric, bare),
                     (reference_verify_symmetric, design)]:
        assert _outcome(check, D) == expected


@pytest.mark.parametrize("p, q, block", [
    (2, 3, [1, 3]), (2, 5, [1, 3, 10]), (3, 4, [1, 2, 4]), (3, 5, [1, 4, 5, 15]),
    (4, 5, [1, 2, 5]),
])
def test_point_degrees_by_orbit_on_two_cycles(p, q, block):
    """A p-cycle times a q-cycle, p and q coprime, on pq points carries a
    block with points in both cycles to pq blocks, past the block-count
    gate; the pq - p - q fixed points make a third point orbit."""
    cycles = "(" + ",".join(map(str, range(1, p + 1))) + ")(" \
        + ",".join(map(str, range(p + 1, p + q + 1))) + ")"
    G = PermGroup([parse_cycles(cycles, p * q)])
    design = construct_design(G, block)
    assert design.num_blocks == p * q and len(G.orbits()) > 2
    assert _agrees_on_both_paths(design)[0] == "point-degree"


def _profile_outcome(check, design, system):
    try:
        return check(design, system)
    except ProfileViolation as exc:
        return exc.block_index, exc.class_index, exc.size, str(exc)


def _m12_system(index):
    return load("m12-144/G").minimal_block_systems()[index]


def _m12_system_moved_off_g():
    """A minimal block system of M12 with two points of block 0 in different
    classes swapped: block 0 meets it as before, other blocks do not, and
    the generators no longer permute its classes."""
    system = _m12_system(0)
    x = load("m12-144/base-block")[0]
    y = next(p for p in load("m12-144/base-block") if system.class_of[p] != system.class_of[x])
    swap = {x: y, y: x}
    return BlockSystem(144, [[swap.get(p, p) for p in c] for c in system.classes])


@pytest.mark.parametrize("make, invariant, expected", [
    (lambda: (_m12(), _m12_system(0)), True, ImprimitivityProfile(12, 12, 6, 11)),
    (lambda: (_m12(), _m12_system(1)), True, ImprimitivityProfile(12, 12, 6, 11)),
    (lambda: (complement(_m12()), _m12_system(0)), True,
     (0, 10, 12, "block 0 meets class 10 in 12 points, expected 0 or 6")),
    (lambda: (construct_design(cyclic(15), [1, 2, 3, 5, 6, 9, 11]),
              BlockSystem(15, [[i, i + 5, i + 10] for i in range(1, 6)])), True,
     (0, 1, 1, "block 0 meets class 1 in 1 points, expected 0 or 3")),
    (lambda: (_m12(), _m12_system_moved_off_g()), False, None),
], ids=["d1-0", "d1-1", "d1-complement", "cyclic-15-mod-5", "d1-moved"])
def test_imprimitivity_profile_matches_the_reference(make, invariant, expected):
    design, system = make()
    assert (system.invariance_witness(design._action[0]) is None) == invariant
    plain = Design(design.v, design.blocks)
    got = _profile_outcome(imprimitivity_profile, design, system)
    assert got == _profile_outcome(imprimitivity_profile, plain, system)
    assert got == _profile_outcome(reference_imprimitivity_profile, plain, system)
    if expected is not None:
        assert got == expected
    else:  # block 0 alone would give the profile of an invariant system
        assert isinstance(got, tuple) and got[0] > 0


def _subgroups(rng, draw, degree, sizes, per_size):
    """Subgroups generated by ``n`` random elements for each n in ``sizes``."""
    return [PermGroup([draw() for _ in range(n)], degree=degree)
            for n in sizes for _ in range(per_size)]


def _fano_cases(rng):
    f21 = FIXTURES["F21"][0]
    members = sorted(element_closure(f21), key=lambda p: p.images)
    yield construct_design(cyclic(7), [1, 2, 4]), [
        f21, *_subgroups(rng, lambda: rng.choice(members), 7, (1, 2, 3), 5)]


def _paley_cases(rng):
    for q in (11, 19, 23, 43):
        squares = sorted({x * x % q for x in range(1, q)})

        def affine():  # x -> ax+b with a a nonzero square, on points x+1
            a, b = rng.choice(squares), rng.randrange(q)
            return Permutation([(a * x + b) % q + 1 for x in range(q)])

        yield _paley(q), _subgroups(rng, affine, q, (1, 2, 3), 3)


def _trivial_cases(rng):
    for v in range(2, 7):
        points = range(1, v + 1)
        groups = [sym(v), cyclic(v), PermGroup.trivial(v)]
        yield Design(v, [(p,) for p in points]), groups
        yield Design(v, [tuple(x for x in points if x != p) for p in points]), groups


def _m12_cases(rng):
    G = load("m12-144/G")

    def word():  # a random element of M12 as a product of generators
        g = G.identity()
        for _ in range(40):
            g = g * rng.choice(G.generators)
        return g

    others = [load(f"m12-144/{x}") for x in ("H", "K", "maximal-l211")]
    yield _m12(), [G, *others, *_subgroups(rng, word, 144, (1, 2), 2)]


@pytest.mark.parametrize("cases, seed", [
    (_fano_cases, 1), (_paley_cases, 2), (_trivial_cases, 3), (_m12_cases, 4),
], ids=["fano", "paley", "trivial", "m12"])
def test_flag_transitivity_matches_the_flag_bfs(cases, seed):
    assert _flag_verdicts(cases(random.Random(seed))) == {True, False}


def _flag_verdicts(cases, on_design=lambda D: None):
    """Every verdict on each design and its complement, each checked
    against the flag BFS; ``on_design(D)`` runs before D's groups."""
    verdicts = set()
    for design, groups in cases:
        for D in (design, complement(design)):
            on_design(D)
            for G in groups:
                got = is_flag_transitive(D, G, force=True)
                assert got == reference_is_flag_transitive(D, G, force=True)
                verdicts.add(got)
    return verdicts


@pytest.mark.parametrize("cases, seed", [
    (_fano_cases, 1), (_paley_cases, 2), (_trivial_cases, 3), (_m12_cases, 4),
], ids=["fano", "paley", "trivial", "m12"])
def test_flag_transitivity_walk_matches_the_flag_bfs(cases, seed, monkeypatch):
    """With |G| reported as |G|*v*k the order never answers, so every
    transitive G is decided by the walk over the Schreier generators."""
    cases = list(cases(random.Random(seed)))  # loading M12 checks the true order
    flags = [1]
    order, reaches = PermGroup.order, PermGroup._stabilizer_orbit_reaches
    walks = []

    def recording(*args):
        walks.append(reaches(*args))
        return walks[-1]

    monkeypatch.setattr(PermGroup, "order", lambda self: order(self) * flags[0])
    monkeypatch.setattr(PermGroup, "_stabilizer_orbit_reaches", recording)

    def count_flags(D):
        flags[0] = D.v * len(D.blocks[0])

    assert _flag_verdicts(cases, count_flags) == {True, False}
    assert False in walks  # a no from running out of Schreier generators


def _fano_under_f21():
    return construct_design(cyclic(7), [1, 2, 4]), FIXTURES["F21"][0]


def _m12_design():
    G = load("m12-144/G")
    return construct_design(G, load("m12-144/base-block")), G


def _paley_263_design():
    G, block = paley(263)
    return construct_design(G, block), G


@pytest.mark.parametrize("build", [_m12_design, _paley_263_design], ids=["d1", "paley-263"])
def test_flag_transitivity_cuts_out_no_stabilizer(build, monkeypatch):
    design, G = build()
    G.chain  # built before the check, as certify has it

    def refuse(*_args):
        raise AssertionError("a stabilizer or a chain was built")

    monkeypatch.setattr(PermGroup, "stabilizer_of_action", refuse)
    monkeypatch.setattr(StabChain, "__init__", refuse)
    assert is_flag_transitive(design, G) is True


@pytest.mark.parametrize("build, params, profiles", [
    (_fano_under_f21, (7, 3, 1), []),  # F21 is primitive: no systems
    (_m12_design, (144, 66, 30), [(12, 12, 6, 11)] * 2),
], ids=["fano-f21", "m12"])
def test_certify(build, params, profiles):
    design, G = build()
    cert = certify(design, G)
    assert cert.params == DesignParams(*params)
    assert cert.flag_transitive
    assert len(cert.systems) == len(profiles)
    assert [(p.c, p.d, p.ell, p.s) for p in cert.profiles] == profiles


def test_imprimitivity_profile_refutes_bad_partition():
    # 2-(15,7,3) from a cyclic difference set; k = 7 is prime, so no
    # partition can be ell-constant with ell, s >= 2
    D = construct_design(cyclic(15), [1, 2, 3, 5, 6, 9, 11])
    params = verify_symmetric(D)
    assert (params.v, params.k, params.lam) == (15, 7, 3)
    system = BlockSystem(15, [[i, i + 5, i + 10] for i in range(1, 6)])
    with pytest.raises(ProfileViolation) as exc:
        imprimitivity_profile(D, system)
    # block 0 = {1,2,3,5,6,9,11} holds class 0 = {1,6,11} and meets class 1 in {2}
    assert (exc.value.block_index, exc.value.class_index, exc.value.size) == (0, 1, 1)
    assert str(exc.value) == "block 0 meets class 1 in 1 points, expected 0 or 3"


def test_a_profile_of_singleton_meets_is_degenerate():
    """The one profile gate past the meet checks that a verified design
    reaches: k = 1, so every meet has ell = 1 point."""
    D = Design(4, [(1,), (2,), (3,), (4,)])
    with pytest.raises(ProfileViolation) as exc:
        imprimitivity_profile(D, BlockSystem(4, [(1, 2), (3, 4)]))
    assert (exc.value.block_index, exc.value.class_index, exc.value.size) == (-1, -1, 1)
    assert str(exc.value) == "degenerate intersection profile"


@pytest.mark.parametrize("call, message", [
    (lambda fano: block_stabilizer(cyclic(7), fano, 7), "block index 7 outside 0..6"),
    (lambda fano: imprimitivity_profile(fano, BlockSystem(4, [(1, 3), (2, 4)])),
     "block system degree does not match the design"),
    (lambda fano: Design(0, []), "v must be positive"),
])
def test_argument_errors(fano, call, message):
    with pytest.raises(ValueError) as exc:
        call(fano)
    assert str(exc.value) == message


def test_design_file_round_trip(fano):
    text = design_file_text(fano)
    again = parse_design_file(text)
    assert again == fano
    assert design_file_text(again) == text


def test_design_constructor_validation():
    with pytest.raises(ValueError, match="repeated"):
        Design(4, [(1, 1, 2)])
    with pytest.raises(ValueError, match="inside"):
        Design(4, [(1, 5)])
    with pytest.raises(ValueError, match="empty"):
        Design(4, [()])


def test_params_identity_on_verified_designs(fano):
    params = verify_symmetric(fano)
    assert params.k * (params.k - 1) == params.lam * (params.v - 1)


# ---- the orbit walk on plane masks, and the incidence rows it leaves --------


@pytest.mark.parametrize("q, r, seed", [
    (263, None, 0), (263, 3, 0), (263, 5, 7), (263, 11, 31),
    (503, None, 0), (503, 10, 11), (503, 2, 29), (1019, None, 3),
])
def test_construct_design_matches_the_sorted_tuple_walk_on_paley(q, r, seed):
    """Paley blocks hold (q - 1) / 2 points, so the walk runs on masks over
    2 or 4 planes: the check reads the walk's incidence rows and forms no
    block, the blocks formed from the rows and the recorded action are the
    sorted-tuple walk's, and the rows meet as the blocks do."""
    G, block = _relabelled(*paley(q, r), seed)
    design = construct_design(G, block)
    params = DesignParams(q, (q - 1) // 2, (q - 3) // 4)
    assert verify_symmetric(design) == params and "blocks" not in vars(design)
    blocks, rows = reference_tuple_walk(G, block)
    assert list(design.blocks) == blocks and design._action[1] == rows
    first = set(blocks[0])
    assert [(design._rows[0] & row).bit_count() for row in design._rows] \
        == [len(first.intersection(b)) for b in blocks]
    assert verify_symmetric(design) == params


def _sparse_cyclic_block():
    return cyclic(1019), random.Random(1019).sample(range(1, 1020), 12)


def test_construct_design_matches_the_sorted_tuple_walk_on_a_sparse_block():
    G, block = _sparse_cyclic_block()
    design = construct_design(G, block)
    blocks, rows = reference_tuple_walk(G, block)
    assert list(design.blocks) == blocks and design._action[1] == rows
    assert design._rows == blocks  # the walk's sorted-tuple keys
    bare = copy.copy(design)
    bare._action = None
    assert _outcome(verify_symmetric, design) == _outcome(verify_symmetric, bare)


def test_a_sparse_walk_past_the_byte_range_is_no_larger():
    """A block of 12 of 1019 points keeps its sorted-tuple keys: the walk's
    peak allocation stays within 10% of the sorted-tuple walk's."""
    G, block = _sparse_cyclic_block()
    peaks = []
    for walk in (construct_design, reference_tuple_walk):
        walk(G, block)  # cached tables are made outside the measurement
        tracemalloc.start()
        try:
            walk(G, block)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.1 * peaks[1]


def _mask_rows(blocks, v):
    """The incidence rows an orbit walk leaves for these blocks: the 0/1 byte
    mask of each over slots 0..v, read as a little-endian int."""
    rows = []
    for b in blocks:
        mask = bytearray(v + 1)
        for pt in b:
            mask[pt] = 1
        rows.append(int.from_bytes(mask, "little"))
    return rows


@pytest.mark.parametrize("case", ["m12", "s40-3-subsets"])
def test_a_mask_row_holds_the_design_points_alone(case):
    """A row has point x at bit 8x and no slot past v, so its size follows v
    rather than a 256-point plane: the 9,880 rows of S_40 on the 3-subsets
    of 1..40 take under 1 MiB."""
    G, block = CARRIED["m12"]() if case == "m12" else (sym(40), [1, 2, 3])
    design = construct_design(G, block)
    v = design.v
    assert all(row.bit_length() <= 8 * v + 1 for row in design._rows)
    if case != "m12":
        assert len(design._rows) == 9880
        assert sum(map(sys.getsizeof, design._rows)) < 1 << 20
    assert design._rows == _mask_rows(design.blocks, v)


@pytest.mark.parametrize("name", ["m12", "m12-relabelled", "paley-263"])
def test_tampered_orbit_built_designs_keep_their_witnesses(name):
    """An orbit-built design whose blocks and walk rows are changed together:
    a duplicate block, a short block and a changed meet with block 0 give
    the same axiom, witness and message as the meets gathered from block
    0's mask with no rows."""
    G, block = CARRIED[name]()
    design = construct_design(G, block)
    assert design._rows == _mask_rows(design.blocks, design.v)
    params = verify_symmetric(design)
    k, lam = params.k, params.lam
    b0, b4 = set(design.blocks[0]), set(design.blocks[4])
    out = min(set(range(1, design.v + 1)) - b0 - b4)
    moved = [*design.blocks]
    moved[4] = sorted(b4 - {min(b0 & b4)} | {out})
    cases = [
        ([*design.blocks[:7], design.blocks[3], *design.blocks[8:]],
         ("duplicate-block", (3, 7), "blocks 3 and 7 coincide")),
        ([*design.blocks[:5], design.blocks[5][1:], *design.blocks[6:]],
         ("block-size", 5, f"block 5 has size {k - 1}, expected {k}")),
        (moved, ("block-pair", (0, 4), f"blocks 0,4 meet in {lam - 1}, expected {lam}")),
    ]
    for blocks, expected in cases:
        tampered = copy.copy(design)
        tampered.blocks, tampered.params = tuple(map(tuple, blocks)), None
        tampered._rows = _mask_rows(blocks, design.v)
        gathered = copy.copy(tampered)
        gathered._rows = None
        assert _outcome(verify_symmetric, tampered) == expected
        assert _outcome(verify_symmetric, gathered) == expected


def test_d1_flag_checks_and_block_systems_walk_no_point_orbit(monkeypatch):
    """Transitivity is read off the chain: certifying D1 and its anti-flag
    check call no ``PermGroup.orbit``."""
    G = load("m12-144/G")
    G = PermGroup(G.generators, degree=G.degree)
    design = construct_design(G, load("m12-144/base-block"))
    calls = []
    orbit = PermGroup.orbit
    monkeypatch.setattr(PermGroup, "orbit", lambda self, p: calls.append(p) or orbit(self, p))
    cert = certify(design, G)
    assert cert.flag_transitive and len(cert.systems) == 2
    assert not is_anti_flag_transitive(design, G)
    assert calls == []


@given(st.sampled_from([(3, 255), (256, 1023), (1024, 1060)]), st.booleans(), st.data())
@settings(max_examples=40, deadline=None)
def test_the_kept_list_forms_the_eager_sorted_tuple_walk(span, dense, data):
    """Byte masks at degree <= 255, plane masks for dense blocks up to 1023
    and sorted-tuple keys for sparse blocks above 255 and any block above
    1023: the design keeps the walk's rows or keys in block order, and the
    blocks formed from them and the recorded action are the eager
    sorted-tuple walk's."""
    n = data.draw(st.integers(*span))
    rng = data.draw(st.randoms(use_true_random=False))
    size = rng.randint((n + 1) // 2, n) if dense else rng.randint(1, min(n, 8))
    points = list(range(1, n + 1))
    rng.shuffle(points)
    pi = Permutation(points)
    c = cyclic(n).generators[0]
    G = PermGroup([pi.inverse() * c ** rng.randrange(1, n + 1) * pi for _ in range(2)], degree=n)
    block = rng.sample(range(1, n + 1), size)
    design = construct_design(G, block)
    assert "blocks" not in vars(design)
    blocks, rows = reference_tuple_walk(G, block)
    masks = n <= 255 or (2 * size + 1 >= n and n <= 1023)
    assert design._rows == (_mask_rows(blocks, n) if masks else blocks)
    assert list(design.blocks) == blocks and design._action[1] == rows


@pytest.mark.parametrize("name", ["m12", "paley-263"])
def test_certifying_an_orbit_built_design_forms_block_0_alone(name, monkeypatch):
    """``certify`` and the anti-flag check form one point tuple, block 0's,
    from the design's rows, and no ``blocks`` of the design or of its
    complement, whose block count is its source's."""
    G, block = CARRIED[name]()
    G = PermGroup(G.generators, degree=G.degree)
    design = construct_design(G, block)
    calls = []
    monkeypatch.setattr("symdesign.design._set_points",
                        lambda key, n: calls.append(key) or _set_points(key, n))
    assert certify(design, G).flag_transitive
    assert not is_anti_flag_transitive(design, G)
    comp = complement(design)
    assert calls == [design._rows[0]] and comp.num_blocks == design.v
    assert "blocks" not in vars(design) and "blocks" not in vars(comp)

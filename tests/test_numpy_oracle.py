"""Differential check of ``verify_symmetric`` against numpy.

A list of b blocks on v points is a symmetric 2-(v,k,lam) design exactly
when its b x v incidence matrix N is square with N N^T = N^T N =
(k-lam) I + lam J and lam < k (distinct blocks).  The designs are built
here from their generators or difference sets, not by ``design.py``, and
one mutation per ``NotSymmetric`` axiom must be refused by both sides.
Skipped when numpy is not installed.
"""

import pytest

np = pytest.importorskip("numpy")

from symdesign.catalog import load  # noqa: E402
from symdesign.design import Design, NotSymmetric, verify_symmetric  # noqa: E402


def numpy_params(v, blocks):
    """(v, k, lam) when N N^T = N^T N = (k-lam) I + lam J with lam < k,
    else None."""
    if len(blocks) != v:
        return None
    N = np.zeros((v, v), dtype=np.int64)
    for i, b in enumerate(blocks):
        N[i, np.asarray(b) - 1] = 1
    k = int(N[0].sum())
    lam = int(N[0] @ N[1])
    want = (k - lam) * np.eye(v, dtype=np.int64) + lam
    if lam < k and np.array_equal(N @ N.T, want) and np.array_equal(N.T @ N, want):
        return v, k, lam
    return None


def _orbit(tables, base):
    """Sorted blocks of the orbit of ``base`` under the generator tables."""
    first = tuple(sorted(base))
    seen = {first}
    queue = [first]
    for b in queue:
        for t in tables:
            image = tuple(sorted(t[x] for x in b))
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return sorted(seen)


def _paley_blocks(q):
    squares = {x * x % q for x in range(1, q)}
    return [tuple(sorted((s + b) % q + 1 for s in squares)) for b in range(q)]


def _d1_blocks():
    G = load("m12-144/G")
    return _orbit([g.table for g in G.generators], load("m12-144/base-block"))


DESIGNS = {
    "fano": (lambda: (7, [(1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (1, 5, 6),
                          (2, 6, 7), (1, 3, 7)]), (7, 3, 1)),
    "d1": (lambda: (144, _d1_blocks()), (144, 66, 30)),
    "paley-263": (lambda: (263, _paley_blocks(263)), (263, 131, 65)),
}


def _swap(blocks, i, j):
    """Blocks i and j trade one point each: sizes and degrees stay."""
    bi, bj = set(blocks[i]), set(blocks[j])
    p = min(bi - bj)
    q = min(bj - bi)
    out = list(blocks)
    out[i] = tuple(sorted(bi - {p} | {q}))
    out[j] = tuple(sorted(bj - {q} | {p}))
    return out


def _move(v, blocks, i):
    """Block i trades a point for one it misses: sizes stay, degrees do not."""
    b = set(blocks[i])
    p = min(b)
    q = min(set(range(1, v + 1)) - b)
    out = list(blocks)
    out[i] = tuple(sorted(b - {p} | {q}))
    return out


MUTATIONS = {
    "block-count": lambda v, blocks: blocks[:-1],
    "duplicate-block": lambda v, blocks: [blocks[0]] + blocks[:-1],
    "block-size": lambda v, blocks: [blocks[0][1:]] + blocks[1:],
    "point-degree": lambda v, blocks: _move(v, blocks, 0),
    "block-pair": lambda v, blocks: _swap(blocks, 0, 1),
}


@pytest.fixture(scope="module", params=sorted(DESIGNS))
def design_case(request):
    make, params = DESIGNS[request.param]
    v, blocks = make()
    return v, list(blocks), params


def test_numpy_and_verify_symmetric_accept_the_design(design_case):
    v, blocks, params = design_case
    assert numpy_params(v, blocks) == params
    assert tuple(verify_symmetric(Design(v, blocks))) == params


@pytest.mark.parametrize("axiom", sorted(MUTATIONS))
def test_numpy_and_verify_symmetric_refuse_a_mutation(design_case, axiom):
    v, blocks, _params = design_case
    mutated = MUTATIONS[axiom](v, blocks)
    assert numpy_params(v, mutated) is None
    with pytest.raises(NotSymmetric) as info:
        verify_symmetric(Design(v, mutated))
    assert info.value.axiom == axiom

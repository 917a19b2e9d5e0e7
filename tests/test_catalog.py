import pytest

from symdesign import catalog
from symdesign.catalog import CatalogError, dataset_ids, load, provenance
from symdesign.design import verify_symmetric


def test_every_dataset_loads():
    for dataset_id in dataset_ids():
        assert load(dataset_id) is not None


def test_unknown_id_rejected():
    with pytest.raises(CatalogError, match="unknown"):
        load("no-such-thing")
    with pytest.raises(CatalogError):
        provenance("no-such-thing")


def test_provenance_strings_exist():
    for dataset_id in dataset_ids():
        assert provenance(dataset_id)


def test_checksum_mismatch_detected(monkeypatch):
    monkeypatch.setitem(catalog._CHECKSUMS, "m12_144_G.grp", "0" * 64)
    with pytest.raises(CatalogError, match="checksum"):
        load("m12-144/G")


def test_checksums_are_pinned():
    assert all(len(v) == 64 for v in catalog._CHECKSUMS.values())


def test_every_pinned_file_is_loaded(monkeypatch):
    read = []
    original = catalog._read

    def recording_read(fname):
        read.append(fname)
        return original(fname)

    monkeypatch.setattr(catalog, "_read", recording_read)
    for dataset_id in dataset_ids():
        load(dataset_id)
    assert set(read) == set(catalog._CHECKSUMS)


@pytest.fixture(scope="module")
def G():
    return load("m12-144/G")


@pytest.fixture(scope="module")
def H():
    return load("m12-144/H")


@pytest.fixture(scope="module")
def K():
    return load("m12-144/K")


def test_group_orders(G, H, K):
    assert G.order() == 95040
    assert H.order() == 660
    assert K.order() == 660
    assert G.order() == 144 * H.order() == 144 * K.order()


def test_point_side_subgroup_is_the_stabilizer_of_one(G, H):
    stab = G.point_stabilizer(1)
    assert stab.order() == 660
    assert all(stab.contains(g) for g in H.generators)
    assert all(H.contains(g) for g in stab.generators)


def test_block_side_subgroup_orbits(K):
    assert sorted(len(o) for o in K.orbits()) == [1, 11, 11, 55, 66]


def test_base_block_is_the_66_point_orbit(K):
    block = load("m12-144/base-block")
    orbit66 = [o for o in K.orbits() if len(o) == 66]
    assert orbit66 == [block]


def test_maximal_l211_signature(G):
    N = load("m12-144/maximal-l211")
    assert N.order() == 660
    assert sorted(len(o) for o in N.orbits()) == [12, 132]
    assert all(G.contains(g) for g in N.generators)


def test_class_stabilizers_are_index_twelve(G):
    systems = G.minimal_block_systems()
    assert len(systems) == 2
    for system in systems:
        stab = G.class_stabilizer(system, system.class_of[1])
        assert stab.order() == 7920  # |G| / 12


def test_nested_class_stabilizers_intersect_to_the_point_stabilizer(G, H):
    sys1, sys2 = G.minimal_block_systems()
    M1 = G.class_stabilizer(sys1, sys1.class_of[1])
    M2 = M1.class_stabilizer(sys2, sys2.class_of[1])
    assert M2.order() == 660
    assert all(H.contains(g) for g in M2.generators)
    assert all(M2.contains(g) for g in H.generators)


def test_block_side_subgroup_sits_inside_both_maximal_classes(G, K):
    # K fixes one point; it must stabilize that point's class in both
    # invariant partitions, landing in one conjugate of each M11 class
    fixed = [o[0] for o in K.orbits() if len(o) == 1][0]
    for system in G.minimal_block_systems():
        stab = G.class_stabilizer(system, system.class_of[fixed])
        assert stab.order() == 7920
        assert all(stab.contains(g) for g in K.generators)


def test_fano_fixture(G):
    fano = load("fixtures/fano")
    params = verify_symmetric(fano)
    assert (params.v, params.k, params.lam) == (7, 3, 1)


def test_catalog_payloads_parse_for_pipeline():
    data = load("m12-144/catalog")
    assert data["group"]["name"] == "M12"
    assert len(data["maximals"]) == 3
    stub = load("fi22/catalog-stub")
    assert stub["group"]["name"] == "Fi22"
    assert len(stub["maximals"]) == 2

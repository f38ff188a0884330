"""Surrogate property scoring and target profiles."""

import math

import pytest

from blockmol.chem import DescriptorSet, descriptors, fingerprint, validate_smiles
from blockmol.oracle import (
    OracleProfile,
    SurrogateOracle,
    list_profiles,
    load_profile,
    surrogate_qed,
    surrogate_sa,
)


def synth(heavy=10, rings=2, max_ring=6, bridges=0, mw=300.0, rot=2,
          hbd=1, hba=2, tpsa=40.0, logp=2.0):
    return DescriptorSet(
        heavy_atoms=heavy, ring_count=rings, max_ring_size=max_ring,
        bridgehead_count=bridges, approx_mw=mw, rotatable_proxy=rot,
        hbd_proxy=hbd, hba_proxy=hba, tpsa_proxy=tpsa, logp_proxy=logp,
        element_set=frozenset({"C"}), charge_total=0,
    )


def test_qed_unity_at_centers():
    assert surrogate_qed(synth(mw=300.0, logp=2.0, hbd=1, rings=2)) == pytest.approx(1.0)


def test_qed_mw_600_reference_point():
    # (600-300)/150 = 2 standard units; exp(-4) averaged over 4 terms -> e^-1
    d = synth(mw=600.0, logp=2.0, hbd=1, rings=2)
    assert surrogate_qed(d) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_qed_monotone_in_mw_departure():
    values = [surrogate_qed(synth(mw=m)) for m in (300, 350, 420, 500, 600)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_sa_single_atom():
    d = synth(heavy=1, rings=0, max_ring=0)
    assert surrogate_sa(d) == pytest.approx(1.15)


def test_sa_ten_atom_chain():
    d = synth(heavy=10, rings=0, max_ring=0)
    assert surrogate_sa(d) == pytest.approx(2.5)


def test_sa_clamps_at_ten():
    d = synth(heavy=60, rings=9, max_ring=18, bridges=8)
    assert surrogate_sa(d) == 10.0


def test_ds_global_minimum_is_self():
    profile = load_profile("parp1")
    mol = validate_smiles(profile.seed_smiles)
    d = descriptors(mol)
    assert d.heavy_atoms == profile.size_optimum  # profile constant consistency
    fp = fingerprint(mol, profile.fp_width)
    ds = SurrogateOracle(profile).score_mol(mol, d, fp).ds
    assert ds == pytest.approx(-18.0, abs=1e-9)


def test_ds_monotone_in_similarity():
    profile = load_profile("fa7")
    d = synth(heavy=profile.size_optimum)
    target = profile.target_fp()
    mol = validate_smiles("CCCCCCCC")
    other = fingerprint(mol, profile.fp_width)
    # With d and fp given, score_mol reads neither from mol.
    oracle = SurrogateOracle(profile)
    far = oracle.score_mol(mol, d, other).ds
    near = oracle.score_mol(mol, d, target).ds
    assert near < far <= 0.0


def test_profiles_ship_with_frozen_thresholds():
    expected = {"parp1": -10.0, "fa7": -8.5, "5ht1b": -8.8, "braf": -10.3,
                "jak2": -9.1}
    assert set(list_profiles()) == set(expected)
    for name, threshold in expected.items():
        profile = load_profile(name)
        assert profile.threshold_ds == threshold
        assert profile.name == name


def test_load_profile_missing():
    with pytest.raises(FileNotFoundError):
        load_profile("nosuchtarget")


def test_surrogate_oracle_scores_equal_with_given_descriptors():
    oracle = SurrogateOracle(load_profile("jak2"))
    mol = validate_smiles("CC(=O)Nc1ccc(O)cc1")
    a = oracle.score_mol(mol)
    b = oracle.score_mol(mol, descriptors(mol), fingerprint(mol, oracle.profile.fp_width))
    assert (a.qed, a.sa, a.ds) == (b.qed, b.sa, b.ds)
    assert -18.0 <= a.ds <= 0.0 and 0.0 < a.qed <= 1.0 and 1.0 <= a.sa <= 10.0


def test_profile_from_explicit_path(tmp_path):
    src = load_profile("braf")
    copy = tmp_path / "braf_copy.json"
    import json

    copy.write_text(json.dumps({
        "name": src.name, "threshold_ds": src.threshold_ds,
        "seed_smiles": src.seed_smiles, "size_optimum": src.size_optimum,
        "fp_width": src.fp_width,
    }))
    loaded = load_profile(str(copy))
    assert loaded == src

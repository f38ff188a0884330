"""Surrogate property scoring and target profiles."""

import json
import math

import pytest

from blockmol.chem import DescriptorSet, descriptors, fingerprint, validate_smiles
from blockmol.oracle import (
    PROFILE_DIR,
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
    copy.write_text(json.dumps({
        "name": src.name, "threshold_ds": src.threshold_ds,
        "seed_smiles": src.seed_smiles, "size_optimum": src.size_optimum,
        "fp_width": src.fp_width,
    }))
    loaded = load_profile(str(copy))
    assert loaded == src


@pytest.mark.parametrize("edit, message", [  # an edit to None drops the key
    ({"threshold_ds": None}, "missing key 'threshold_ds'"),
    ({"fpwidth": 1024}, "unknown key 'fpwidth'"),  # a misspelled fp_width
    ({"size_optimum": "26"}, "size_optimum must be a JSON integer, got '26'"),
    ({"size_optimum": 26.5}, "size_optimum must be a JSON integer, got 26.5"),
    ({"fp_width": True}, "fp_width must be a JSON integer, got True"),
    ({"threshold_ds": "-10"}, "threshold_ds must be a JSON number, got '-10'"),
    ({"seed_smiles": "C1CC"}, "seed_smiles does not parse: ring 1 never closed"),
    # Before, these loaded, and failed only when an oracle was built, naming no file.
    ({"fp_width": 1000}, "fp_width 1000: width must be a power of two >= 256"),
    ({"fp_width": 128}, "fp_width 128: width must be a power of two >= 256"),
    # Before, a non-finite threshold loaded, and eval reported hit_ratio 0.0 with
    # exit 0; 10**400 raised OverflowError only once a molecule was scored.
    ({"threshold_ds": math.nan}, "threshold_ds must lie in (-inf, inf), got nan"),
    ({"threshold_ds": math.inf}, "threshold_ds must lie in (-inf, inf), got inf"),
    ({"threshold_ds": -math.inf}, "threshold_ds must lie in (-inf, inf), got -inf"),
    ({"threshold_ds": 10**400}, f"threshold_ds must lie in (-inf, inf), got {10**400}"),
    ({"size_optimum": 10**400}, f"size_optimum must lie in [0, 2**20], got {10**400}"),
    # Before, these loaded, and eval then exited with a bare MemoryError.
    ({"fp_width": 2**64}, f"fp_width must lie in [1, 2**16], got {2**64}"),
    ({"fp_width": 2**4000}, f"fp_width must lie in [1, 2**16], got {2**4000}"),
])
def test_malformed_profile_names_its_file_and_key(tmp_path, edit, message):
    record = json.loads((PROFILE_DIR / "parp1.json").read_text())
    record.update(edit)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({k: v for k, v in record.items() if v is not None}))
    with pytest.raises(ValueError) as caught:
        load_profile(str(path))
    assert str(caught.value) == f"{path}: {message}"


def test_profile_that_is_not_an_object_names_its_file(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError) as caught:
        load_profile(str(path))
    assert str(caught.value) == f"{path}: must hold one JSON object"


def test_profile_without_fp_width_takes_the_default(tmp_path):
    record = json.loads((PROFILE_DIR / "fa7.json").read_text())
    del record["fp_width"]
    path = tmp_path / "fa7.json"
    path.write_text(json.dumps(record))
    assert load_profile(str(path)) == load_profile("fa7")

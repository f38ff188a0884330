"""Evaluation metrics against brute-force recomputation on small sets."""

import math

import pytest

from blockmol.chem import Fingerprint, descriptors, fingerprint, tanimoto, validate_smiles
from blockmol.metrics import (
    QED_HIT,
    QED_QUALITY,
    SA_HIT,
    SA_QUALITY,
    EmptySet,
    EvalReport,
    circles,
    diversity_score,
    hit_metrics,
    mean_pairwise_tanimoto,
    standard_metrics,
)
from blockmol.oracle import SurrogateOracle, load_profile

FOUR = ["CC(=O)Nc1ccc(O)cc1", "CCN(CC)C(=O)c1ccncc1",
        "COc1ccccc1", "CCCCCCCC"]


@pytest.fixture(scope="module")
def oracle():
    return SurrogateOracle(load_profile("parp1"))


def test_all_identical_set(oracle):
    report = standard_metrics(["CC(=O)Nc1ccc(O)cc1"] * 10, oracle)
    assert report.validity == 1.0
    assert report.uniqueness == pytest.approx(0.1)
    assert report.diversity == 0.0


def test_one_invalid_among_ten(oracle):
    report = standard_metrics(FOUR * 2 + ["CC(=O)Nc1ccc(O)cc1"] * 2 + ["C1CC"],
                              oracle)
    assert report.total == 11
    assert report.validity == pytest.approx(10 / 11)


def test_four_molecule_brute_force(oracle):
    report = standard_metrics(FOUR, oracle)
    mols = [validate_smiles(s) for s in FOUR]
    fps = [fingerprint(m, oracle.profile.fp_width) for m in mols]
    pair = [tanimoto(fps[i], fps[j]) for i in range(4) for j in range(i + 1, 4)]
    assert report.diversity == pytest.approx(1.0 - sum(pair) / 6)
    scores = [oracle.score_mol(m) for m in mols]
    assert report.quality == pytest.approx(
        sum(s.qed >= QED_QUALITY and s.sa <= SA_QUALITY
            for s in scores) / 4)
    assert report.docking_filter == pytest.approx(
        sum(s.qed > QED_HIT and s.sa < SA_HIT for s in scores) / 4)
    assert report.uniqueness == 1.0


def test_diversity_score_degenerate_cases():
    fp = fingerprint(validate_smiles("CCO"))
    assert diversity_score([]) == 0.0
    assert diversity_score([fp]) == 0.0
    assert diversity_score([fp, fp]) == 0.0  # identical pair, tanimoto 1


def test_duplicate_never_increases_diversity(oracle):
    base = standard_metrics(FOUR, oracle)
    doubled = standard_metrics(FOUR + [FOUR[0]], oracle)
    assert doubled.diversity <= base.diversity + 1e-12


def test_hit_gate_and_top_fraction(oracle):
    profile = oracle.profile
    # the profile's own seed molecule scores ds=-18, far below threshold
    samples = [profile.seed_smiles, "CCCCCCCC", "CC(=O)Nc1ccc(O)cc1"]
    ratio, top, hits = hit_metrics(samples, profile)
    seed_scores = oracle.score_mol(validate_smiles(profile.seed_smiles))
    expect_hit = (seed_scores.ds < profile.threshold_ds
                  and seed_scores.qed > 0.5 and seed_scores.sa < 5.0)
    assert (len(hits) >= 1) == expect_hit
    if hits:
        assert top == pytest.approx(hits[0].scores.ds)  # ceil(0.05*n)=1 for n<=20
        assert all(h.scores.ds < profile.threshold_ds for h in hits)


def test_hundred_hits_top_five_mean(oracle):
    # synthetic ds ladder: verify the sort-and-average against a direct oracle
    profile = oracle.profile
    samples = [profile.seed_smiles]
    ratio, top, hits = hit_metrics(samples * 3, profile)
    assert len(hits) <= 1  # dedup first, then gate
    # direct check of the ceil rule on a fabricated list
    ds_values = sorted(-10.0 - 0.05 * i for i in range(100))
    top_n = math.ceil(0.05 * 100)
    assert top_n == 5
    assert sum(ds_values[:5]) / 5 == pytest.approx(min(ds_values) + 0.05 * 2)


def test_zero_hits_reports_absent(oracle):
    report = standard_metrics(["CCCCCCCC", "CCCCCCC"], oracle)
    assert report.hit_ratio == 0.0
    assert report.novel_top_hit is None
    assert report.circles == 0


def test_circles_trivial_cases():
    a = Fingerprint(0b0111, 256)
    b = Fingerprint(0b0111, 256)
    assert circles([a, b, a]) == 1
    disjoint = [Fingerprint(1 << i, 256) for i in range(5)]
    assert circles(disjoint) == 5


def test_circles_crafted_six_element_trace():
    # centers admitted greedily: fp0 always; fp1 overlaps fp0 at 3/4; ...
    fps = [
        Fingerprint(0b1111, 256),       # center 1
        Fingerprint(0b0111, 256),       # tanimoto 3/4 vs c1 -> excluded
        Fingerprint(0b1111000, 256),    # disjoint -> center 2
        Fingerprint(0b1100000, 256),    # 2/4 vs c2 -> admitted, center 3
        Fingerprint(0b1111111, 256),    # 4/7 vs c1, 3/7, 2/7 -> center 4
        Fingerprint(0b1111110, 256),    # 6/7 vs c4 -> excluded
    ]
    brute = []
    for fp in fps:
        if all(tanimoto(fp, c) < 0.75 for c in brute):
            brute.append(fp)
    assert circles(fps) == len(brute) == 4


def test_circles_monotone_in_set_size():
    fps = [Fingerprint((1 << (3 * i)) | (1 << (3 * i + 1)), 256) for i in range(6)]
    counts = [circles(fps[:n]) for n in range(1, 7)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_circles_threshold_validation():
    with pytest.raises(ValueError):
        circles([], threshold=0.0)
    with pytest.raises(ValueError):
        circles([], threshold=1.0)


def test_empty_sample_set_raises(oracle):
    with pytest.raises(EmptySet):
        standard_metrics([], oracle)
    with pytest.raises(EmptySet):
        hit_metrics([], oracle.profile)


def test_report_field_validation():
    with pytest.raises(ValueError):
        EvalReport(total=1, validity=1.5, uniqueness=0, quality=0,
                   docking_filter=0, diversity=0, hit_ratio=0, circles=0,
                   novel_top_hit=None)


def test_report_round_trips_to_dict(oracle):
    report = standard_metrics(FOUR, oracle)
    d = report.to_dict()
    assert d["total"] == 4
    assert set(d) == {"total", "validity", "uniqueness", "quality",
                      "docking_filter", "diversity", "hit_ratio", "circles",
                      "novel_top_hit"}


def test_mean_pairwise_matches_manual():
    fps = [Fingerprint(0b11, 256), Fingerprint(0b10, 256), Fingerprint(0b110, 256)]
    manual = (tanimoto(fps[0], fps[1]) + tanimoto(fps[0], fps[2])
              + tanimoto(fps[1], fps[2])) / 3
    assert mean_pairwise_tanimoto(fps) == manual


def test_circles_above_hit_count_is_a_runtime_error(oracle, monkeypatch):
    # The bound is checked by a raise, not an assert that python -O strips.
    from blockmol import metrics

    monkeypatch.setattr(metrics, "circles", lambda fps, threshold: len(fps) + 1)
    with pytest.raises(RuntimeError, match="circles"):
        standard_metrics(FOUR, oracle)

"""Four-stage curation pipeline against hand-classified corpora."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from blockmol import curate
from blockmol.chem import descriptors, fingerprint, tanimoto, validate_smiles
from blockmol.curate import (
    STAGES,
    Reject,
    classify,
    curate_stream,
)
from blockmol.oracle import surrogate_qed, surrogate_sa

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# Crafted corpus: one line per reachable rule at default thresholds, two
# passers, and two diversity duplicates of the first passer.
GOLDEN = [
    ("CCCCCCCCCCCCCCCC", "physchem.qed"),
    ("COc1ccc(NC(=O)N2CCN(C)CC2)cc1", "physchem.sa"),
    ("C[Si](C)(C)OC(=O)Nc1ccc(N)cc1", "structural.banned_element"),
    ("C[N+]1(C)CCC(NC(=O)c2ccccc2)CC1", "structural.net_charge"),
    ("O=C1CCCCCCCCC1N", "structural.ring_size"),
    ("Nc1ccc(CCN=[N+]=[N-])cc1", "structural.banned_pattern"),
    ("CCOP(OCC)OCc1ccccc1", "structural.phosphorus"),
    ("Cc1ccncc1", "lipinski.mw"),
    ("CC(=O)Nc1ccc(O)cc1", None),
    ("CCN(CC)C(=O)c1ccncc1", None),
    ("CC(=O)Nc1ccc(O)cc1", "diversity.similarity"),
    ("CC(=O)Nc1ccc(F)cc1", "diversity.similarity"),
]


def run_classify(smiles):
    mol = validate_smiles(smiles)
    d = descriptors(mol)
    return classify(mol, d, surrogate_qed(d), surrogate_sa(d))


def test_golden_corpus_exact_trace():
    accepted, report = curate_stream(s for s, _ in GOLDEN)
    assert report.input_count == 12
    assert report.parse_failures == 0
    assert report.accepted_count == 2
    assert [m.smiles for m in accepted] == ["CC(=O)Nc1ccc(O)cc1",
                                            "CCN(CC)C(=O)c1ccncc1"]
    assert report.rejections == {"physchem": 2, "structural": 5,
                                 "lipinski": 1, "diversity": 2}
    expected_rules = {}
    for _, verdict in GOLDEN:
        if verdict:
            expected_rules[verdict] = expected_rules.get(verdict, 0) + 1
    assert report.rule_counts == expected_rules
    assert report.bucket_sizes == {11: 1, 13: 1}
    assert report.reconciles()


def test_golden_per_molecule_verdicts():
    for smiles, verdict in GOLDEN:
        got = run_classify(smiles)
        if verdict is None or verdict.startswith("diversity"):
            assert got is None, smiles
        else:
            stage, rule = verdict.split(".")
            assert got == Reject(stage, rule), smiles


# Rules behind the physchem gate: a molecule violating any of these at the
# default thresholds always fails qed/sa first, so they are exercised with
# the earlier gates relaxed.
RELAXED = dict(QED_MIN=0.0, SA_MAX=100.0)


def relax(monkeypatch, **thresholds):
    """Set the named ``curate`` thresholds, RELAXED's first."""
    for name, value in {**RELAXED, **thresholds}.items():
        monkeypatch.setattr(curate, name, value)


@pytest.mark.parametrize("smiles,stage,rule,overrides", [
    ("C1C2CC3CC1CC(C2)C3", "structural", "bridgeheads", {}),
    ("CCCCCCCCCCCCCC", "structural", "rotatable", {}),
    ("NCCNCCNCCNCCNCCNCCN", "structural", "tpsa", {"ROT_MAX": 100}),
    ("NCCNCCNCCNCCNCCN", "lipinski", "hbd",
     {"ROT_MAX": 100, "TPSA_MAX": 1e9}),
    ("COCCOCCOCCOCCOCCOCCOCCOCCOCCOCCOC", "lipinski", "hba",
     {"ROT_MAX": 100, "TPSA_MAX": 1e9}),
    ("CCCCCCCCCCCC", "lipinski", "logp", {"ROT_MAX": 100}),
    ("C" * 45, "lipinski", "mw", {"ROT_MAX": 100, "LOGP_MAX": 1e9}),
])
def test_gated_rules_fire_when_reachable(monkeypatch, smiles, stage, rule, overrides):
    relax(monkeypatch, **overrides)
    assert run_classify(smiles) == Reject(stage, rule)


def test_rule_order_physchem_shadows_structural():
    # adamantane violates the bridgehead rule but is rejected for qed first
    got = run_classify("C1C2CC3CC1CC(C2)C3")
    assert got == Reject("physchem", "qed")


def test_phosphorus_with_double_bonded_oxygen_passes(monkeypatch):
    relax(monkeypatch)
    assert run_classify("CCOP(=O)(OCC)OCc1ccccc1") is None


def test_size_bucket_rejection(monkeypatch):
    # a 3-heavy molecule can never clear the qed gate, so the bucket floor
    # is exercised with physchem relaxed; heavy halogens keep mw in range
    relax(monkeypatch)
    accepted, report = curate_stream(["C(Br)Br"])
    assert accepted == []
    assert report.rule_counts == {"diversity.size_bucket": 1}


def test_parse_failures_counted():
    accepted, report = curate_stream(["C1CC", "not a molecule", ""])
    assert report.input_count == 2  # blank lines are skipped
    assert report.parse_failures == 2
    assert report.reconciles()


def test_survivor_buckets_stay_dissimilar(toy500):
    # admitted fingerprints within one bucket are pairwise below threshold
    lines = ["".join(t.text for t in toks) for toks in toy500[:120]]
    accepted, report = curate_stream(lines)
    assert report.reconciles()
    by_bucket = {}
    for m in accepted:
        fp = fingerprint(validate_smiles(m.smiles))
        by_bucket.setdefault(m.heavy_atoms, []).append(fp)
    for bucket in by_bucket.values():
        for i, a in enumerate(bucket):
            for b in bucket[i + 1:]:
                assert tanimoto(a, b) < curate.TANIMOTO_MAX


def test_stage_names_frozen():
    assert STAGES == ("physchem", "structural", "lipinski", "diversity")


def test_unreconciled_ledger_fails_under_python_O(tmp_path):
    # The ledger check must survive -O, which strips assert statements, and
    # the command line must report it as a runtime error (exit 2).
    infile = tmp_path / "in.smi"
    infile.write_text("CC(=O)Nc1ccc(O)cc1\nC1CC\n")
    script = (
        "import sys\n"
        "assert False, 'assert statements must be stripped'\n"
        "from blockmol import cli, curate\n"
        "curate.CurationReport.reconciles = lambda self: False\n"
        f"sys.exit(cli.main(['curate', '--in', {str(infile)!r}]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "ledger failed to reconcile" in proc.stderr

"""Staged corpus curation: physchem gate, structural rules, Lipinski box, diversity.

Rules are applied in a fixed short-circuit order; a molecule is charged to
the first stage it fails, so per-stage counts are reproducible and the
report always reconciles input = accepted + rejected + parse failures.
Every stage but diversity judges a molecule on its own, so ``screen`` runs
over chunks of lines in forked processes; diversity admission then runs in
this process, in input order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice

from . import parallel
from .chem import (DescriptorSet, Fingerprint, ParsedMol,
                   descriptors, fingerprint, tanimoto, try_parse)
from .oracle import surrogate_qed, surrogate_sa

STAGES = ("physchem", "structural", "lipinski", "diversity")

# The rules' thresholds, in the order ``classify`` applies them: a molecule is
# rejected at qed <= QED_MIN or sa >= SA_MAX, and above any other maximum.
QED_MIN = 0.5
SA_MAX = 5.0
BANNED_ELEMENTS = frozenset(("Si", "Sn"))
BRIDGEHEAD_MAX = 2
MAX_RING = 8
ROT_MAX = 10
TPSA_MAX = 140.0
BANNED_PATTERNS = ("N=[N+]=[N-]", "N=Nc", "C(=S)S")  # reactive/assay-interfering motifs
LOGP_MAX = 5.0
MW_RANGE = (100.0, 500.0)
HBD_MAX = 5
HBA_MAX = 10
# Diversity: the heavy-atom counts bucketed, and the similarity of a duplicate.
HEAVY_RANGE = (4, 49)
TANIMOTO_MAX = 0.5


@dataclass(frozen=True, slots=True)
class Reject:
    stage: str
    rule: str


def classify(mol: ParsedMol, d: DescriptorSet, qed: float, sa: float) -> Reject | None:
    """First violated rule across the three per-molecule stages, else None.

    Diversity is corpus-level state and lives in curate_stream.
    """
    if qed <= QED_MIN or sa >= SA_MAX:
        return Reject("physchem", "qed" if qed <= QED_MIN else "sa")
    if d.element_set & BANNED_ELEMENTS:
        return Reject("structural", "banned_element")
    if d.charge_total != 0:
        return Reject("structural", "net_charge")
    if d.bridgehead_count > BRIDGEHEAD_MAX:
        return Reject("structural", "bridgeheads")
    if d.max_ring_size > MAX_RING:
        return Reject("structural", "ring_size")
    if d.rotatable_proxy > ROT_MAX:
        return Reject("structural", "rotatable")
    if d.tpsa_proxy > TPSA_MAX:
        return Reject("structural", "tpsa")
    for pattern in BANNED_PATTERNS:
        if pattern in mol.smiles:
            return Reject("structural", "banned_pattern")
    if not _phosphorus_ok(mol):
        return Reject("structural", "phosphorus")
    if d.logp_proxy > LOGP_MAX:
        return Reject("lipinski", "logp")
    if not MW_RANGE[0] <= d.approx_mw <= MW_RANGE[1]:
        return Reject("lipinski", "mw")
    if d.hbd_proxy > HBD_MAX:
        return Reject("lipinski", "hbd")
    if d.hba_proxy > HBA_MAX:
        return Reject("lipinski", "hba")
    return None


def _phosphorus_ok(mol: ParsedMol) -> bool:
    """Every phosphorus must carry at least one double-bonded oxygen."""
    for i, atom in enumerate(mol.atoms):
        if atom.element != "P":
            continue
        if not any(b.order == 2.0 and mol.atoms[j].element == "O"
                   for j, b in mol.adjacency[i]):
            return False
    return True


@dataclass
class CurationReport:
    input_count: int = 0
    parse_failures: int = 0
    accepted_count: int = 0
    rejections: dict = field(default_factory=lambda: {s: 0 for s in STAGES})
    rule_counts: dict = field(default_factory=dict)
    bucket_sizes: dict = field(default_factory=dict)

    def reconciles(self) -> bool:
        return self.input_count == (self.accepted_count + self.parse_failures
                                    + sum(self.rejections.values()))

    def to_json(self) -> str:
        return json.dumps({
            "input": self.input_count,
            "parse_failures": self.parse_failures,
            "accepted": self.accepted_count,
            "rejections": self.rejections,
            "rules": self.rule_counts,
            "buckets": {str(k): v for k, v in sorted(self.bucket_sizes.items())},
        }, indent=2)


@dataclass(frozen=True)
class CuratedMol:
    smiles: str
    qed: float
    sa: float
    heavy_atoms: int


def screen(smiles: str):
    """One molecule's verdict before diversity admission: None when it does
    not parse, the Reject of the first rule it fails (a heavy-atom count
    outside the bucket range is the diversity stage's "size_bucket"), else
    (qed, sa, heavy atoms, fingerprint).  It depends on no other molecule."""
    mol, err = try_parse(smiles)
    if err is not None:
        return None
    d = descriptors(mol)
    qed, sa = surrogate_qed(d), surrogate_sa(d)
    verdict = classify(mol, d, qed, sa)
    if verdict is not None:
        return verdict
    if not HEAVY_RANGE[0] <= d.heavy_atoms <= HEAVY_RANGE[1]:
        return Reject("diversity", "size_bucket")
    return qed, sa, d.heavy_atoms, fingerprint(mol)


# Non-blank lines screened at a time, so a large input is never held whole:
# a window's results take about 1.4 MiB per 4,000 grid candidates, mostly
# fingerprints, and a window costs one fork per extra process.
WINDOW_LINES = 1 << 13
# The fewest lines a chunk gets a process for.  Grid candidates on a 2-core
# VM, median ms of 15 alternating runs, one process -> two: 64 lines 12.7 ->
# 14.3 and 14.5 -> 13.1, 96 lines 22.0 -> 17.6, 128 lines 24.4 -> 21.8.
MIN_CHUNK_ROWS = 48


def curate_stream(lines):
    """Curate an iterable of SMILES lines.

    Returns (accepted list, CurationReport).  Diversity admission buckets
    molecules by heavy-atom count; a candidate joins only when its maximum
    Tanimoto against everything already admitted to its bucket stays below
    the threshold.  Heavy-atom counts outside the bucket range are counted
    as diversity-stage rejections.  Lines are screened in parallel chunks
    and admitted in input order, so the result does not depend on the
    process count.
    """
    report = CurationReport()
    accepted: list[CuratedMol] = []
    buckets: dict[int, list[Fingerprint]] = {}

    def charge(stage: str, rule: str):
        report.rejections[stage] += 1
        key = f"{stage}.{rule}"
        report.rule_counts[key] = report.rule_counts.get(key, 0) + 1

    nonblank = (smiles for smiles in map(str.strip, lines) if smiles)
    while window := list(islice(nonblank, WINDOW_LINES)):
        report.input_count += len(window)
        screened = parallel.map_rows(screen, window, MIN_CHUNK_ROWS, "curate", "rows")
        for smiles, result in zip(window, screened):
            if result is None:
                report.parse_failures += 1
                continue
            if isinstance(result, Reject):
                charge(result.stage, result.rule)
                continue
            qed, sa, heavy, fp = result
            bucket = buckets.setdefault(heavy, [])
            if any(tanimoto(fp, other) >= TANIMOTO_MAX for other in bucket):
                charge("diversity", "similarity")
                continue
            bucket.append(fp)
            accepted.append(CuratedMol(smiles, qed, sa, heavy))
            report.accepted_count += 1

    report.bucket_sizes = {k: len(v) for k, v in buckets.items()}
    if not report.reconciles():
        raise RuntimeError(f"curation ledger failed to reconcile: {report.to_json()}")
    return accepted, report

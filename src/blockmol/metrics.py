"""Evaluation metrics for generated molecule sets.

All set-level metrics deduplicate by exact token string, which is stricter
than (or equal to) canonical-form uniqueness: two spellings of the same
molecule count as distinct, so reported uniqueness is a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .chem import Fingerprint, descriptors, fingerprint, tanimoto, try_parse
from .oracle import OracleScores, SurrogateOracle


class EmptySet(ValueError):
    """Metrics over zero samples are undefined."""


# Thresholds for the quality, docking-filter and hit criteria.
QED_QUALITY = 0.6  # quality: qed >= this
SA_QUALITY = 4.0  # quality: sa <= this
QED_HIT = 0.5  # filter and hits: qed > this (strict)
SA_HIT = 5.0  # filter and hits: sa < this (strict)
TOP_FRACTION = 0.05  # novel_top_hit: mean ds of this best fraction of hits
CIRCLE_THRESHOLD = 0.75


@dataclass(frozen=True)
class Scored:
    """One unique valid sample with its scores and fingerprint."""
    smiles: str
    scores: OracleScores
    fp: Fingerprint


@dataclass(frozen=True)
class EvalReport:
    total: int
    validity: float
    uniqueness: float
    quality: float
    docking_filter: float
    diversity: float
    hit_ratio: float
    circles: int
    novel_top_hit: float | None

    def __post_init__(self):
        for name in ("validity", "uniqueness", "quality", "docking_filter",
                     "diversity", "hit_ratio"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of [0,1]: {value}")

    def to_dict(self) -> dict:
        return asdict(self)


def _score_unique(samples, oracle: SurrogateOracle) -> tuple[int, list[Scored]]:
    """(valid count, one Scored per unique valid sample in first-seen order).

    Each distinct string is parsed, fingerprinted and scored once; only the
    scores and the fingerprint outlive the loop, not the parsed molecule.
    """
    valid = 0
    seen: dict[str, Scored | None] = {}
    for smiles in samples:
        if smiles not in seen:
            mol, err = try_parse(smiles)
            if err is None:
                fp = fingerprint(mol, oracle.profile.fp_width)
                seen[smiles] = Scored(smiles, oracle.score_mol(mol, descriptors(mol), fp), fp)
            else:
                seen[smiles] = None
        if seen[smiles] is not None:
            valid += 1
    return valid, [s for s in seen.values() if s is not None]


def mean_pairwise_tanimoto(fps: list[Fingerprint]) -> float:
    total = sum(tanimoto(fps[i], fps[j])
                for i in range(len(fps)) for j in range(i + 1, len(fps)))
    return total / (len(fps) * (len(fps) - 1) / 2)


def diversity_score(fps: list[Fingerprint]) -> float:
    """1 minus mean pairwise Tanimoto; 0 for fewer than two molecules."""
    if len(fps) < 2:
        return 0.0
    return 1.0 - mean_pairwise_tanimoto(fps)


def hit_metrics(samples, profile, oracle: SurrogateOracle | None = None):
    """(hit_ratio, novel_top_hit, hits) under the three-part hit gate.

    A hit is a unique valid molecule with ds below the profile threshold,
    qed strictly above and sa strictly below the gate cutoffs.  With zero
    hits the top-5% mean is undefined and reported as None, never 0.
    """
    if not samples:
        raise EmptySet("no samples")
    _, scored = _score_unique(samples, oracle or SurrogateOracle(profile))
    return _select_hits(scored, profile)


def _select_hits(scored: list[Scored], profile):
    """hit_metrics over already scored unique valid samples."""
    hits = [h for h in scored
            if h.scores.ds < profile.threshold_ds and h.scores.qed > QED_HIT
            and h.scores.sa < SA_HIT]
    hits.sort(key=lambda h: (h.scores.ds, h.smiles))
    ratio = len(hits) / len(scored) if scored else 0.0
    if not hits:
        return ratio, None, hits
    top_n = math.ceil(TOP_FRACTION * len(hits))
    top = sum(h.scores.ds for h in hits[:top_n]) / top_n
    return ratio, top, hits


def circles(fps: list[Fingerprint], threshold: float = CIRCLE_THRESHOLD) -> int:
    """Greedy sphere-exclusion count in the given (ds-ascending) order."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0,1): {threshold}")
    centers: list[Fingerprint] = []
    for fp in fps:
        if all(tanimoto(fp, c) < threshold for c in centers):
            centers.append(fp)
    return len(centers)


def standard_metrics(samples, oracle: SurrogateOracle) -> EvalReport:
    """Full evaluation report over a sample set.

    Ratios over empty denominators (e.g. quality when nothing is valid)
    are reported as 0.0 rather than raising.
    """
    samples = list(samples)
    if not samples:
        raise EmptySet("no samples")
    valid, scored = _score_unique(samples, oracle)
    n_unique = len(scored)
    quality = sum(1 for h in scored
                  if h.scores.qed >= QED_QUALITY and h.scores.sa <= SA_QUALITY)
    dock = sum(1 for h in scored if h.scores.qed > QED_HIT and h.scores.sa < SA_HIT)
    hit_ratio, novel_top, hits = _select_hits(scored, oracle.profile)
    report = EvalReport(
        total=len(samples),
        validity=valid / len(samples),
        uniqueness=n_unique / valid if valid else 0.0,
        quality=quality / n_unique if n_unique else 0.0,
        docking_filter=dock / n_unique if n_unique else 0.0,
        diversity=diversity_score([h.fp for h in scored]),
        hit_ratio=hit_ratio,
        circles=circles([h.fp for h in hits], CIRCLE_THRESHOLD),
        novel_top_hit=novel_top,
    )
    if report.circles > len(hits):
        raise RuntimeError(f"{report.circles} circles from only {len(hits)} hits")
    return report

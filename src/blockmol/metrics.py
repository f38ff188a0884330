"""Evaluation metrics for generated molecule sets.

All set-level metrics deduplicate by exact token string, which is stricter
than (or equal to) canonical-form uniqueness: two spellings of the same
molecule count as distinct, so reported uniqueness is a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chem import Fingerprint, descriptors, fingerprint, tanimoto, try_parse
from .oracle import OracleScores, SurrogateOracle


class EmptySet(ValueError):
    """Metrics over zero samples are undefined."""


@dataclass(frozen=True)
class GateConfig:
    """Thresholds for quality, docking-filter, and hit criteria."""
    qed_quality: float = 0.6  # quality: qed >= this
    sa_quality: float = 4.0  # quality: sa <= this
    qed_hit: float = 0.5  # filter and hits: qed > this (strict)
    sa_hit: float = 5.0  # filter and hits: sa < this (strict)
    top_fraction: float = 0.05
    circle_threshold: float = 0.75


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
        return {
            "total": self.total,
            "validity": self.validity,
            "uniqueness": self.uniqueness,
            "quality": self.quality,
            "docking_filter": self.docking_filter,
            "diversity": self.diversity,
            "hit_ratio": self.hit_ratio,
            "circles": self.circles,
            "novel_top_hit": self.novel_top_hit,
        }


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


def hit_metrics(samples, profile, gate: GateConfig = GateConfig(),
                oracle: SurrogateOracle | None = None):
    """(hit_ratio, novel_top_hit, hits) under the three-part hit gate.

    A hit is a unique valid molecule with ds below the profile threshold,
    qed strictly above and sa strictly below the gate cutoffs.  With zero
    hits the top-5% mean is undefined and reported as None, never 0.
    """
    if not samples:
        raise EmptySet("no samples")
    _, scored = _score_unique(samples, oracle or SurrogateOracle(profile))
    return _select_hits(scored, profile, gate)


def _select_hits(scored: list[Scored], profile, gate: GateConfig):
    """hit_metrics over already scored unique valid samples."""
    hits = [h for h in scored
            if h.scores.ds < profile.threshold_ds and h.scores.qed > gate.qed_hit
            and h.scores.sa < gate.sa_hit]
    hits.sort(key=lambda h: (h.scores.ds, h.smiles))
    ratio = len(hits) / len(scored) if scored else 0.0
    if not hits:
        return ratio, None, hits
    top_n = math.ceil(gate.top_fraction * len(hits))
    top = sum(h.scores.ds for h in hits[:top_n]) / top_n
    return ratio, top, hits


def circles(fps: list[Fingerprint], threshold: float = 0.75) -> int:
    """Greedy sphere-exclusion count in the given (ds-ascending) order."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0,1): {threshold}")
    centers: list[Fingerprint] = []
    for fp in fps:
        if all(tanimoto(fp, c) < threshold for c in centers):
            centers.append(fp)
    return len(centers)


def standard_metrics(samples, oracle: SurrogateOracle,
                     gate: GateConfig = GateConfig()) -> EvalReport:
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
                  if h.scores.qed >= gate.qed_quality and h.scores.sa <= gate.sa_quality)
    dock = sum(1 for h in scored
               if h.scores.qed > gate.qed_hit and h.scores.sa < gate.sa_hit)
    hit_ratio, novel_top, hits = _select_hits(scored, oracle.profile, gate)
    report = EvalReport(
        total=len(samples),
        validity=valid / len(samples),
        uniqueness=n_unique / valid if valid else 0.0,
        quality=quality / n_unique if n_unique else 0.0,
        docking_filter=dock / n_unique if n_unique else 0.0,
        diversity=diversity_score([h.fp for h in scored]),
        hit_ratio=hit_ratio,
        circles=circles([h.fp for h in hits], gate.circle_threshold),
        novel_top_hit=novel_top,
    )
    if report.circles > len(hits):
        raise RuntimeError(f"{report.circles} circles from only {len(hits)} hits")
    return report

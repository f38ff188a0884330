"""Evaluation metrics for generated molecule sets.

All set-level metrics deduplicate by exact token string, which is stricter
than (or equal to) canonical-form uniqueness: two spellings of the same
molecule count as distinct, so reported uniqueness is a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import parallel
from .chem import Fingerprint, WidthMismatch
from .oracle import Scored, SurrogateOracle


class EmptySet(ValueError):
    """Metrics over zero samples are undefined."""


# Thresholds for the quality, docking-filter and hit criteria.
QED_QUALITY = 0.6  # quality: qed >= this
SA_QUALITY = 4.0  # quality: sa <= this
QED_HIT = 0.5  # filter and hits: qed > this (strict)
SA_HIT = 5.0  # filter and hits: sa < this (strict)
TOP_FRACTION = 0.05  # novel_top_hit: mean ds of this best fraction of hits
CIRCLE_THRESHOLD = 0.75
PAIR_BLOCK_BYTES = 1 << 20  # size of one row block's AND in mean_pairwise_tanimoto
# The fewest distinct SMILES a chunk gets a process for.  On a 2-core VM,
# median ms of 15 alternating runs, one process -> two, by distinct SMILES:
# seed-42 search rollouts (all valid) 48 10.9 -> 11.0, 64 14.6 -> 13.6, 128
# 28.0 -> 21.6; seed-51000 sample lines (17% valid, so cheaper) 128 6.9 ->
# 10.7, 192 10.9 -> 11.7, 256 15.9 -> 13.3.
MIN_CHUNK_MOLECULES = 64


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

    Each distinct string is scored once, in chunks of the distinct strings in
    first-seen order, each after the first in a forked child: a
    SurrogateOracle holds no process or open file, so every child scores
    with its own copy.
    """
    distinct = list(dict.fromkeys(samples))
    verdicts = dict(zip(distinct, parallel.map_rows(
        oracle.score, distinct, MIN_CHUNK_MOLECULES, "eval", "molecules")))
    valid = sum(verdicts[smiles] is not None for smiles in samples)
    return valid, [s for s in verdicts.values() if s is not None]


def _pack(fps: list[Fingerprint]) -> tuple[np.ndarray, np.ndarray]:
    """(uint64 rows as wide as the widest int in the set, popcount per row)."""
    if len(widths := {fp.width for fp in fps}) > 1:
        raise WidthMismatch(f"fingerprint widths differ: {sorted(widths)}")
    size = 8 * -(-max((fp.bits.bit_length() for fp in fps), default=0) // 64)
    rows = np.frombuffer(b"".join(fp.bits.to_bytes(size, "little") for fp in fps),
                         dtype="<u8").reshape(len(fps), size // 8)
    return rows, np.bitwise_count(rows).sum(axis=1, dtype=np.int64)


def _quotients(inter: np.ndarray, union: np.ndarray) -> np.ndarray:
    """inter / union, 1.0 where the union is empty, as ``tanimoto`` divides."""
    return np.divide(inter, union, out=np.ones(inter.shape), where=union != 0)


def mean_pairwise_tanimoto(fps: list[Fingerprint]) -> float:
    """Mean Tanimoto over pairs i < j, added left to right in (i, j) order as
    CPython 3.11's ``sum`` adds, in row blocks that carry the running total."""
    rows, counts = _pack(fps)
    n, total = len(fps), 0.0
    step = max(1, PAIR_BLOCK_BYTES // max(1, rows.nbytes))
    for lo in range(0, n - 1, step):  # rows lo.. against columns lo + 1..
        inter = np.bitwise_count(rows[lo:lo + step, None] & rows[None, lo + 1:]).sum(
            axis=2, dtype=np.int64)
        union = counts[lo:lo + step, None] + counts[None, lo + 1:] - inter
        values = _quotients(inter, union)[np.triu(np.ones(inter.shape, dtype=bool))]
        values[0] += total
        total = float(np.cumsum(values)[-1])
    return total / (n * (n - 1) / 2)


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
    rows, counts = _pack(fps)
    centers = np.zeros(len(fps), dtype=bool)
    for i, row in enumerate(rows):
        inter = np.bitwise_count(rows[centers] & row).sum(axis=1, dtype=np.int64)
        centers[i] = (_quotients(inter, counts[centers] + counts[i] - inter) < threshold).all()
    return int(centers.sum())


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

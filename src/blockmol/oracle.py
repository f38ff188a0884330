"""Scoring oracle: closed-form surrogate properties of a parsed molecule.

The surrogates are smooth functions of the structural descriptors, built so
that every optimum is known in closed form and tests can pin exact values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .chem import (DescriptorSet, Fingerprint, ParsedMol, descriptors,
                   fingerprint, tanimoto, validate_smiles)

PROFILE_DIR = Path(__file__).parent / "profiles"


@dataclass(frozen=True)
class OracleScores:
    qed: float
    sa: float
    ds: float


# Gaussian desirability terms: (descriptor field, center, width).
QED_TERMS = (
    ("approx_mw", 300.0, 150.0),
    ("logp_proxy", 2.0, 2.0),
    ("hbd_proxy", 1.0, 2.0),
    ("ring_count", 2.0, 1.5),
)

SA_CLAMP = (1.0, 10.0)
DS_SIMILARITY_WEIGHT = 14.0
DS_SIZE_WEIGHT = 4.0
DS_SIZE_SCALE = 12.0


def surrogate_qed(d: DescriptorSet) -> float:
    """Geometric mean of four Gaussian desirability terms; 1.0 at the joint optimum."""
    z2 = sum(((getattr(d, name) - mu) / sigma) ** 2 for name, mu, sigma in QED_TERMS)
    return math.exp(-z2 / len(QED_TERMS))


def surrogate_sa(d: DescriptorSet) -> float:
    """Size/ring complexity penalty, clamped to [1, 10]."""
    raw = (1.0 + 0.15 * d.heavy_atoms + 0.7 * d.ring_count
           + 0.5 * d.bridgehead_count + 0.3 * max(0, d.max_ring_size - 6))
    return min(SA_CLAMP[1], max(SA_CLAMP[0], raw))


@dataclass(frozen=True)
class OracleProfile:
    """A named docking target: reference fingerprint, size optimum, hit threshold."""

    name: str
    threshold_ds: float
    seed_smiles: str
    size_optimum: int
    fp_width: int = 2048

    def target_fp(self) -> Fingerprint:
        return fingerprint(validate_smiles(self.seed_smiles), self.fp_width)


def load_profile(name: str) -> OracleProfile:
    path = Path(name) if name.endswith(".json") else PROFILE_DIR / f"{name}.json"
    if not path.exists():
        raise FileNotFoundError(f"no oracle profile {name!r}")
    record = json.loads(path.read_text())
    return OracleProfile(
        name=record["name"],
        threshold_ds=float(record["threshold_ds"]),
        seed_smiles=record["seed_smiles"],
        size_optimum=int(record["size_optimum"]),
        fp_width=int(record.get("fp_width", 2048)),
    )


def list_profiles() -> list[str]:
    return sorted(p.stem for p in PROFILE_DIR.glob("*.json"))


class SurrogateOracle:
    """Scores parsed molecules with the closed-form surrogates."""

    def __init__(self, profile: OracleProfile):
        self.profile = profile
        self._target = profile.target_fp()

    def score_mol(self, mol: ParsedMol, d: DescriptorSet | None = None,
                  fp: Fingerprint | None = None) -> OracleScores:
        """Scores of ``mol``; ``d`` and ``fp`` (at the profile's width) are
        computed here unless the caller has them already.

        The docking surrogate ds lies in (-18, 0]: it rewards fingerprint
        overlap with the target and heavy-atom counts near the target's size
        optimum.
        """
        d = d or descriptors(mol)
        fp = fp or fingerprint(mol, self.profile.fp_width)
        sim = tanimoto(fp, self._target)
        size = math.exp(-(((d.heavy_atoms - self.profile.size_optimum) / DS_SIZE_SCALE) ** 2))
        return OracleScores(
            qed=surrogate_qed(d),
            sa=surrogate_sa(d),
            ds=-(DS_SIMILARITY_WEIGHT * sim + DS_SIZE_WEIGHT * size),
        )

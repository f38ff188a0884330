"""Scoring oracles: closed-form surrogate properties and an external child process.

The surrogates are smooth functions of the structural descriptors, built so
that every optimum is known in closed form and tests can pin exact values.
The external oracle speaks newline-delimited JSON over stdin/stdout and is
how a real docking stack would be attached.
"""

from __future__ import annotations

import json
import math
import os
import select
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from .chem import (DescriptorSet, Fingerprint, ParsedMol, descriptors,
                   fingerprint, tanimoto, validate_smiles)

PROFILE_DIR = Path(__file__).parent / "profiles"


class OracleError(RuntimeError):
    pass


class Timeout(OracleError):
    pass


class ProtocolError(OracleError):
    pass


class ChildExited(OracleError):
    pass


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


class ExternalOracle:
    """Child-process oracle: one JSON request line in, one reply line out.

    Request:  {"smiles": "..."}
    Reply:    {"qed": float, "sa": float, "ds": float}
    Any malformed reply, early exit, or timeout raises; the search layer maps
    oracle failures to the penalty reward rather than crashing a run.
    """

    def __init__(self, command: list[str], timeout: float = 60.0):
        self.command = list(command)
        self.timeout = timeout
        self._child: subprocess.Popen | None = None
        self._pending = b""  # bytes read from the child past the last reply line

    def _ensure_child(self) -> subprocess.Popen:
        if self._child is None or self._child.poll() is not None:
            self._child = subprocess.Popen(
                self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            self._pending = b""
        return self._child

    def _read_line(self, child: subprocess.Popen) -> bytes:
        """The next reply line, b"" at end of output.

        Reads the raw pipe into our own buffer, so select() never waits on
        bytes that a buffered reader has already taken, and a line that stops
        halfway cannot block past the deadline.
        """
        deadline = time.monotonic() + self.timeout
        fd = child.stdout.fileno()
        while b"\n" not in self._pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                child.kill()
                child.wait()
                raise Timeout(f"no oracle reply within {self.timeout}s")
            chunk = os.read(fd, 65536)
            if not chunk:
                line, self._pending = self._pending, b""
                return line
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line + b"\n"

    def score_smiles(self, smiles: str) -> OracleScores:
        child = self._ensure_child()
        try:
            child.stdin.write(json.dumps({"smiles": smiles}).encode() + b"\n")
            child.stdin.flush()
        except (BrokenPipeError, OSError) as err:
            raise ChildExited(f"oracle process is gone: {err}") from err
        line = self._read_line(child)
        if not line:
            raise ChildExited(f"oracle exited with code {child.poll()}")
        try:
            reply = json.loads(line)
            return OracleScores(float(reply["qed"]), float(reply["sa"]), float(reply["ds"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
            raise ProtocolError(f"bad oracle reply {line.decode(errors='replace')!r}") from err

    def score_mol(self, mol: ParsedMol) -> OracleScores:
        """Scores of ``mol``, sent to the child as its SMILES text."""
        return self.score_smiles(mol.smiles)

    def close(self):
        if self._child is not None and self._child.poll() is None:
            self._child.terminate()
            try:
                self._child.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._child.kill()
        self._child = None

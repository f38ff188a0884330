"""Fixed-length padding and contiguous block partitioning of token sequences.

A molecule is framed as [BOS] body [EOS] [PAD]... at a fixed length L and
split into B = L/K contiguous blocks.  The training block size and the
sampling block size are independent: any K dividing L re-partitions the
same padded layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chem import Token, Vocab


class ConfigError(ValueError):
    pass


class TooLong(ValueError):
    pass


class IncompleteSequence(ValueError):
    pass


@dataclass(frozen=True)
class FragmentConfig:
    """Sequence length and block size; length must be a multiple of block."""

    length: int
    block: int

    def __post_init__(self):
        if self.length < 2 or self.block < 1:
            raise ConfigError("need length >= 2 and block >= 1")
        if self.length % self.block:
            raise ConfigError(f"length {self.length} not divisible by block {self.block}")

    @property
    def num_blocks(self) -> int:
        return self.length // self.block


def pad_and_partition(tokens, cfg: FragmentConfig, vocab: Vocab) -> np.ndarray:
    """Frame a token sequence as the (L,) ids BOS + body + EOS + PAD."""
    body = [t.text if isinstance(t, Token) else t for t in tokens]
    if len(body) > cfg.length - 2:
        raise TooLong(f"{len(body)} tokens exceed capacity {cfg.length - 2}")
    ids = np.full(cfg.length, Vocab.PAD_ID, dtype=np.int64)
    ids[0] = Vocab.BOS_ID
    for i, text in enumerate(body):
        ids[1 + i] = vocab.id(text)
    ids[1 + len(body)] = Vocab.EOS_ID
    return ids


def reassemble(ids: np.ndarray, vocab: Vocab) -> list[str]:
    """Strip the framing of one (L,) row: BOS, everything at and after the
    first EOS, and PAD.

    Raises IncompleteSequence while any masked position remains.
    """
    if (ids == Vocab.MASK_ID).any():
        raise IncompleteSequence("sequence still contains masked positions")
    ids = ids.tolist()
    if Vocab.EOS_ID in ids:
        ids = ids[: ids.index(Vocab.EOS_ID)]
    out = []
    for i, token_id in enumerate(ids):
        if i == 0 and token_id == Vocab.BOS_ID:
            continue
        if token_id == Vocab.PAD_ID:
            continue
        out.append(vocab.tokens[token_id])
    return out

"""Fixed-length padding and contiguous block partitioning of token sequences.

A molecule is framed as [BOS] body [EOS] [PAD]... at a fixed length L and
split into B = L/K contiguous blocks.  The training block size and the
sampling block size are independent: any K dividing L re-partitions the
same padded layout.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chem import Token, Vocab


class ConfigError(ValueError):
    pass


class TooLong(ValueError):
    pass


class IncompleteSequence(ValueError):
    pass


@lru_cache(maxsize=1024)  # predict checks its nucleus p on every call
def check_interval(name: str, value, interval: str):
    """Raise ConfigError naming ``name`` unless ``value`` lies in ``interval``, such as
    "[1, 2**16]" or "(-inf, inf]", compared exactly; NaN and ints beyond floats lie in none."""
    lo, hi = (float(e) if "inf" in e else 2 ** int(e[3:]) if e[:3] == "2**" else int(e)
              for e in interval[1:-1].split(", "))
    x = math.nan if isinstance(value, int) and abs(value) > sys.float_info.max else value
    if not ((lo <= x if interval[0] == "[" else lo < x)
            and (x <= hi if interval[-1] == "]" else x < hi)):
        raise ConfigError(f"{name} must lie in {interval}, got {value!r}")


_JSON = {str: (str, "string"), int: (int, "integer"), float: ((int, float), "number"),
         list: (list, "array")}  # field type -> (the Python types that pass, JSON name)


def check_record(record, fields: dict, where: str):
    """Raise ConfigError naming ``where`` unless ``record`` is a JSON object that holds
    each key of ``fields``, mapped to (type or tuple of choices, interval or None), with a
    value of its type (a bool is no number, an int passes for a float) in its interval."""
    if not isinstance(record, dict):
        raise ConfigError(f"{where}: must hold one JSON object")
    for key, (kind, interval) in fields.items():
        if key not in record:
            raise ConfigError(f"{where}: missing key {key!r}")
        value = record[key]
        if isinstance(kind, tuple):
            ok, want = value in kind, f"one of {', '.join(kind)}"
        else:
            types, name = _JSON[kind]
            ok, want = isinstance(value, types) and not isinstance(value, bool), f"a JSON {name}"
        if not ok:
            raise ConfigError(f"{where}: {key} must be {want}, got {value!r}")
        if interval:
            check_interval(f"{where}: {key}", value, interval)


def load_record(path, fields: dict):
    """The JSON object in the UTF-8 file ``path``, checked by ``check_record``; raises
    ConfigError naming ``path`` when the file does not decode or parse."""
    with open(path, encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        # Undecodable bytes, bad syntax, an int past 4300 digits, or nesting too deep.
        except (ValueError, RecursionError) as err:
            raise ConfigError(f"{path}: not a JSON file ({err})") from None
    check_record(record, fields, str(path))
    return record


def check_fields(config):
    """``check_interval`` on each field that ``type(config).INTERVALS`` declares, in order."""
    for name, interval in type(config).INTERVALS.items():
        check_interval(name, getattr(config, name), interval)


# The rows of one decode call: sample's --n, search.M and search.n_sim.
ROWS_INTERVAL = "[1, 2**20]"


@dataclass(frozen=True)
class FragmentConfig:
    """Sequence length and block size; length must be a multiple of block."""

    length: int
    block: int
    # A decode call holds rows x L x d and rows x K x V arrays of 8 bytes, rows in
    # ROWS_INTERVAL: <= 2**59 bytes for d <= 2**16 (train.dim), and 2**39 x V.
    # Training's largest, d x L x 2L x 8, is 2**60.
    INTERVALS = {"length": "[2, 2**20]", "block": "[1, 2**16]"}

    def __post_init__(self):
        check_fields(self)
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

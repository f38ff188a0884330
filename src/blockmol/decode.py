"""Block-sequential any-order decoding.

Blocks are resolved left to right; inside a block, each predictor call
commits the most confident position-token pair of every row that still
holds a MASK.  The decoder keeps no diffusion clock: the predictor is
time-independent, and such a model's output depends only on the order in
which tokens are unmasked, never on when (Zheng et al. 2024), so nothing
would read the time that ``first_hitting_step`` advances.  Sample mode's
token draws are keyed by (seed, sequence index, block, step), so
trajectories do not depend on how sequences are batched.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from . import diffusion
from .chem import _FNV_PRIME, Vocab, fnv1a64, try_parse
from .fragment import BlockTensor, FragmentConfig, TooLong, reassemble

log = logging.getLogger(__name__)


class ZeroMasked(ValueError):
    pass


class BudgetExhausted(RuntimeError):
    def __init__(self, needed: int, budget: int, block: int):
        super().__init__(
            f"block {block} needs {needed} predictor calls but the budget is {budget}")
        self.needed = needed
        self.budget = budget
        self.block = block


_U64 = (1 << 64) - 1


def _avalanche(h: int) -> int:
    # splitmix64 finalizer: FNV alone leaves high bits structured on the
    # short sequential keys used here, which skews the uniforms.
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9 & _U64
    h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _U64
    return h ^ (h >> 31)


def key_uniform(*parts: int) -> float:
    """Deterministic uniform in (0, 1) from an integer key tuple."""
    data = b",".join(str(int(p)).encode() for p in parts)
    return max(_avalanche(fnv1a64(data)) >> 11, 1) * 2.0**-53


def lane_keys(seed: int, lanes: np.ndarray) -> np.ndarray:
    """FNV-1a state of each lane's key prefix ``seed,lane``, as uint64."""
    return np.array([fnv1a64(f"{int(seed)},{int(lane)}".encode()) for lane in lanes],
                    dtype=np.uint64)


def _extend(keys: np.ndarray, data: bytes) -> np.ndarray:
    # FNV-1a is streaming: a lane's state continues over further key bytes.
    h = keys.copy()
    for byte in data:
        h ^= np.uint64(byte)
        h *= np.uint64(_FNV_PRIME)
    return h


def lane_uniforms(keys: np.ndarray, *parts: int) -> np.ndarray:
    """``key_uniform(seed, lane, *parts)`` for every lane state in ``keys``
    (of any shape, from ``lane_keys`` or ``step_keys``).

    Each state continues over the ``,part,...`` suffix the lanes share; the
    finalizer then runs in numpy's wrapping uint64 arithmetic.
    """
    h = _extend(keys, b"".join(b"," + str(int(p)).encode() for p in parts))
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return np.maximum(h >> np.uint64(11), np.uint64(1)).astype(np.float64) * 2.0**-53


def step_keys(keys: np.ndarray, b: int, steps: int) -> np.ndarray:
    """FNV-1a states of ``seed,lane,b,step`` for each lane of ``lane_keys``
    and each step below ``steps``, as (lanes, steps)."""
    h = np.repeat(_extend(keys, f",{b},".encode())[:, None], steps, axis=1)
    lo = 0
    while lo < steps:  # the steps with as many digits continue together
        hi = min(steps, 10 * lo or 10)
        for digit in np.array([list(str(s).encode()) for s in range(lo, hi)], np.uint64).T:
            h[:, lo:hi] ^= digit
            h[:, lo:hi] *= np.uint64(_FNV_PRIME)
        lo = hi
    return h


def first_hitting_step(t: float, m: int, u: float) -> float:
    """Next unmasking time given m masked positions: t * u^(1/m).

    u^(1/m) is distributed as the maximum of m uniforms, so one draw skips
    straight to the first of the m scheduled reveal events.
    """
    if m < 1:
        raise ZeroMasked(f"m={m}: no masked positions remain")
    if not 0.0 < t <= 1.0:
        raise diffusion.OutOfRange(f"t={t} outside (0, 1]")
    if not 0.0 < u < 1.0:
        raise diffusion.OutOfRange(f"u={u} outside (0, 1)")
    return t * u ** (1.0 / m)


def gcd_select(probs: np.ndarray,
               masked: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy confidence choice over blocks of shape (..., K, V), masks (..., K).

    Returns (positions, tokens, confidences), each of shape (...), maximizing
    the row-max probability over masked rows; ties break toward the lowest
    position, then the lowest token id (argmax picks the first maximum).
    """
    if not masked.any(axis=-1).all():
        raise ZeroMasked("no masked positions in block")
    conf = np.where(masked, probs.max(axis=-1), -1.0)
    j = conf.argmax(axis=-1)
    K, V = probs.shape[-2:]
    top = probs.reshape(-1, V)[np.arange(j.size) * K + j.ravel()]  # chosen rows
    v = top.argmax(axis=-1)
    conf = top[np.arange(j.size), v]
    return j, v.reshape(j.shape), conf.reshape(j.shape)


@dataclass(frozen=True)
class DecodeConfig:
    block: int = 8
    length: int = 72
    budget: int = 128  # predictor-call cap per sequence per block
    temperature: float = 1.0
    nucleus_p: float = 1.0
    mode: str = "confidence"  # or "sample": token drawn from the adjusted row
    seed: int = 0

    def __post_init__(self):
        if self.length % self.block:
            raise diffusion.OutOfRange(
                f"length {self.length} not divisible by block {self.block}")
        if self.budget < 1:
            raise diffusion.OutOfRange("budget must be >= 1")
        if self.temperature <= 0.0 or not 0.0 < self.nucleus_p <= 1.0:
            raise diffusion.OutOfRange("need temperature > 0 and nucleus_p in (0, 1]")
        if self.mode not in ("confidence", "sample"):
            raise diffusion.OutOfRange(f"unknown mode {self.mode!r}")

    @property
    def fragment(self) -> FragmentConfig:
        return FragmentConfig(self.length, self.block)


@dataclass
class DecodeState:
    ids: np.ndarray  # (N, L)
    done: np.ndarray  # (N,) bool
    protect: int  # positions below this are never masked, in every row
    finish_block: np.ndarray  # (N,) block index at EOS, -1 while running


@dataclass(frozen=True)
class GenRecord:
    tokens: tuple
    smiles: str
    completed: bool
    block_count: int


class Decoder:
    """Runs block decoding for a fixed predictor, config, and vocabulary."""

    def __init__(self, params: diffusion.PredictorParams, cfg: DecodeConfig, vocab: Vocab):
        if params.vocab_size != len(vocab):
            raise diffusion.VocabMismatch(
                f"predictor has {params.vocab_size} tokens, vocab has {len(vocab)}")
        self.params = params
        self.cfg = cfg
        self.vocab = vocab

    # -- state construction

    def fresh_state(self, n: int, prefix: list | None = None) -> DecodeState:
        L = self.cfg.length
        prefix_ids = self.vocab.encode(prefix) if prefix else []
        if len(prefix_ids) > L - 2:
            raise TooLong(f"prefix of {len(prefix_ids)} tokens exceeds capacity {L - 2}")
        ids = np.full((n, L), Vocab.PAD_ID, dtype=np.int64)
        ids[:, 0] = Vocab.BOS_ID
        if prefix_ids:
            ids[:, 1 : 1 + len(prefix_ids)] = prefix_ids
        return DecodeState(
            ids=ids,
            done=np.zeros(n, dtype=bool),
            protect=1 + len(prefix_ids),
            finish_block=np.full(n, -1, dtype=np.int64),
        )

    def state_from_rows(self, rows: np.ndarray, protect: int) -> DecodeState:
        done = (rows == Vocab.EOS_ID).any(axis=1)
        return DecodeState(
            ids=rows.copy(),
            done=done,
            protect=protect,
            finish_block=np.where(done, 0, -1).astype(np.int64),
        )

    # -- core block step

    def decode_block(self, state: DecodeState, b: int, row_offset: int = 0):
        """Resolve every masked position of block b across the batch.

        Raises BudgetExhausted before touching the state when any live
        sequence would need more predictor calls than the per-block budget.
        ``row_offset`` shifts the rng key so different batches never share
        lanes accidentally.
        """
        cfg = self.cfg
        K = cfg.block
        hi = (b + 1) * K
        start = max(1, b * K, state.protect)
        steps = hi - start
        if steps <= 0 or state.done.all():
            return
        if steps > cfg.budget:
            raise BudgetExhausted(steps, cfg.budget, b)
        block = state.ids[:, b * K : hi]  # a view: commits land in state.ids
        state.ids[~state.done, start:hi] = Vocab.MASK_ID
        # Built once per block: the offset gains of the block's positions over
        # the whole prefix and, in sample mode, every step's draw uniforms.
        if cfg.mode == "sample":
            pending = np.nonzero((block == Vocab.MASK_ID).any(axis=1))[0]
            u_draw = np.zeros((block.shape[0], steps))
            u_draw[pending] = lane_uniforms(
                step_keys(lane_keys(cfg.seed, row_offset + pending), b, steps), 0xD0)
        positions = np.arange(hi)
        active = np.arange(b * K, hi)
        gain = diffusion.offset_gains(self.params, positions, active)
        for step in range(steps):
            masked = block == Vocab.MASK_ID
            rows = np.nonzero(masked.any(axis=1))[0]
            if rows.shape[0] == 0:
                break
            probs = diffusion.predict(
                self.params, state.ids[rows, :hi], positions, active,
                temperature=cfg.temperature, nucleus_p=cfg.nucleus_p, gain=gain)
            # Absorbing-state convention: the decoder never commits MASK itself,
            # otherwise a masked slot could survive its own reveal step.
            probs[:, :, Vocab.MASK_ID] = 0.0
            j, v, conf = gcd_select(probs, masked[rows])
            if cfg.mode == "sample":
                # Inverse CDF of each chosen row; on a nondecreasing row the
                # count of entries <= u is searchsorted(side="right").
                top = probs[np.arange(rows.shape[0]), j]
                mass = top.sum(axis=1, keepdims=True)
                csum = np.cumsum(top / np.where(mass > 0.0, mass, 1.0), axis=1)
                u = u_draw[rows, step][:, None]
                v = np.minimum((csum <= u).sum(axis=1), top.shape[1] - 1)
            # A row whose nucleus kept only MASK has nothing to commit: it ends.
            v[conf == 0.0] = Vocab.EOS_ID
            block[rows, j] = v
            for n in rows[v == Vocab.EOS_ID]:
                self._finish(state, n, b)

    @staticmethod
    def _finish(state: DecodeState, n: int, b: int):
        # Freeze the row: leftover masks become EOS, and everything from the
        # first EOS onward is EOS, so reassembly sees a single clean tail.
        row = state.ids[n]
        row[row == Vocab.MASK_ID] = Vocab.EOS_ID
        first = int(np.argmax(row == Vocab.EOS_ID))
        row[first:] = Vocab.EOS_ID
        state.done[n] = True
        state.finish_block[n] = b

    # -- whole-sequence decoding

    def run_blocks(self, state: DecodeState, first_block: int, last_block: int,
                   row_offset: int = 0):
        for b in range(first_block, last_block):
            if state.done.all():
                break
            self.decode_block(state, b, row_offset=row_offset)

    def generate(self, n: int, prefix: list | None = None) -> list[GenRecord]:
        """Decode n sequences; returns [] when the block budget is exhausted.

        With a prefix, decoding starts at the first block containing a masked
        position and the prefix tokens are never altered.
        """
        state = self.fresh_state(n, prefix)
        b0 = state.protect // self.cfg.block
        try:
            self.run_blocks(state, b0, self.cfg.fragment.num_blocks)
        except BudgetExhausted as err:
            log.warning("decode aborted: %s", err)
            return []
        return self.records(state)

    def records(self, state: DecodeState) -> list[GenRecord]:
        out = []
        frag = self.cfg.fragment
        for n in range(state.ids.shape[0]):
            tokens = reassemble(BlockTensor(state.ids[n], frag), self.vocab)
            blocks = int(state.finish_block[n]) + 1 if state.done[n] else frag.num_blocks
            out.append(GenRecord(
                tokens=tuple(tokens),
                smiles="".join(tokens),
                completed=bool(state.done[n]),
                block_count=blocks,
            ))
        return out


def write_jsonl(records: list[GenRecord], fh, seed: int):
    """One JSON object per molecule: smiles, validity, block count, seed."""
    for rec in records:
        mol, _ = try_parse(rec.smiles)
        fh.write(json.dumps({
            "smiles": rec.smiles,
            "valid": mol is not None,
            "block_count": rec.block_count,
            "seed": seed,
        }) + "\n")

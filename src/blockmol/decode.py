"""Block-sequential any-order decoding.

Blocks are resolved left to right; inside a block, each predictor call
commits the most confident position-token pair of every row that still
holds a MASK.  The decoder keeps no diffusion clock: the predictor is
time-independent, and such a model's output depends only on the order in
which tokens are unmasked, never on when (Zheng et al. 2024), so nothing
would read the time that ``first_hitting_step`` advances.  Sequences are
(n, L) id arrays, and a row is finished once it holds an EOS.  Sample
mode's token draws are keyed by (seed, lane, block, step), each row
carrying its own lane key, so trajectories do not depend on how sequences
are batched.

Rows with equal windows get equal predictions, so a block that starts with at
least ``GROUP_ROWS`` pending rows groups them by window and runs the predictor
and the nucleus read-off once per group: every row starts from BOS, and rows
that draw alike stay alike.  Each row still draws against its own uniform,
and a group splits by the tokens its rows draw.  A row's logits are sums of
logit-table slices in a fixed order, with no BLAS call, so its tokens do not
depend on the rows that share its call.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import diffusion
from .chem import _FNV_PRIME, TokenKind, UnknownToken, Vocab, fnv1a64, tokenize, try_parse
from .fragment import ConfigError, FragmentConfig, TooLong, check_fields, reassemble

log = logging.getLogger(__name__)


# The fewest pending rows a block groups by window.  Grouping costs two sorts a
# step: on the benchmark predictor, one block at a 24-token window ran as fast
# for 8 equal rows and 2% slower for 16 distinct ones, but 1.13x faster for 12
# rows of 2 starts and 1.25x for 16 rows of one.  Never grouping, the benchmark
# sample ran 15,130 lines/s against 19,080, and search 743 iterations/s against 778.
GROUP_ROWS = 16


class ZeroMasked(ValueError):
    pass


class BudgetExhausted(RuntimeError):
    def __init__(self, needed: int, budget: int, block: int):
        super().__init__(
            f"block {block} needs {needed} predictor calls but the budget is {budget}")
        self.needed = needed
        self.budget = budget
        self.block = block

    def __reduce__(self):  # pickled from a worker process as its constructor's args
        return BudgetExhausted, (self.needed, self.budget, self.block)


_U64 = (1 << 64) - 1


def _avalanche(h):
    # splitmix64 finalizer of an int or a uint64 array: FNV alone leaves high
    # bits structured on the short sequential keys used here, skewing the uniforms.
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

    Each state continues over the ``,part,...`` suffix the lanes share;
    ``_avalanche`` then runs in numpy's wrapping uint64 arithmetic.
    """
    h = _avalanche(_extend(keys, b"".join(b"," + str(int(p)).encode() for p in parts)))
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


def gcd_select(conf: np.ndarray, masked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy confidence choice over the confidences (..., K) of each
    position's best token, masks (..., K).  Returns (positions, confidences),
    each of shape (...), ties broken toward the lowest position."""
    if not masked.any(axis=-1).all():
        raise ZeroMasked("no masked positions in block")
    conf = np.where(masked, conf, -1.0)
    return conf.argmax(axis=-1), conf.max(axis=-1)


def _confidence(nucleus: diffusion.Nucleus) -> np.ndarray:
    """Each row's largest committable probability after truncation, read off its
    top entry and its cut: kept at or above the cut, dropped below it.  Only a
    row whose top entry is its cut, with entries equal to the cut straddling it,
    is truncated in full, as the tie rule may drop its top entry."""
    probs, keep, cut, mass, top = nucleus
    conf = top / mass
    if (top <= cut).any():
        conf[top < cut] = 0.0
        at_cut = (top == cut).nonzero()[0]
        tied = at_cut[(probs[at_cut] >= cut[at_cut, None]).sum(axis=1) > keep[at_cut]]
        if tied.size:
            truncated = diffusion.nucleus_expand(nucleus, tied)
            truncated[:, Vocab.MASK_ID] = 0.0  # no entry is below 0
            conf[tied] = truncated.max(axis=1)
    return conf


def _groups(keys: np.ndarray):
    """Each group's first index in the (n,) ``keys`` or the (n, w) rows of ``keys``,
    and each key's group, the equal keys forming one group; slices that keep
    every key its own group when no two keys are equal, since groups only ever
    split."""
    if keys.ndim == 2:  # a row compares as one opaque key
        keys = np.ascontiguousarray(keys)
        keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))
    _, first, group = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    if first.shape[0] == keys.shape[0]:
        return slice(None), slice(None)
    return first, group


def _id_tables(vocab: Vocab):
    """The tables ``_proven_invalid`` reads: each id's branch depth step, +1
    for '(' and -1 for ')', with BOS stepping down further than any row can
    open, and the bit of its ring number, as ``scan`` keys it, modulo 64.  None
    unless each body token of ``vocab`` tokenizes to itself alone, as only then
    do a row's texts, joined, tokenize back to its tokens."""
    step = np.zeros(len(vocab), dtype=np.int64)
    step[Vocab.BOS_ID] = -2**32
    bit = np.zeros(len(vocab), dtype=np.uint64)
    for i in range(Vocab.MASK_ID + 1, len(vocab)):
        text = vocab.tokens[i]
        try:  # tokenize gives back its text, so one token is the text itself
            (token,) = tokenize(text)
        except ValueError:  # a ChemError, or not one token
            return None
        if token.kind is TokenKind.BRANCH_OPEN:
            step[i] = 1
        elif token.kind is TokenKind.BRANCH_CLOSE:
            step[i] = -1
        elif token.kind is TokenKind.RING:
            bit[i] = 1 << int(text.lstrip("%")) % 64
    return step, bit


def _proven_invalid(ids: np.ndarray, tables) -> np.ndarray:
    """Which rows of (n, L) ``ids`` no parse can accept, read off the ids of each
    row's body (its tokens after a leading BOS and before the first EOS, PAD
    left out): a body that holds a BOS, closes a branch it never opened, leaves
    one open, uses a ring number an odd number of times, or holds no token.
    ``tables`` are ``_id_tables``'; with None, no row is marked.  Ring numbers
    that share a bit can only hide an odd count, never make one."""
    if tables is None:
        return np.zeros(ids.shape[0], dtype=bool)
    step, bit = tables
    body = ~np.logical_or.accumulate(ids == Vocab.EOS_ID, axis=1) & (ids != Vocab.PAD_ID)
    body[:, 0] &= ids[:, 0] != Vocab.BOS_ID
    depth = (step[ids] * body).cumsum(axis=1)
    odd = np.bitwise_xor.reduce(bit[ids] * body, axis=1)
    return ~body.any(axis=1) | (depth.min(axis=1) < 0) | (depth[:, -1] != 0) | (odd != 0)


@dataclass(frozen=True)
class DecodeConfig:  # its defaults are the CLI's sample.* and seed defaults
    block: int = 8
    length: int = 512
    budget: int = 128  # predictor-call cap per sequence per block
    temperature: float = 1.1
    nucleus_p: float = 1.0
    mode: str = "confidence"  # or "sample": token drawn from the adjusted row
    seed: int = 42
    MODES = ("confidence", "sample")
    # Below the floor, logits / temperature may overflow to inf, and softmax
    # then returns NaN rows, which decode to garbage rather than fail.
    INTERVALS = {"budget": "[1, 2**63)", "temperature": "[2**-20, inf)", "nucleus_p": "(0, 1]"}

    def __post_init__(self):
        FragmentConfig(self.length, self.block)  # checks block, length and K | L
        check_fields(self)
        if self.mode not in self.MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")

    @property
    def fragment(self) -> FragmentConfig:
        return FragmentConfig(self.length, self.block)


@dataclass(frozen=True)
class GenRecord:
    smiles: str
    completed: bool
    block_count: int
    proven_invalid: bool = False  # its ids already show that smiles does not parse


class Decoder:
    """Runs block decoding for a fixed predictor, config, and vocabulary.
    ``params`` is taken as frozen: the constants every step reads are built
    from its tables once, so a later change to them is not seen."""

    def __init__(self, params: diffusion.PredictorParams, cfg: DecodeConfig, vocab: Vocab):
        if params.vocab_size != len(vocab):
            raise diffusion.VocabMismatch(
                f"predictor has {params.vocab_size} tokens, vocab has {len(vocab)}")
        self.params = params
        self.cfg = cfg
        self.vocab = vocab
        self._id_tables = _id_tables(vocab)
        self._fragment = cfg.fragment
        # The run's counts by name, 0 for one that never happened: predicted_rows
        # and the row_steps they served, summed over steps, and judged_rows.
        self.counts = Counter()
        # The table row of each offset (target minus token) -(K - 1) to L - 1, negatives last.
        W, offsets = params.window, np.r_[0:cfg.length, 1 - cfg.block:0]
        rows = np.clip(offsets, -W, W) + W
        self._table = diffusion.logit_table(params, np.arange(rows.min(), rows.max() + 1))
        self._reads = rows - rows.min()

    def _prefix_logits(self, windows: np.ndarray, b: int, start: int) -> np.ndarray:
        """The (n, K, V) logits at block b of (n, hi) ``windows`` that show their
        tokens below ``start``.  A row adds its terms in one order: one
        ``np.add.reduce`` of the tokens more than W before the block, which
        every target reads at offset W; each nearer token by position; the bias."""
        K, W = self.cfg.block, self.params.window
        far = max(b * K - W, 0)
        logits = np.zeros((windows.shape[0], K, self.params.vocab_size))
        if far:
            logits += np.add.reduce(self._table[windows[:, :far], self._reads[W]], axis=1)[:, None]
        for k in range(far, start):
            logits += self._table[windows[:, k, None], self._reads[b * K + np.arange(K) - k]]
        return logits + self.params.bias

    # -- framing

    def frame(self, n: int, prefix: list | None = None) -> np.ndarray:
        """n rows of BOS, the prefix, then PAD; raises UnknownToken on a
        prefix token that is not a molecule's, such as a control token."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        L = self.cfg.length
        prefix_ids = self.vocab.encode(prefix) if prefix else []
        for offset, token_id in enumerate(prefix_ids):
            if token_id <= Vocab.MASK_ID:  # the four control tokens come first
                raise UnknownToken(f"prefix token {self.vocab.tokens[token_id]} at "
                                   f"offset {offset} is a control token")
        if len(prefix_ids) > L - 2:
            raise TooLong(f"prefix of {len(prefix_ids)} tokens exceeds capacity {L - 2}")
        ids = np.full((n, L), Vocab.PAD_ID, dtype=np.int64)
        ids[:, 0] = Vocab.BOS_ID
        if prefix_ids:
            ids[:, 1 : 1 + len(prefix_ids)] = prefix_ids
        return ids

    # -- core block step

    def decode_block(self, ids: np.ndarray, b: int, keys: np.ndarray | None, start: int = 1):
        """Resolve every masked position of block b in the rows of ``ids``, in
        place, never masking a position below ``start``.  ``keys`` holds each
        row's ``lane_keys`` state, which keys its sample-mode draws; confidence
        mode reads none, and takes None.

        When the block starts with at least ``GROUP_ROWS`` pending rows, rows
        with equal windows share one predictor row and its nucleus read-off;
        each row still draws, commits and ends on its own.  Otherwise each row
        is its own group.

        Raises BudgetExhausted before touching ``ids`` when any unfinished row
        would need more predictor calls than the per-block budget.
        """
        cfg = self.cfg
        K = cfg.block
        hi = (b + 1) * K
        start = max(start, b * K)
        steps = hi - start
        live = ~(ids == Vocab.EOS_ID).any(axis=1)
        if steps <= 0 or not live.any():
            return
        if steps > cfg.budget:
            raise BudgetExhausted(steps, cfg.budget, b)
        block = ids[:, b * K : hi]  # a view: commits land in ids
        ids[live, start:hi] = Vocab.MASK_ID
        masked = block == Vocab.MASK_ID
        rows = masked.any(axis=1).nonzero()[0]
        # Built once per block, in sample mode: every step's draw uniforms.
        if cfg.mode == "sample":
            u_draw = np.zeros((block.shape[0], steps))
            u_draw[rows] = lane_uniforms(step_keys(keys[rows], b, steps), 0xD0)
        first = group = slice(None)  # each row its own group
        if rows.shape[0] >= GROUP_ROWS:
            first, group = _groups(ids[rows, :hi])
        logits = np.empty(block.shape + (self.params.vocab_size,))
        logits[rows] = self._prefix_logits(ids[rows[first], :hi], b, start)[group]
        for step in range(steps):
            if rows.shape[0] == 0:
                break
            reps = rows[first]
            self.counts["predicted_rows"] += reps.shape[0]
            self.counts["row_steps"] += rows.shape[0]
            masked = masked[reps]
            nucleus = diffusion.predict(logits[reps], masked, cfg.temperature, cfg.nucleus_p)
            conf = np.zeros(masked.shape)
            conf[masked] = _confidence(nucleus)
            j, conf = gcd_select(conf, masked)
            pair = masked.cumsum() - 1  # each masked pair's row in the cut
            top = diffusion.nucleus_expand(nucleus, pair[np.arange(reps.shape[0]) * K + j])
            del nucleus  # not to be held beside the next predict call's arrays
            # Absorbing-state convention: the decoder never commits MASK itself,
            # otherwise a masked slot could survive its own reveal step.
            top[:, Vocab.MASK_ID] = 0.0
            if cfg.mode == "sample":
                # Inverse CDF of each chosen row: its running sum never falls,
                # so the count of entries <= u is the index of the first above u.
                mass = np.add.reduce(top, axis=1, keepdims=True)
                np.divide(top, mass, out=top, where=mass > 0.0)
                above = top.cumsum(axis=1)[group] > u_draw[rows, step][:, None]
                above[:, -1] = True
                v = above.argmax(axis=1)
            else:
                v = top.argmax(axis=1)[group]
            # A row whose nucleus kept only MASK has nothing to commit: it ends.
            v[conf[group] == 0.0] = Vocab.EOS_ID
            block[rows, j[group]] = v
            logits[rows] += self._table[v[:, None], self._reads[np.arange(K) - j[group, None]]]
            ended = rows[v == Vocab.EOS_ID]
            if ended.shape[0]:  # EOS from the first MASK or EOS on: one clean tail
                tail = ids[ended]
                over = np.logical_or.accumulate(
                    (tail == Vocab.MASK_ID) | (tail == Vocab.EOS_ID), axis=1)
                ids[ended] = np.where(over, Vocab.EOS_ID, tail)
            masked = block == Vocab.MASK_ID
            pending = masked.any(axis=1)
            if isinstance(group, np.ndarray):  # a group splits by the token its rows drew
                first, group = _groups((group * len(self.vocab) + v)[pending[rows]])
            rows = pending.nonzero()[0]

    # -- whole-sequence decoding

    def run_blocks(self, ids: np.ndarray, first_block: int, last_block: int,
                   keys: np.ndarray | None, start: int = 1):
        for b in range(first_block, last_block):
            if (ids == Vocab.EOS_ID).any(axis=1).all():
                break
            self.decode_block(ids, b, keys, start)

    def generate(self, n: int, prefix: list | None = None,
                 first_lane: int = 0) -> list[GenRecord]:
        """``decode``'s records, or [] when the block budget is exhausted."""
        try:
            return self.decode(n, prefix, first_lane)
        except BudgetExhausted as err:
            log_abort(err)
            return []

    def decode(self, n: int, prefix: list | None = None,
               first_lane: int = 0) -> list[GenRecord]:
        """Decode n sequences; raises BudgetExhausted when a block needs more
        predictor calls than the budget.

        With a prefix, decoding starts at the first block containing a masked
        position and the prefix tokens are never altered.  Row i draws with
        lane ``first_lane + i`` of the configured seed, so consecutive chunks
        of rows, each decoded with its first row's lane, give the whole
        batch's records.
        """
        ids = self.frame(n, prefix)
        start = 1 + len(prefix or ())
        lanes = np.arange(first_lane, first_lane + n)  # confidence mode draws nothing
        keys = lane_keys(self.cfg.seed, lanes) if self.cfg.mode == "sample" else None
        self.run_blocks(ids, start // self.cfg.block, self._fragment.num_blocks, keys, start)
        return self.records(ids)

    def records(self, ids: np.ndarray) -> list[GenRecord]:
        """One record per row, rows with equal ids sharing one; a row is
        completed when it holds an EOS, and its block count then runs to the
        block of its first EOS, which is the block where it finished: the
        prefix holds no control token.  Counts the rows whose ids prove them
        invalid as ``judged_rows``."""
        frag = self._fragment
        first, group = _groups(ids)
        ids = ids[first]
        eos = ids == Vocab.EOS_ID
        done = eos.any(axis=1)
        ends = np.argmax(eos, axis=1) // frag.block + 1
        invalid = _proven_invalid(ids, self._id_tables)
        self.counts["judged_rows"] += int(np.count_nonzero(invalid[group]))
        out = []
        for n in range(ids.shape[0]):
            out.append(GenRecord("".join(reassemble(ids[n], self.vocab)), bool(done[n]),
                                 int(ends[n]) if done[n] else frag.num_blocks,
                                 bool(invalid[n])))
        return out if isinstance(group, slice) else [out[k] for k in group.tolist()]


def log_abort(err: BudgetExhausted):
    log.warning("decode aborted: %s", err)


def write_jsonl(records: list[GenRecord], fh, seed: int) -> int:
    """One JSON object per molecule: smiles, validity, completed, block count,
    seed.  Returns how many SMILES it parsed: at most one parse per distinct
    SMILES, and none for a record whose ids prove it invalid."""
    valid: dict[str, bool] = {}
    parsed = 0
    for rec in records:
        if rec.smiles not in valid:
            parsed += not rec.proven_invalid
            valid[rec.smiles] = not rec.proven_invalid and try_parse(rec.smiles)[1] is None
        fh.write(json.dumps({
            "smiles": rec.smiles,
            "valid": valid[rec.smiles],
            "completed": rec.completed,
            "block_count": rec.block_count,
            "seed": seed,
        }) + "\n")
    return parsed

"""Masked discrete diffusion over token blocks: schedule, training mask, predictor, loss.

The denoiser here is a small reference model, not a Transformer: each
position pools the embeddings of visible tokens, modulated by a learned
relative-offset gain, and projects to vocabulary logits.  It is cheap,
fully deterministic, and differentiable in closed form, which keeps the
training loop and its gradient checkable against finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .chem import Vocab
from .fragment import ConfigError, FragmentConfig, check_interval, check_record

T_CLIP = 1e-4


class OutOfRange(ValueError):
    pass


class EmptyCorpus(ValueError):
    pass


class VocabMismatch(ValueError):
    pass


# --- noise schedule ----------------------------------------------------------


def _check_times(t):
    a = np.asarray(t)
    if not np.all((0.0 < a) & (a <= 1.0)):
        raise OutOfRange(f"t={t} outside (0, 1]")


def nelbo_weight(t) -> np.ndarray:
    """NELBO weight of each diffusion time t in (0, 1].

    The schedule is alpha(t) = 1 - t, so the weight -alpha'/(1-alpha) is 1/t;
    it is clipped at t >= T_CLIP to keep weights finite.
    """
    _check_times(t)
    return 1.0 / np.maximum(t, T_CLIP)


def draw_block_times(num_blocks: int, rng: np.random.Generator) -> np.ndarray:
    """Per-block diffusion times in [T_CLIP, 1]."""
    return np.clip(rng.uniform(0.0, 1.0, num_blocks), T_CLIP, 1.0)


@lru_cache(maxsize=8)
def _partition(L: int, B: int) -> FragmentConfig:
    """The block partition of L ids under B block times, built once per layout."""
    if not B or L % B:
        raise ConfigError(f"{B} block times do not divide length {L}")
    return FragmentConfig(L, L // B)


def draw_noise(ids: np.ndarray, ts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Forward masking of (..., L) ids under (..., B) block times: each
    position becomes MASK independently with probability 1 - alpha(t_b) = t_b
    of its block b.  Rows draw their uniforms in order, so one (n, L) call
    consumes the stream as n (L,) calls do."""
    _check_times(ts)
    block = _partition(np.shape(ids)[-1], np.shape(ts)[-1]).block
    noised = ids.copy()
    noised[rng.random(ids.shape) < np.repeat(ts, block, axis=-1)] = Vocab.MASK_ID
    return noised


def build_train_mask(cfg: FragmentConfig) -> np.ndarray:
    """Training mask (uint8, 1 = may attend) over the concatenation
    [noised x_t (L) ; clean x (L)].

    Row i may attend column j when:
      * both in x_t and in the same block (block-diagonal quadrant),
      * i in x_t, j clean, and j's block strictly precedes i's,
      * both clean and j's block is at or before i's block.
    Clean rows never attend noised columns.
    """
    L, K = cfg.length, cfg.block
    blk = np.arange(L) // K
    same = blk[:, None] == blk[None, :]
    before = blk[None, :] < blk[:, None]
    at_or_before = blk[None, :] <= blk[:, None]
    m = np.zeros((2 * L, 2 * L), dtype=np.uint8)
    m[:L, :L] = same
    m[:L, L:] = before
    m[L:, L:] = at_or_before
    return m


# --- reference predictor -------------------------------------------------------


@dataclass
class PredictorParams:
    """Embedding table (V,d), relative-offset gains (2W+1,d), output (d,V), bias (V,)."""

    embeddings: np.ndarray
    gains: np.ndarray
    out: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        v, d = self.embeddings.shape
        if self.gains.ndim != 2 or self.gains.shape[1] != d or self.gains.shape[0] % 2 != 1:
            raise ValueError("gains must have shape (2W+1, d)")
        if self.out.shape != (d, v) or self.bias.shape != (v,):
            raise ValueError("output projection/bias shapes inconsistent")

    @property
    def vocab_size(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def window(self) -> int:
        return (self.gains.shape[0] - 1) // 2

    @classmethod
    def zeros(cls, vocab_size: int, dim: int, window: int) -> "PredictorParams":
        return cls(np.zeros((vocab_size, dim)), np.zeros((2 * window + 1, dim)),
                   np.zeros((dim, vocab_size)), np.zeros(vocab_size))

    @classmethod
    def init(cls, vocab_size: int, dim: int, window: int, seed: int,
             scale: float = 0.1) -> "PredictorParams":
        rng = np.random.default_rng(seed)
        return cls(
            rng.normal(0.0, scale, (vocab_size, dim)),
            rng.normal(0.0, scale, (2 * window + 1, dim)),
            rng.normal(0.0, scale, (dim, vocab_size)),
            np.zeros(vocab_size),
        )

    def tables(self) -> tuple:
        """The four tables, in the order the constructor takes them."""
        return self.embeddings, self.gains, self.out, self.bias

    def copy(self) -> "PredictorParams":
        return PredictorParams(*(table.copy() for table in self.tables()))


def offset_gains(params: PredictorParams, positions: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
    """G[pos(targets[j]) - pos(k)], laid out (d, J, S) for ``_pooled``'s matmul."""
    W = params.window
    rel = np.clip(positions[targets][:, None] - positions[None, :], -W, W) + W  # (J, S)
    return params.gains[rel].transpose(2, 0, 1)


def visible_table(params: PredictorParams) -> np.ndarray:
    """The (V, d) embedding table with MASK's row zeroed: gathered at a window's
    tokens, it gives E[x[n, k]], zero where the token is MASK, the values that
    scaling the gathered (N, S, d) columns would, for one (V, d) multiply."""
    vis = (np.arange(params.vocab_size) != Vocab.MASK_ID).astype(np.float64)
    return params.embeddings * vis[:, None]


def _pooled(windows: np.ndarray, gain: np.ndarray, table: np.ndarray) -> np.ndarray:
    """h[n, j] = sum_k visible(n, k) * E[x[n, k]] * G[pos(targets[j]) - pos(k)].

    ``windows``: (N, S) token ids; MASK positions contribute nothing.
    ``gain`` and ``table`` are ``offset_gains`` and ``visible_table``.
    """
    emb = table[windows]  # (N, S, d)
    # The batched matmul that einsum("nsd,jsd->njd", optimize=True) plans,
    # without the planning: same sums, same (d, J, N) memory layout, so the
    # projection below rounds the same way too.
    h = np.matmul(gain, emb.transpose(2, 1, 0)).transpose(2, 1, 0)
    # With one window column there is nothing to sum and einsum multiplies
    # into a C-ordered array instead.
    return np.ascontiguousarray(h) if windows.shape[1] == 1 else h


def _softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Softmax of logits / temperature over the last axis, in place in ``logits``."""
    if temperature != 1.0:
        logits /= temperature
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


class Nucleus(NamedTuple):
    """The nucleus cut of (M, V) rows ``probs``: each keeps ``keep`` entries, the
    smallest ``cut`` (equal ones may straddle it), renormalized by their sum ``mass``.
    ``top`` is each row's largest entry outside MASK's column, before the cut."""
    probs: np.ndarray
    keep: np.ndarray
    cut: np.ndarray
    mass: np.ndarray
    top: np.ndarray


def nucleus_cut(probs: np.ndarray, p: float) -> Nucleus:
    """Each row's smallest descending-probability set with cumulative mass >= p.
    At p = 1 every entry is kept with mass 1, so the rows expand to themselves."""
    check_interval("nucleus p", p, "(0, 1]")
    n, width = probs.shape
    if p == 1.0:  # nothing is sorted, so the top entries take a pass of their own
        top = np.maximum.reduce(probs, axis=1, initial=0.0,
                                where=np.arange(width) != Vocab.MASK_ID)
        return Nucleus(probs, np.full(n, width), np.zeros(n), np.ones(n), top)
    rows = np.arange(n)
    ranked = np.sort(probs, axis=1)[:, ::-1]  # tie order cannot change the values
    # The largest entry outside MASK's column ranks first, or second where MASK's
    # entry ranks first; an entry tied with MASK's ranks second with its value.
    top = ranked[:, 0]
    if width > Vocab.MASK_ID:
        top = np.where(probs[:, Vocab.MASK_ID] == top, ranked[:, 1], top)
    csum = ranked.cumsum(axis=1)
    short = csum < p  # the sums never fall: the last kept one is the first to reach p
    short[:, -1] = False
    last = short.argmin(axis=1)
    keep = last + 1
    # numpy sums fewer than 8 entries left to right, as cumsum does, and
    # more pairwise: those rows are summed by numpy, grouped by count.
    mass = csum[rows, last]
    for k in set(keep[keep >= 8].tolist()):
        group = np.nonzero(keep == k)[0]
        mass[group] = ranked[group, :k].sum(axis=1)
    return Nucleus(probs, keep, ranked[rows, last], mass, top)


def nucleus_expand(nucleus: Nucleus, rows=slice(None)) -> np.ndarray:
    """The truncated distributions of the given rows of a cut: each kept entry
    over the kept mass, every other 0.  Ties at the cut go to lower token ids."""
    probs, keep = nucleus.probs[rows], nucleus.keep[rows]
    kept = probs >= nucleus.cut[rows, None]
    tied = np.nonzero(kept.sum(axis=1) > keep)[0]  # equal entries straddle the cut
    if tied.size:
        order = np.argsort(-probs[tied], axis=1, kind="stable")
        kept[tied[:, None], order] = np.arange(probs.shape[1]) < keep[tied, None]
    return np.where(kept, probs / nucleus.mass[rows, None], 0.0)


def nucleus_truncate(probs: np.ndarray, p: float) -> np.ndarray:
    """Keep the smallest descending-probability set with cumulative mass >= p,
    then renormalize by its numpy sum.  Ties are broken toward lower token ids."""
    flat = probs.reshape(-1, probs.shape[-1])
    return nucleus_expand(nucleus_cut(flat, p)).reshape(probs.shape)


def predict(params: PredictorParams, windows: np.ndarray, gain: np.ndarray,
            table: np.ndarray, masked: np.ndarray, temperature: float = 1.0,
            nucleus_p: float = 1.0) -> Nucleus:
    """The ``nucleus_cut`` of the token distributions at the (N, J) bool ``masked``
    pairs of (N, S) ``windows``, given the window's ``offset_gains`` for its J
    target columns and ``visible_table(params)``.  This reference model is
    time-independent, so it takes no diffusion time."""
    if temperature <= 0.0:
        raise OutOfRange(f"temperature {temperature} must be positive")
    # No name holds the pooled (N, J, d) states, so they are freed once projected,
    # nor the (N, J, V) logits, freed once gathered.  The bias is added per entry,
    # so adding it after the gather gives the same bits for fewer adds.
    logits = (_pooled(windows, gain, table) @ params.out)[masked] + params.bias
    return nucleus_cut(_softmax(logits, temperature), nucleus_p)


# --- NELBO --------------------------------------------------------------------


@dataclass(frozen=True)
class LossReport:
    nelbo: float
    per_block: np.ndarray


class _TrainLayout(NamedTuple):
    offset: np.ndarray  # (L, 2L) gain row per noised row and column; 2W+1 = hidden
    grouped: np.ndarray  # flat (row, column) indices of the visible pairs, by gain row
    starts: np.ndarray  # where each non-empty group of ``grouped`` starts
    present: np.ndarray  # the gain row of each such group


@lru_cache(maxsize=4)
def _train_layout(cfg: FragmentConfig, window: int) -> _TrainLayout:
    """Constants of the training pass that depend only on (L, K, W), read-only.

    Each noised row reads, for each window column, the gain row of their
    clipped offset, or the extra zero row 2W+1 where the training mask hides
    the column.  The groups fold the (L, 2L) gain gradient back into the
    table with one reduceat, and no per-row scatter.
    """
    L, rows = cfg.length, 2 * window + 1
    positions = np.concatenate([np.arange(L), np.arange(L)])  # of the window [x_t ; x]
    rel = np.clip(positions[:L, None] - positions[None, :], -window, window) + window
    offset = np.where(build_train_mask(cfg)[:L] == 1, rel, rows)
    flat = offset.ravel()
    grouped = np.argsort(flat, kind="stable")[:np.count_nonzero(flat < rows)]
    present, starts = np.unique(flat[grouped], return_index=True)
    layout = _TrainLayout(offset, grouped, starts, present)
    for table in layout:
        table.setflags(write=False)
    return layout


def loss_gradient(params: PredictorParams, ids: np.ndarray, ts: np.ndarray,
                  noised: np.ndarray) -> tuple[list[LossReport], PredictorParams]:
    """The blockwise NELBO of each of n examples, and the closed-form gradient
    of their sum with respect to every table, from one forward and one
    backward pass.

    ``ids`` (n, L), ``ts`` (n, B) and ``noised`` (n, L) hold one row per
    example.  An example's NELBO is sum_b weight(t_b) * CE(true tokens at
    masked slots of b): every noised row attends, under the training mask,
    the visible tokens of its own block and the clean tokens of the blocks
    before it.  The gradient comes as a PredictorParams of the same shapes.
    For masked position j with weight w and true token y:
      dL/dlogits_j = w * (softmax(logits_j) - onehot(y))
    and the chain rule pushes that through out, bias, gains, embeddings.
    """
    cfg = _partition(ids.shape[1], ts.shape[1])
    (n, L), B = ids.shape, cfg.num_blocks
    d, V = params.dim, params.vocab_size
    layout = _train_layout(cfg, params.window)
    visible = visible_table(params)
    concat = np.concatenate([noised, ids], axis=1)  # (n, 2L)
    # The offset gains under the training mask, laid out (d, L, 2L).
    table = np.vstack([params.gains, np.zeros(d)]).T
    gain = np.take(table, layout.offset, axis=1)
    # One matmul per example: numpy takes another BLAS routine for one column
    # than for several, so a batched call would round an example's NELBO
    # differently from a call on that example alone.
    h = np.concatenate([_pooled(row[None], gain, visible) for row in concat])  # (n, L, d)
    probs = _softmax(h @ params.out + params.bias)

    weights = nelbo_weight(ts)  # (n, B)
    masked = noised == Vocab.MASK_ID
    row_weight = np.where(masked, np.repeat(weights, cfg.block, axis=1), 0.0)
    picked = np.take_along_axis(probs, ids[:, :, None], axis=2)[:, :, 0]
    logp = np.log(np.where(masked, picked, 1.0)).reshape(n, B, cfg.block)
    per_block = -weights * logp.sum(axis=2)
    reports = [LossReport(float(pb.sum()), pb) for pb in per_block]
    dlogits = (probs * row_weight[:, :, None]).reshape(n * L, V)
    dlogits[np.arange(n * L), ids.ravel()] -= row_weight.ravel()

    g_out = h.reshape(n * L, d).T @ dlogits
    g_bias = dlogits.sum(axis=0)
    dh = (dlogits @ params.out.T).reshape(n, L, d).transpose(2, 1, 0)  # (d, L, n)
    emb = visible[concat]  # (n, 2L, d)
    # h = gain @ emb per dimension, so each factor's gradient is one batched
    # matmul summed over target rows or over examples: 2L rows per example
    # reach the embedding table, and the layout's groups fold the (L, 2L)
    # gain gradient into the 2W+1 gain rows.
    d_emb = np.matmul(gain.transpose(0, 2, 1), dh)  # (d, 2L, n)
    g_emb = np.zeros_like(params.embeddings)
    np.add.at(g_emb, concat.ravel(), d_emb.transpose(2, 1, 0).reshape(-1, d))
    g_emb[Vocab.MASK_ID] = 0.0  # MASK columns are invisible
    d_gain = np.matmul(dh, emb.transpose(2, 0, 1)).reshape(d, -1)  # (d, L * 2L)
    g_gain = np.zeros_like(params.gains)
    g_gain[layout.present] = np.add.reduceat(d_gain[:, layout.grouped], layout.starts,
                                             axis=1).T
    return reports, PredictorParams(g_emb, g_gain, g_out, g_bias)


# --- training -----------------------------------------------------------------


GRAD_CLIP = 8.0


def _apply_update(params: PredictorParams, grads: PredictorParams, count: int,
                  lr: float, clip: float):
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.tables())) / count
    scale = (lr / count) * min(1.0, clip / norm) if norm > 0 else 0.0
    for table, g in zip(params.tables(), grads.tables()):
        table -= scale * g


def train(params: PredictorParams, corpus: np.ndarray, block: int, epochs: int,
          lr: float, seed: int, clip: float = GRAD_CLIP) -> tuple[PredictorParams, list[float]]:
    """SGD with constant step size over antithetic-pair NELBO gradients.

    ``corpus`` holds one framed (L,) example per row, split into blocks of
    ``block`` tokens.  Examples are reshuffled each epoch; consecutive
    examples share mirrored (antithetic) per-block diffusion times, and each
    update averages the gradient over one such pair, from one batched
    ``loss_gradient`` call, so the mirrored 1/t weights actually cancel.  An
    odd corpus ends each epoch with a one-example update.
    The averaged gradient is rescaled to global norm <= clip before applying:
    the loss weight can still reach 1e4 near the clip floor, and one such
    draw at full step size is enough to blow up every table.  Both devices
    are stateless, so a fixed seed means bit-identical parameters.  Returns
    (trained copy, per-epoch mean NELBO).  Training stops at the first
    non-finite NELBO, whose epoch's non-finite mean then ends the history.
    """
    if not len(corpus):
        raise EmptyCorpus("no training examples")
    num_blocks = FragmentConfig(corpus.shape[1], block).num_blocks
    params = params.copy()
    rng = np.random.default_rng(seed)
    history: list[float] = []
    for _ in range(epochs):
        order = rng.permutation(len(corpus))
        total = 0.0
        for start in range(0, len(order), 2):
            ids = corpus[order[start:start + 2]]
            ts = draw_block_times(num_blocks, rng)  # the second member mirrors it
            ts = np.stack([ts, np.clip(1.0 - ts, T_CLIP, 1.0)])[:len(ids)]
            reports, grads = loss_gradient(params, ids, ts, draw_noise(ids, ts, rng))
            for report in reports:
                total += report.nelbo
            if not math.isfinite(total):  # diverged: stop before the next step
                return params, history + [total / len(corpus)]
            _apply_update(params, grads, len(ids), lr, clip)
        history.append(total / len(corpus))
    return params, history


# --- checkpoints ---------------------------------------------------------------

CHECKPOINT_VERSION = 1
# The checkpoint's scalar fields and vocabulary: key -> (JSON type, interval or None).
_CHECKPOINT_FIELDS = {"vocab": (list, None), "vocab_hash": (str, None), "seed": (int, None),
                      "dim": (int, "[1, 2**63)"), "window": (int, "[0, 2**63)")}


def _require_finite(params: PredictorParams):
    for name in ("embeddings", "gains", "out", "bias"):
        if not np.isfinite(getattr(params, name)).all():
            raise ValueError(f"checkpoint table {name} holds non-finite values")


def save_checkpoint(path, params: PredictorParams, vocab: Vocab, seed: int):
    """Writes the tables as JSON; raises ValueError, writing nothing, if any
    entry is non-finite."""
    _require_finite(params)
    record = {
        "version": CHECKPOINT_VERSION,
        "vocab": list(vocab.tokens),
        "vocab_hash": vocab.content_hash(),
        "dim": params.dim,
        "window": params.window,
        "embeddings": params.embeddings.ravel().tolist(),
        "gains": params.gains.ravel().tolist(),
        "out": params.out.ravel().tolist(),
        "bias": params.bias.tolist(),
        "seed": seed,
    }
    with open(path, "w") as fh:
        json.dump(record, fh)


def load_checkpoint(path, vocab: Vocab | None = None):
    """Returns (params, vocab, seed); verifies the stored vocabulary hash and
    raises ValueError on a non-finite table entry, or naming ``path`` and
    the field for one that is missing, mistyped, out of range or misshapen."""
    with open(path) as fh:
        record = json.load(fh)
    check_record(record, _CHECKPOINT_FIELDS, path)
    tokens = tuple(record["vocab"])
    if not all(isinstance(t, str) for t in tokens):
        raise ValueError(f"{path}: field 'vocab' holds a token that is not a string")
    stored = Vocab(tokens)
    if stored.content_hash() != record["vocab_hash"]:
        raise VocabMismatch("checkpoint vocab hash does not match its token list")
    if vocab is not None and vocab.content_hash() != record["vocab_hash"]:
        raise VocabMismatch("checkpoint was built against a different vocabulary")
    v, d, w = len(tokens), record["dim"], record["window"]
    tables = {}
    for name, shape in (("embeddings", (v, d)), ("gains", (2 * w + 1, d)),
                        ("out", (d, v)), ("bias", (v,))):
        try:
            tables[name] = np.array(record[name], dtype=float).reshape(shape)
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"{path}: table {name!r} is not {shape} numbers") from None
    params = PredictorParams(**tables)
    _require_finite(params)
    return params, stored, record["seed"]

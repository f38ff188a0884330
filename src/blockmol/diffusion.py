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
from .fragment import BlockTensor, FragmentConfig

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


def draw_block_times(num_blocks: int, rng: np.random.Generator,
                     antithetic_of: np.ndarray | None = None) -> np.ndarray:
    """Per-block diffusion times in [T_CLIP, 1].

    When ``antithetic_of`` is given, returns the mirrored draw 1 - t of a
    previous example's times instead of consuming fresh randomness.
    """
    if antithetic_of is not None:
        return np.clip(1.0 - antithetic_of, T_CLIP, 1.0)
    return np.clip(rng.uniform(0.0, 1.0, num_blocks), T_CLIP, 1.0)


def draw_noise(bt: BlockTensor, ts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Forward masking, one diffusion time per block: each position becomes
    MASK independently with probability 1 - alpha(t_b) = t_b of its block b."""
    _check_times(ts)
    noised = bt.ids.copy()
    noised[rng.random(bt.config.length) < np.repeat(ts, bt.config.block)] = Vocab.MASK_ID
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

    def copy(self) -> "PredictorParams":
        return PredictorParams(self.embeddings.copy(), self.gains.copy(),
                               self.out.copy(), self.bias.copy())


def offset_gains(params: PredictorParams, positions: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
    """G[pos(targets[j]) - pos(k)], laid out (d, J, S) for ``_pooled``'s matmul."""
    W = params.window
    rel = np.clip(positions[targets][:, None] - positions[None, :], -W, W) + W  # (J, S)
    return params.gains[rel].transpose(2, 0, 1)


def _visible_embeddings(params: PredictorParams, windows: np.ndarray) -> np.ndarray:
    """E[x[n, k]] for every window column, zero where the token is MASK, (N, S, d).

    Scaling table rows by their 0/1 visibility gives the values that scaling
    the gathered (N, S, d) columns would, for one (V, d) multiply.
    """
    vis = (np.arange(params.vocab_size) != Vocab.MASK_ID).astype(np.float64)
    return (params.embeddings * vis[:, None])[windows]


def _pooled(params: PredictorParams, windows: np.ndarray, positions: np.ndarray,
            targets: np.ndarray, gain: np.ndarray | None = None) -> np.ndarray:
    """h[n, j] = sum_k visible(n, k) * E[x[n, k]] * G[pos(targets[j]) - pos(k)].

    ``windows``: (N, S) token ids; MASK positions contribute nothing.
    ``positions``: (S,) sequence positions of the window columns.
    ``targets``: indices into the window for which h is produced.
    """
    if gain is None:
        gain = offset_gains(params, positions, targets)
    emb = _visible_embeddings(params, windows)  # (N, S, d)
    # The batched matmul that einsum("nsd,jsd->njd", optimize=True) plans,
    # without the planning: same sums, same (d, J, N) memory layout, so the
    # projection below rounds the same way too.
    h = np.matmul(gain, emb.transpose(2, 1, 0)).transpose(2, 1, 0)
    # With one window column there is nothing to sum and einsum multiplies
    # into a C-ordered array instead.
    return np.ascontiguousarray(h) if windows.shape[1] == 1 else h


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def nucleus_truncate(probs: np.ndarray, p: float) -> np.ndarray:
    """Keep the smallest descending-probability set with cumulative mass >= p,
    then renormalize by its numpy sum.  Ties are broken toward lower token ids."""
    if not 0.0 < p <= 1.0:
        raise OutOfRange(f"nucleus p={p} outside (0, 1]")
    if p == 1.0:
        return probs
    width = probs.shape[-1]
    flat = probs.reshape(-1, width)
    rows = np.arange(flat.shape[0])
    ranked = np.sort(flat, axis=1)[:, ::-1]  # tie order cannot change the values
    csum = np.cumsum(ranked, axis=1)
    last = (csum[:, :-1] < p).sum(axis=1)  # index of the last kept entry
    keep = last + 1
    # numpy sums fewer than 8 entries left to right, as cumsum does, and
    # more pairwise: those rows are summed by numpy, grouped by count.
    mass = csum[rows, last]
    for k in set(keep[keep >= 8].tolist()):
        group = np.nonzero(keep == k)[0]
        mass[group] = ranked[group, :k].sum(axis=1)
    kept = flat >= ranked[rows, last][:, None]
    tied = np.nonzero(kept.sum(axis=1) > keep)[0]  # equal entries straddle the cut
    if tied.size:
        order = np.argsort(-flat[tied], axis=1, kind="stable")
        kept[tied[:, None], order] = np.arange(width) < keep[tied, None]
    return np.where(kept, flat / mass[:, None], 0.0).reshape(probs.shape)


def predict(params: PredictorParams, windows: np.ndarray, positions: np.ndarray,
            active: np.ndarray, temperature: float = 1.0, nucleus_p: float = 1.0,
            gain: np.ndarray | None = None) -> np.ndarray:
    """Token distributions for the ``active`` window columns of each row.

    This reference model is time-independent, so it takes no diffusion time.
    ``gain`` is ``offset_gains(params, positions, active)``, if already built.
    Returns (N, len(active), V) with rows summing to one.
    """
    if temperature <= 0.0:
        raise OutOfRange(f"temperature {temperature} must be positive")
    if windows.ndim == 1:
        windows = windows[None, :]
    h = _pooled(params, windows, positions, active, gain)  # (N, J, d)
    logits = h @ params.out + params.bias
    return nucleus_truncate(_softmax(logits / temperature), nucleus_p)


# --- NELBO --------------------------------------------------------------------


@dataclass(frozen=True)
class LossReport:
    nelbo: float
    per_block: np.ndarray
    masked_counts: np.ndarray


@dataclass
class PredictorGrads:
    embeddings: np.ndarray
    gains: np.ndarray
    out: np.ndarray
    bias: np.ndarray


class _TrainLayout(NamedTuple):
    positions: np.ndarray  # (2L,) positions of the window [x_t ; x]
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
    positions = np.concatenate([np.arange(L), np.arange(L)])
    rel = np.clip(positions[:L, None] - positions[None, :], -window, window) + window
    offset = np.where(build_train_mask(cfg)[:L] == 1, rel, rows)
    flat = offset.ravel()
    grouped = np.argsort(flat, kind="stable")[:np.count_nonzero(flat < rows)]
    present, starts = np.unique(flat[grouped], return_index=True)
    layout = _TrainLayout(positions, offset, grouped, starts, present)
    for table in layout:
        table.setflags(write=False)
    return layout


def _forward(params: PredictorParams, bts: list[BlockTensor], ts: np.ndarray,
             noised: np.ndarray):
    """The forward pass of the blockwise NELBO, for every block of a stack of
    examples at once.

    ``ts`` (n, B) and ``noised`` (n, L) hold one row per example of ``bts``,
    which share one FragmentConfig.  Every noised row attends, under the
    training mask, the visible tokens of its own block and the clean tokens
    of the blocks before it.  Returns one LossReport per example and the
    intermediates that the backward pass reuses.
    """
    cfg = bts[0].config
    n, L, B = len(bts), cfg.length, cfg.num_blocks
    layout = _train_layout(cfg, params.window)
    positions = layout.positions
    ids = np.stack([bt.ids for bt in bts])
    concat = np.concatenate([noised, ids], axis=1)  # (n, 2L)
    # The offset gains under the training mask, laid out (d, L, 2L).
    table = np.vstack([params.gains, np.zeros(params.dim)]).T
    gain = np.take(table, layout.offset, axis=1)
    # One matmul per example: numpy takes another BLAS routine for one column
    # than for several, so a batched call would round an example's NELBO
    # differently from nelbo_loss on that example alone.
    h = np.concatenate([_pooled(params, row[None], positions, positions[:L], gain)
                        for row in concat])  # (n, L, d)
    probs = _softmax(h @ params.out + params.bias)

    weights = nelbo_weight(ts)  # (n, B)
    masked = noised == Vocab.MASK_ID
    row_weight = np.where(masked, np.repeat(weights, cfg.block, axis=1), 0.0)
    picked = np.take_along_axis(probs, ids[:, :, None], axis=2)[:, :, 0]
    logp = np.log(np.where(masked, picked, 1.0)).reshape(n, B, cfg.block)
    per_block = -weights * logp.sum(axis=2)
    counts = masked.reshape(n, B, cfg.block).sum(axis=2)
    reports = [LossReport(float(pb.sum()), pb, c) for pb, c in zip(per_block, counts)]
    return reports, (concat, ids, gain, h, probs, row_weight)


def nelbo_loss(params: PredictorParams, bt: BlockTensor, ts: np.ndarray,
               noised: np.ndarray) -> LossReport:
    """Blockwise NELBO: sum_b weight(t_b) * CE(true tokens at masked slots of b),
    with the clean prefix x^{<b} as each block's context."""
    return _forward(params, [bt], ts[None], noised[None])[0][0]


def loss_gradient(params: PredictorParams, bt: BlockTensor | list[BlockTensor],
                  ts: np.ndarray, noised: np.ndarray
                  ) -> tuple[LossReport | list[LossReport], PredictorGrads]:
    """nelbo_loss and its closed-form gradient with respect to every table.

    ``bt`` is one BlockTensor, with ``ts`` (B,) and ``noised`` (L,), or a
    list of n of them sharing one config, with ``ts`` (n, B) and ``noised``
    (n, L).  Returns the LossReport (a list of n for a list) and the gradient
    of the summed NELBO, from one forward and one backward pass.

    For masked position j with weight w and true token y:
      dL/dlogits_j = w * (softmax(logits_j) - onehot(y))
    and the chain rule pushes that through out, bias, gains, embeddings.
    """
    single = isinstance(bt, BlockTensor)
    bts = [bt] if single else list(bt)
    if any(b.config != bts[0].config for b in bts):
        raise ValueError("a stack of examples must share one FragmentConfig")
    reports, (concat, ids, gain, h, probs, row_weight) = _forward(
        params, bts, np.reshape(ts, (len(bts), -1)), np.reshape(noised, (len(bts), -1)))
    n, L = ids.shape
    d, V = params.dim, params.vocab_size
    dlogits = (probs * row_weight[:, :, None]).reshape(n * L, V)
    dlogits[np.arange(n * L), ids.ravel()] -= row_weight.ravel()

    g_out = h.reshape(n * L, d).T @ dlogits
    g_bias = dlogits.sum(axis=0)
    dh = (dlogits @ params.out.T).reshape(n, L, d).transpose(2, 1, 0)  # (d, L, n)
    emb = _visible_embeddings(params, concat)  # (n, 2L, d)
    # h = gain @ emb per dimension, so each factor's gradient is one batched
    # matmul summed over target rows or over examples: 2L rows per example
    # reach the embedding table, and the layout's groups fold the (L, 2L)
    # gain gradient into the 2W+1 gain rows.
    d_emb = np.matmul(gain.transpose(0, 2, 1), dh)  # (d, 2L, n)
    g_emb = np.zeros_like(params.embeddings)
    np.add.at(g_emb, concat.ravel(), d_emb.transpose(2, 1, 0).reshape(-1, d))
    g_emb[Vocab.MASK_ID] = 0.0  # MASK columns are invisible
    d_gain = np.matmul(dh, emb.transpose(2, 0, 1)).reshape(d, -1)  # (d, L * 2L)
    layout = _train_layout(bts[0].config, params.window)
    g_gain = np.zeros_like(params.gains)
    g_gain[layout.present] = np.add.reduceat(d_gain[:, layout.grouped], layout.starts,
                                             axis=1).T
    grads = PredictorGrads(g_emb, g_gain, g_out, g_bias)
    return (reports[0] if single else reports), grads


# --- training -----------------------------------------------------------------


GRAD_CLIP = 8.0


def _apply_update(params: PredictorParams, acc: list[np.ndarray], count: int,
                  lr: float, clip: float):
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in acc)) / count
    scale = (lr / count) * min(1.0, clip / norm) if norm > 0 else 0.0
    params.embeddings -= scale * acc[0]
    params.gains -= scale * acc[1]
    params.out -= scale * acc[2]
    params.bias -= scale * acc[3]


def train(params: PredictorParams, corpus: list[BlockTensor], epochs: int,
          lr: float, seed: int, clip: float = GRAD_CLIP) -> tuple[PredictorParams, list[float]]:
    """SGD with constant step size over antithetic-pair NELBO gradients.

    Examples are reshuffled each epoch; consecutive examples share mirrored
    (antithetic) per-block diffusion times, and each update averages the
    gradient over one such pair, from one batched ``loss_gradient`` call, so
    the mirrored 1/t weights actually cancel.  An odd corpus ends each epoch
    with a one-example update.
    The averaged gradient is rescaled to global norm <= clip before applying:
    the loss weight can still reach 1e4 near the clip floor, and one such
    draw at full step size is enough to blow up every table.  Both devices
    are stateless, so a fixed seed means bit-identical parameters.  Returns
    (trained copy, per-epoch mean NELBO).  Training stops at the first
    non-finite NELBO, whose epoch's non-finite mean then ends the history.
    """
    if not corpus:
        raise EmptyCorpus("no training examples")
    params = params.copy()
    rng = np.random.default_rng(seed)
    history: list[float] = []
    for _ in range(epochs):
        order = rng.permutation(len(corpus))
        total = 0.0
        for start in range(0, len(order), 2):
            pair = [corpus[i] for i in order[start:start + 2]]
            ts, noised = [], []
            for bt in pair:  # the second member mirrors the first's times
                ts.append(draw_block_times(bt.config.num_blocks, rng,
                                           antithetic_of=ts[0] if ts else None))
                noised.append(draw_noise(bt, ts[-1], rng))
            reports, grads = loss_gradient(params, pair, np.stack(ts), np.stack(noised))
            for report in reports:
                total += report.nelbo
            if not math.isfinite(total):  # diverged: stop before the next step
                return params, history + [total / len(corpus)]
            _apply_update(params, [grads.embeddings, grads.gains, grads.out, grads.bias],
                          len(pair), lr, clip)
        history.append(total / len(corpus))
    return params, history


# --- checkpoints ---------------------------------------------------------------

CHECKPOINT_VERSION = 1


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
    raises ValueError on a non-finite table entry."""
    with open(path) as fh:
        record = json.load(fh)
    tokens = tuple(record["vocab"])
    stored = Vocab(tokens)
    if stored.content_hash() != record["vocab_hash"]:
        raise VocabMismatch("checkpoint vocab hash does not match its token list")
    if vocab is not None and vocab.content_hash() != record["vocab_hash"]:
        raise VocabMismatch("checkpoint was built against a different vocabulary")
    v, d, w = len(tokens), record["dim"], record["window"]
    params = PredictorParams(
        np.array(record["embeddings"]).reshape(v, d),
        np.array(record["gains"]).reshape(2 * w + 1, d),
        np.array(record["out"]).reshape(d, v),
        np.array(record["bias"]),
    )
    _require_finite(params)
    return params, stored, record["seed"]

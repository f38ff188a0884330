"""NELBO weight, training mask, predictor, NELBO and gradients, and the training loop."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockmol import STREAM_VERSION, diffusion
from blockmol.chem import Vocab, tokenize
from blockmol.diffusion import (
    EmptyCorpus,
    OutOfRange,
    PredictorParams,
    T_CLIP,
    VocabMismatch,
    build_train_mask,
    draw_block_times,
    draw_noise,
    load_checkpoint,
    loss_gradient,
    nelbo_weight,
    nucleus_expand,
    nucleus_truncate,
    offset_gains,
    predict,
    save_checkpoint,
    train,
)
from blockmol.fragment import ConfigError, FragmentConfig, pad_and_partition
from conftest import GOLDENS, TRAIN_K, full_predict, one_nelbo


def test_schedule_values():
    assert nelbo_weight(0.5) == 2.0
    assert nelbo_weight(0.25) == 4.0
    assert nelbo_weight(T_CLIP / 10) == 1.0 / T_CLIP  # clip floor
    assert nelbo_weight(np.array([1.0, 0.5, T_CLIP / 10])).tolist() == [1.0, 2.0, 1.0 / T_CLIP]
    rng = np.random.default_rng(0)
    ids = np.zeros(4, dtype=np.int64)
    for bad in (0.0, -0.1, 1.5, math.nan):
        with pytest.raises(OutOfRange):
            nelbo_weight(bad)
        with pytest.raises(OutOfRange):
            nelbo_weight(np.array([0.5, bad]))
        with pytest.raises(OutOfRange):
            draw_noise(ids, np.array([0.5, bad]), rng)


def test_forward_mask_fraction():
    # Each block is masked at its own time's rate.
    rng = np.random.default_rng(7)
    ids = np.full(100_000, 5, dtype=np.int64)
    noised = draw_noise(ids, np.array([0.3, 0.8]), rng)
    frac = (noised == Vocab.MASK_ID).reshape(2, -1).mean(axis=1)
    assert np.abs(frac - [0.3, 0.8]).max() < 0.01
    assert (noised[noised != Vocab.MASK_ID] == 5).all()


def brute_force_train_mask(L, K):
    m = np.zeros((2 * L, 2 * L), dtype=np.uint8)
    for q in range(2 * L):
        for k in range(2 * L):
            if q < L and k < L:
                m[q, k] = (k // K) == (q // K)
            elif q < L <= k:
                m[q, k] = ((k - L) // K) < (q // K)
            elif q >= L > k:
                m[q, k] = 0
            else:
                m[q, k] = ((k - L) // K) <= ((q - L) // K)
    return m


def test_train_mask_hand_case_l4_k2():
    got = build_train_mask(FragmentConfig(4, 2))
    assert (got == brute_force_train_mask(4, 2)).all()


@pytest.mark.parametrize("L,K", [(8, 2), (8, 4), (12, 3), (16, 8)])
def test_train_mask_matches_predicates(L, K):
    got = build_train_mask(FragmentConfig(L, K))
    assert (got == brute_force_train_mask(L, K)).all()


def test_predict_attends_whole_window():
    # At inference there is no mask: each of the K active rows sees every
    # cached position and the whole active block, even past the gain window.
    V, cached, K = 9, 12, 4
    params = PredictorParams.init(V, dim=6, window=3, seed=4)
    window = np.random.default_rng(4).integers(4, V, cached + K)
    positions = np.arange(cached + K)
    active = np.arange(cached, cached + K)
    base = full_predict(params, window[None], positions, active)[0]
    assert base.shape == (K, V)
    for k in range(cached + K):
        changed = window.copy()
        changed[k] = 4 + (changed[k] - 3) % (V - 4)  # another non-control token
        moved = full_predict(params, changed[None], positions, active)[0]
        assert (np.abs(moved - base).max(axis=1) > 0).all(), k


@st.composite
def predict_problems(draw):
    """Windows, masks and tables for ``predict``: some rows hold no masked
    pair, the batch holds at least one, and coarse tables tie values at the cut."""
    V, dim, window = draw(st.integers(5, 24)), draw(st.integers(1, 6)), draw(st.integers(0, 6))
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**16))
        params = PredictorParams.init(V, dim, window, seed,
                                      scale=draw(st.sampled_from([0.1, 1.0, 3.0])))
        params.bias[:] = np.random.default_rng(seed).normal(size=V)
    else:
        def table(*shape):
            size = int(np.prod(shape))
            return np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]),
                                          min_size=size, max_size=size))).reshape(shape)
        params = PredictorParams(table(V, dim), table(2 * window + 1, dim), table(dim, V),
                                 table(V))
    n, s = draw(st.integers(1, 12)), draw(st.integers(1, 24))
    j = draw(st.integers(1, min(s, 8)))
    windows = np.array(draw(st.lists(st.integers(0, V - 1), min_size=n * s,
                                     max_size=n * s))).reshape(n, s)
    masked = np.array(draw(st.lists(st.booleans(), min_size=n * j,
                                    max_size=n * j))).reshape(n, j)
    masked[draw(st.integers(0, n - 1)), draw(st.integers(0, j - 1))] = True
    windows[:, s - j:][masked] = Vocab.MASK_ID
    return (params, windows, masked, draw(st.integers(0, 40)), draw(st.integers(0, 16)),
            draw(st.sampled_from([0.7, 1.0, 1.1])), draw(st.sampled_from([0.3, 0.95, 1.0])))


@settings(max_examples=300, deadline=None)
@given(predict_problems())
def test_predict_cuts_the_full_form_at_the_masked_pairs(problem):
    params, windows, masked, first, extra, temperature, p = problem
    s, j = windows.shape[1], masked.shape[1]
    positions = np.arange(first, first + extra + s)
    # As the decoder passes them: the last columns of gains built for a longer window.
    gain = offset_gains(params, positions, np.arange(extra + s - j, extra + s))[:, :, extra:]
    got = predict(params, windows, gain, diffusion.visible_table(params), masked,
                  temperature, p)
    want = full_predict(params, windows, positions[extra:], np.arange(s - j, s),
                        temperature, p)
    assert np.array_equal(nucleus_expand(got), want[masked])


@pytest.mark.parametrize("temperature", [0.0, -1.0])
def test_predict_rejects_a_temperature_that_is_not_positive(temperature):
    params = PredictorParams.init(6, dim=2, window=1, seed=0)
    positions = np.arange(3)
    with pytest.raises(OutOfRange, match="must be positive"):
        predict(params, np.full((1, 3), 5), offset_gains(params, positions, positions),
                diffusion.visible_table(params), np.ones((1, 3), bool), temperature)


def test_loss_gradient_builds_the_visible_table_once(monkeypatch, corpus, vocab):
    built = []
    visible_table = diffusion.visible_table
    monkeypatch.setattr(diffusion, "visible_table",
                        lambda params: built.append(1) or visible_table(params))
    params = PredictorParams.init(len(vocab), dim=4, window=3, seed=1)
    rng = np.random.default_rng(2)
    ids = corpus[:2]
    ts = np.stack([draw_block_times(ids.shape[1] // TRAIN_K, rng) for _ in ids])
    loss_gradient(params, ids, ts, draw_noise(ids, ts, rng))
    assert len(built) == 1


def test_uniform_predictor_single_mask_nelbo():
    # One masked slot, uniform |V| model, t=0.5: weight 2 times CE ln |V|.
    # The slot holds EOS ([BOS, EOS, PAD, PAD], |V| = 4) or C ([BOS, C, EOS,
    # PAD], |V| = 8).
    for corpus, body, size in (([], [], 4), ([["C", "N", "O", "F"]], ["C"], 8)):
        vocab = Vocab.build(corpus)
        assert len(vocab) == size
        cfg = FragmentConfig(4, 2)
        ids = pad_and_partition(body, cfg, vocab)
        noised = ids.copy()
        noised[1] = Vocab.MASK_ID
        params = PredictorParams.zeros(size, dim=3, window=2)
        ts = np.array([0.5, 0.5])
        report = one_nelbo(params, ids, ts, noised)
        assert report.nelbo == pytest.approx(2.0 * math.log(size), abs=1e-12)
        assert report.per_block[1] == 0.0  # the second block holds no MASK


def _block_ce(params, ids, noised, b, K):
    """Cross-entropy of the true tokens at masked positions of block b (of K
    tokens), with the clean prefix x^{<b} as context, from ``full_predict`` alone."""
    sl = slice(b * K, (b + 1) * K)
    masked = noised[sl] == Vocab.MASK_ID
    if not masked.any():
        return 0.0
    window = np.concatenate([ids[: sl.start], noised[sl]])
    probs = full_predict(params, window[None], np.arange(sl.stop),
                         np.arange(sl.start, sl.stop))[0]
    true_ids = ids[sl][masked]
    picked = probs[masked, :][np.arange(true_ids.shape[0]), true_ids]
    return float(-np.log(picked).sum())


def nelbo_loop(params, ids, ts, noised):
    """Block-by-block reference for the NELBO of one (L,) example under (B,)
    times: (nelbo, per_block)."""
    weights = nelbo_weight(ts)
    per_block = np.zeros(len(ts))
    for b in range(len(ts)):
        per_block[b] = weights[b] * _block_ce(params, ids, noised, b, len(ids) // len(ts))
    return float(per_block.sum()), per_block


def test_nelbo_loop_equals_vectorized(corpus, vocab):
    rng = np.random.default_rng(11)
    params = PredictorParams.init(len(vocab), dim=8, window=4, seed=3)
    worst = 0.0
    for ids in corpus[:10]:
        ts = draw_block_times(len(ids) // TRAIN_K, rng)
        noised = draw_noise(ids, ts, rng)
        report = one_nelbo(params, ids, ts, noised)
        nelbo, per_block = nelbo_loop(params, ids, ts, noised)
        worst = max(worst, abs(report.nelbo - nelbo),
                    np.abs(report.per_block - per_block).max())
    assert worst <= 1e-9


def ref_loss_gradient(params, ids, ts, noised):
    """One example's NELBO gradient as two np.add.at scatters over every
    (target row, window column) pair: the reference for loss_gradient."""
    cfg = FragmentConfig(len(ids), len(ids) // len(ts))
    L, W = cfg.length, params.window
    mask = build_train_mask(cfg).astype(np.float64)[:L, :]
    concat = np.concatenate([noised, ids])
    vis = np.ones(2 * L)
    vis[:L] = (noised != Vocab.MASK_ID).astype(np.float64)
    positions = np.concatenate([np.arange(L), np.arange(L)])
    rel = np.clip(positions[:L, None] - positions[None, :], -W, W) + W
    gain = params.gains[rel]
    weighted_vis = mask * vis[None, :]  # (L, 2L): column k visible to row j
    h = np.einsum("js,sd,jsd->jd", weighted_vis, params.embeddings[concat], gain,
                  optimize=True)
    logits = h @ params.out + params.bias
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    rows = np.nonzero(noised == Vocab.MASK_ID)[0]
    w = nelbo_weight(ts)[rows // cfg.block]

    dlogits = np.zeros_like(probs)
    dlogits[rows] = probs[rows] * w[:, None]
    dlogits[rows, ids[rows]] -= w
    g_out = h.T @ dlogits
    g_bias = dlogits.sum(axis=0)
    dh = dlogits @ params.out.T  # (L, d)
    contrib = weighted_vis[:, :, None] * gain * dh[:, None, :]  # (L, 2L, d)
    g_emb = np.zeros_like(params.embeddings)
    np.add.at(g_emb, np.tile(concat, L), contrib.reshape(-1, params.dim))
    g_gain = np.zeros_like(params.gains)
    src = weighted_vis[:, :, None] * params.embeddings[concat][None, :, :] * dh[:, None, :]
    np.add.at(g_gain, rel.reshape(-1), src.reshape(-1, params.dim))
    return {"embeddings": g_emb, "gains": g_gain, "out": g_out, "bias": g_bias}


def ref_train(params, corpus, block, epochs, lr, seed, clip=diffusion.GRAD_CLIP):
    """The training loop one example per step, each update summing the
    reference gradients of an antithetic pair, whose second member mirrors
    the first's times: the reference for train."""
    num_blocks = corpus.shape[1] // block
    params = params.copy()
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(epochs):
        order = rng.permutation(len(corpus))
        total = 0.0
        prev_ts = None
        acc = None
        count = 0
        for step, idx in enumerate(order):
            ids = corpus[idx]
            if step % 2 == 0:
                ts = draw_block_times(num_blocks, rng)
                prev_ts = ts
            else:
                ts = np.clip(1.0 - prev_ts, T_CLIP, 1.0)
            noised = draw_noise(ids, ts, rng)
            total += one_nelbo(params, ids, ts, noised).nelbo
            grads = ref_loss_gradient(params, ids, ts, noised)
            grads = [grads[f] for f in ("embeddings", "gains", "out", "bias")]
            if acc is None:
                acc = grads
            else:
                for a, g in zip(acc, grads):
                    a += g
            count += 1
            if count == 2 or step == len(order) - 1:
                diffusion._apply_update(params, PredictorParams(*acc), count, lr, clip)
                acc = None
                count = 0
        history.append(total / len(corpus))
    return params, history


@st.composite
def gradient_problems(draw):
    """A model and two examples of one layout: repeated tokens, and blocks
    that are all masked, unmasked or partly masked."""
    K, B = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if K * B < 2:
        B = 2
    L = K * B
    V = draw(st.integers(5, 9))
    params = PredictorParams.init(V, dim=draw(st.integers(1, 4)),
                                  window=draw(st.integers(0, L)),
                                  seed=draw(st.integers(0, 2**16)), scale=0.5)
    tokens = draw(st.lists(st.sampled_from([t for t in range(V) if t != Vocab.MASK_ID]),
                           min_size=1, max_size=3))  # few distinct ids: repeats
    examples = []
    for _ in range(2):
        ids = np.array(draw(st.lists(st.sampled_from(tokens), min_size=L, max_size=L)))
        noised = ids.copy()
        for b in range(B):
            kind = draw(st.sampled_from(["none", "all", "some"]))
            if kind != "none":
                hide = [kind == "all" or draw(st.booleans()) for _ in range(K)]
                noised[b * K:(b + 1) * K][np.array(hide)] = Vocab.MASK_ID
        ts = np.array(draw(st.lists(st.floats(T_CLIP, 1.0), min_size=B, max_size=B)))
        examples.append((ids, ts, noised))
    return params, examples


def _close_to(grads, want):
    # Rounding scales with the largest entry of any table: one table's own
    # largest can be a near cancellation, 1e-6 or less, of much larger terms.
    scale = max(np.abs(table).max() for table in want.values())
    for field, table in want.items():
        got = getattr(grads, field)
        assert got.shape == table.shape
        assert np.abs(got - table).max() <= 1e-12 * scale, field


@settings(max_examples=200, deadline=None)
@given(gradient_problems())
@example((  # 1 dim, 5 tokens, all PAD: the PAD embedding's gradient cancels to 7.5e-05
    PredictorParams.init(5, dim=1, window=4, seed=36104, scale=0.5),
    [(np.zeros(8, dtype=np.int64), np.array([0.8439629058096753, 0.32655356831544124]),
      np.array([3, 3, 0, 0, 3, 3, 3, 3])),
     (np.zeros(8, dtype=np.int64), np.array([0.4974845294732847, 0.32866130693327145]),
      np.zeros(8, dtype=np.int64))]))
def test_batched_gradient_matches_per_example_reference(problem):
    params, examples = problem
    refs = [ref_loss_gradient(params, *ex) for ex in examples]
    losses = [one_nelbo(params, *ex) for ex in examples]

    reports, grads = loss_gradient(params, *(x[None] for x in examples[0]))
    _close_to(grads, refs[0])

    pair_reports, grads = loss_gradient(params, *(np.stack(x) for x in zip(*examples)))
    _close_to(grads, {f: refs[0][f] + refs[1][f] for f in refs[0]})
    assert len(reports) == 1 and len(pair_reports) == 2
    for got, want in zip(reports + pair_reports, losses[:1] + losses):
        assert got.nelbo == want.nelbo
        assert np.array_equal(got.per_block, want.per_block)


@pytest.mark.parametrize("blocks", [5, 7, 96])
def test_block_times_that_do_not_divide_the_length_raise(blocks):
    # 48 // 7 = 6 divides 48, so the block size alone would not catch B = 7.
    params = PredictorParams.init(8, dim=4, window=2, seed=0)
    ids = np.full((2, 48), 5, dtype=np.int64)
    ts = np.full((2, blocks), 0.5)
    with pytest.raises(ConfigError, match=f"{blocks} block times"):
        draw_noise(ids, ts, np.random.default_rng(0))
    with pytest.raises(ConfigError, match=f"{blocks} block times"):
        loss_gradient(params, ids, ts, ids)


def test_train_matches_one_example_per_step_reference(corpus, vocab):
    # An odd corpus: each epoch ends with a one-member update.
    params = PredictorParams.init(len(vocab), dim=8, window=4, seed=7)
    got, history = train(params, corpus[:41], TRAIN_K, epochs=2, lr=0.1, seed=7)
    want, ref_history = ref_train(params, corpus[:41], TRAIN_K, epochs=2, lr=0.1, seed=7)
    assert len(history) == len(ref_history) == 2
    assert np.allclose(history, ref_history, rtol=0, atol=1e-9)
    for field in ("embeddings", "gains", "out", "bias"):
        assert np.abs(getattr(got, field) - getattr(want, field)).max() <= 1e-9, field


def test_gradient_matches_finite_differences(corpus, vocab):
    ids = corpus[0]
    rng = np.random.default_rng(5)
    params = PredictorParams.init(len(vocab), dim=6, window=3, seed=9, scale=0.05)
    ts = draw_block_times(len(ids) // TRAIN_K, rng)
    noised = draw_noise(ids, ts, rng)
    _, grads = loss_gradient(params, ids[None], ts[None], noised[None])
    h = 1e-5
    checks = [("embeddings", (4, 2)), ("embeddings", (7, 5)), ("gains", (3, 1)),
              ("gains", (0, 0)), ("out", (2, 8)), ("out", (5, 0)), ("bias", (6,))]
    for field, idx in checks:
        table = getattr(params, field)
        analytic = getattr(grads, field)[idx]
        orig = table[idx]
        table[idx] = orig + h
        up = one_nelbo(params, ids, ts, noised).nelbo
        table[idx] = orig - h
        down = one_nelbo(params, ids, ts, noised).nelbo
        table[idx] = orig
        numeric = (up - down) / (2 * h)
        denom = max(abs(analytic), 1e-8)
        assert abs(numeric - analytic) / denom <= 1e-4, (field, idx)


def test_nucleus_truncate_plain_when_p_one():
    probs = np.array([[0.6, 0.3, 0.1]])
    assert (nucleus_truncate(probs, 1.0) == probs).all()
    cut = nucleus_truncate(probs, 0.8)
    assert cut[0, 2] == 0.0
    assert cut[0].sum() == pytest.approx(1.0)


def _nucleus_truncate_rowwise(probs, p):
    """Row-by-row reference for nucleus_truncate."""
    flat = probs.reshape(-1, probs.shape[-1])
    out = np.zeros_like(flat)
    for r in range(flat.shape[0]):
        row = flat[r]
        order = np.lexsort((np.arange(row.shape[0]), -row))
        csum = np.cumsum(row[order])
        keep = int(np.searchsorted(csum, p, side="left")) + 1
        kept = order[:keep]
        out[r, kept] = row[kept] / row[kept].sum()
    return out.reshape(probs.shape)


def test_nucleus_truncate_matches_rowwise_reference_exactly():
    rng = np.random.default_rng(0)
    cases = []
    for n, v in ((1, 2), (7, 5), (40, 33), (64, 80)):
        cases.append(rng.dirichlet(np.full(v, 0.3), size=n))
        ties = rng.integers(0, 3, size=(n, v)).astype(float) + 1.0
        cases.append(ties / ties.sum(axis=1, keepdims=True))
        z = rng.normal(size=(n, 2, v)) * 3.0
        soft = np.exp(z - z.max(axis=-1, keepdims=True))
        soft[..., 0] = 0.0  # a zeroed column, as the decoder does for MASK
        cases.append(soft / soft.sum(axis=-1, keepdims=True))
    for probs in cases:
        for p in (0.01, 0.5, 0.95, 1.0 - 1e-16):
            got = nucleus_truncate(probs, p)
            assert got.shape == probs.shape
            assert np.array_equal(got, _nucleus_truncate_rowwise(probs, p)), p


@st.composite
def nucleus_problems(draw):
    """Rows with ties and zeroed columns, and a p that makes row 0 keep a
    drawn count of entries; the other rows keep what they keep."""
    rows, width = draw(st.integers(1, 10)), draw(st.integers(2, 40))
    levels = draw(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=4))
    raw = np.array(draw(st.lists(
        st.one_of(st.sampled_from(levels), st.just(0.0), st.floats(1e-6, 10.0)),
        min_size=rows * width, max_size=rows * width))).reshape(rows, width)
    raw[:, draw(st.integers(0, width - 1))] += 1.0  # no all-zero row
    # Repeat row 0 among the others, so several rows share its count.
    raw[draw(st.lists(st.integers(0, rows - 1), max_size=rows))] = raw[0]
    probs = raw / raw.sum(axis=1, keepdims=True)
    keep = draw(st.integers(1, width))
    mass = np.cumsum(np.sort(probs[0])[::-1])[keep - 1]
    p = min(float(mass), 1.0 - 2.0**-53) if draw(st.booleans()) else \
        draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return probs, p


@settings(max_examples=300, deadline=None)
@given(nucleus_problems())
@example((np.full((3, 20), 0.05), 0.5))  # ten equal entries kept of twenty
def test_nucleus_truncate_matches_rowwise_reference_on_drawn_counts(problem):
    probs, p = problem
    assert np.array_equal(nucleus_truncate(probs, p), _nucleus_truncate_rowwise(probs, p))


@st.composite
def probability_rows(draw):
    rows, width = draw(st.integers(1, 8)), draw(st.integers(1, 40))
    # A few shared levels make ties common; ties must go to lower token ids.
    levels = draw(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=4))
    raw = draw(st.lists(st.one_of(st.sampled_from(levels), st.floats(1e-6, 10.0)),
                        min_size=rows * width, max_size=rows * width))
    raw = np.array(raw).reshape(rows, width)
    return raw / raw.sum(axis=1, keepdims=True)


@settings(max_examples=400, deadline=None)
@given(probability_rows(), st.floats(0.0, 1.0, exclude_min=True))
def test_nucleus_truncate_keeps_the_shortest_stable_prefix(probs, p):
    out = nucleus_truncate(probs, p)
    assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-12)
    for row, cut in zip(probs, out):
        order = np.argsort(-row, kind="stable")
        kept = cut[order] > 0.0
        k = int(kept.sum())
        assert kept[:k].all()  # a prefix of the stable descending order
        mass = np.cumsum(row[order])
        assert mass[k - 1] >= p or k == row.shape[0]
        assert k == 1 or mass[k - 2] < p  # and no longer than it must be


def test_train_zero_epochs_leaves_params(corpus, vocab):
    params = PredictorParams.init(len(vocab), dim=8, window=4, seed=1)
    out, history = train(params, corpus[:8], TRAIN_K, epochs=0, lr=0.1, seed=1)
    assert history == []
    assert (out.embeddings == params.embeddings).all()
    assert (out.out == params.out).all()


def test_train_empty_corpus():
    params = PredictorParams.init(8, dim=4, window=2, seed=0)
    with pytest.raises(EmptyCorpus):
        train(params, np.zeros((0, 8), dtype=np.int64), 4, epochs=1, lr=0.1, seed=0)


def test_train_loss_decreases_and_is_deterministic(corpus, vocab):
    params = PredictorParams.init(len(vocab), dim=12, window=6, seed=2)
    a, hist_a = train(params, corpus[:80], TRAIN_K, epochs=3, lr=0.1, seed=2)
    b, hist_b = train(params, corpus[:80], TRAIN_K, epochs=3, lr=0.1, seed=2)
    assert hist_a[-1] < hist_a[0]
    assert all(math.isfinite(v) for v in hist_a)
    assert hist_a == hist_b
    for field in ("embeddings", "gains", "out", "bias"):
        assert (getattr(a, field) == getattr(b, field)).all()


def test_train_stops_at_the_first_non_finite_nelbo(corpus, vocab, monkeypatch):
    calls = []

    def recording(*args):
        reports, grads = loss_gradient(*args)
        calls.append(all(math.isfinite(r.nelbo) for r in reports))
        return reports, grads

    monkeypatch.setattr(diffusion, "loss_gradient", recording)
    params = PredictorParams.init(len(vocab), dim=8, window=4, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # lr 1e300 overflows
        _, history = train(params, corpus[:30], TRAIN_K, epochs=3, lr=1e300, seed=0)
    assert calls[-1] is False and all(calls[:-1])  # no call after the first NaN
    assert len(history) == 1 and not math.isfinite(history[0])


def test_train_is_pinned_to_a_golden_digest(corpus, vocab):
    params = PredictorParams.init(len(vocab), dim=8, window=4, seed=5)
    out, history = train(params, corpus[:40], TRAIN_K, epochs=2, lr=0.1, seed=5)
    digest = hashlib.sha256()
    for table in (out.embeddings, out.gains, out.out, out.bias, np.asarray(history)):
        digest.update(table.tobytes())
    # TRAIN_DIGEST, over the trained tables' bytes and the history's bytes.
    # Training must reproduce it bit for bit, so any change to loss_gradient's
    # arithmetic, however small, fails here.
    assert digest.hexdigest() == GOLDENS[STREAM_VERSION]["TRAIN_DIGEST"], history


def test_checkpoint_roundtrip(tmp_path, corpus, vocab):
    params = PredictorParams.init(len(vocab), dim=8, window=4, seed=6)
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, vocab, seed=6)
    loaded, stored_vocab, seed = load_checkpoint(path, vocab)
    assert seed == 6
    assert stored_vocab.content_hash() == vocab.content_hash()
    for field in ("embeddings", "gains", "out", "bias"):
        assert (getattr(loaded, field) == getattr(params, field)).all()


def test_non_finite_checkpoint_is_neither_written_nor_read(tmp_path, vocab):
    params = PredictorParams.init(len(vocab), dim=4, window=2, seed=0)
    path = tmp_path / "ck.json"
    for field, bad in (("embeddings", math.nan), ("bias", math.inf)):
        broken = params.copy()
        getattr(broken, field).flat[1] = bad
        with pytest.raises(ValueError, match=field):
            save_checkpoint(path, broken, vocab, seed=0)
        assert not path.exists()
    save_checkpoint(path, params, vocab, seed=0)
    record = json.loads(path.read_text())
    record["gains"][3] = math.nan
    path.write_text(json.dumps(record))
    with pytest.raises(ValueError, match="gains"):
        load_checkpoint(path, vocab)


def test_checkpoint_vocab_mismatch(tmp_path, vocab):
    params = PredictorParams.init(len(vocab), dim=4, window=2, seed=0)
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, vocab, seed=0)
    other = Vocab.build([tokenize("CCO")])
    with pytest.raises(VocabMismatch):
        load_checkpoint(path, other)

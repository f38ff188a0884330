"""Batched block decoding against the per-row reference.

The reference below is the original decode step: after each predictor call it
walks the rows that still hold a MASK one by one, draws that row's uniforms
with the scalar ``key_uniform`` keyed by the row's own lane, picks its
position and token, and commits it.  Each row keeps its own logits, summed
term by term in the order ``Decoder._prefix_logits`` documents, from a logit
table built here as an explicit sum over the embedding dimension.
``Decoder.decode_block`` now commits every row in one batched step with
uniforms computed in numpy from each row's lane key; both must commit the
same tokens and finish the same rows.  The reference records the block in
which each row finished; ``Decoder.records`` must call a row completed
exactly when it holds an EOS and derive the same block count from the first
EOS.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockmol import decode, diffusion
from blockmol.chem import Vocab, tokenize
from blockmol.decode import (BudgetExhausted, DecodeConfig, Decoder, key_uniform,
                             lane_keys, lane_uniforms)
from blockmol.diffusion import PredictorParams, _softmax, nucleus_truncate
from conftest import pooled

# --- reference: the per-row decode step --------------------------------------


def ref_gcd_select(probs, masked):
    conf = probs.max(axis=1)
    conf[~masked] = -1.0
    j = int(np.argmax(conf))
    return j, int(np.argmax(probs[j]))


def ref_draw_token(cfg, row, lane, b, step):
    u = key_uniform(cfg.seed, lane, b, step, 0xD0)
    csum = np.cumsum(row / row.sum())
    return min(int(np.searchsorted(csum, u, side="right")), row.shape[0] - 1)


def ref_finish(ids, n):
    row = ids[n]
    row[row == Vocab.MASK_ID] = Vocab.EOS_ID
    first = int(np.argmax(row == Vocab.EOS_ID))
    row[first:] = Vocab.EOS_ID


def ref_logit_table(params):
    """T[v, 2W + o]: the logits token v adds at offset o, for every gain row,
    each summed over the embedding dimension in order."""
    visible = params.embeddings * (np.arange(params.vocab_size) != Vocab.MASK_ID)[:, None]
    terms = visible[:, None, :, None] * params.gains[None, :, :, None] * params.out[None, None]
    table = np.zeros(terms.shape[:2] + terms.shape[3:])
    for d in range(params.dim):
        table = table + terms[:, :, d]
    return table


def ref_term(params, table, v, k, b, K):
    """The (K, V) logits that token v at position k adds to block b's targets."""
    W = params.window
    return table[v, np.clip(np.arange(b * K, (b + 1) * K) - k, -W, W) + W]


def ref_prefix_logits(params, table, row, b, K, start):
    """Row ``row``'s (K, V) logits at block b, from its tokens below ``start``:
    the tokens more than W before the block at the clipped offset, one by one,
    then each nearer token in position order, then the bias."""
    W = params.window
    far = max(b * K - W, 0)
    total = np.zeros(params.vocab_size)
    for k in range(far):
        total = total + table[row[k], 2 * W]
    logits = np.zeros((K, params.vocab_size)) + total
    for k in range(far, start):
        logits = logits + ref_term(params, table, row[k], k, b, K)
    return logits + params.bias


def ref_decode_block(dec, ids, finish, b, lanes, start):
    """The per-row step; ``finish[n]`` becomes the block in which row n ends,
    and row n draws with lane ``lanes[n]``."""
    cfg, params = dec.cfg, dec.params
    K = cfg.block
    hi = (b + 1) * K
    start = max(start, b * K)
    live = [n for n in range(ids.shape[0]) if finish[n] < 0]
    if start >= hi or not live:
        return
    if hi - start > cfg.budget:
        raise BudgetExhausted(hi - start, cfg.budget, b)
    table = ref_logit_table(params)
    logits = {}
    for n in live:
        ids[n, start:hi] = Vocab.MASK_ID
        logits[n] = ref_prefix_logits(params, table, ids[n], b, K, start)

    for step in range(hi - start):
        rows = np.nonzero((ids[:, b * K : hi] == Vocab.MASK_ID).any(axis=1))[0]
        if rows.shape[0] == 0:
            break
        for n in rows:
            probs = nucleus_truncate(_softmax(logits[n].copy(), cfg.temperature), cfg.nucleus_p)
            probs[:, Vocab.MASK_ID] = 0.0
            masked = ids[n, b * K : hi] == Vocab.MASK_ID
            j, v = ref_gcd_select(probs, masked)
            if probs[j].max() == 0.0:  # the nucleus kept only MASK
                v = Vocab.EOS_ID
            elif cfg.mode == "sample":
                v = ref_draw_token(cfg, probs[j], lanes[n], b, step)
            ids[n, b * K + j] = v
            logits[n] = logits[n] + ref_term(params, table, v, b * K + j, b, K)
            if v == Vocab.EOS_ID:
                ref_finish(ids, n)
                finish[n] = b


# --- drawn decode problems ---------------------------------------------------

VOCAB = Vocab.build(tokenize(s) for s in (
    "CC(=O)Nc1ccc(O)cc1", "C1CCN(CC1)C(=O)O", "c1ccncc1Cl", "CCS(=O)(=O)N",
    "C=CC#N", "Brc1cc[nH]c1", "C[C@@H](F)[O-]"))
BODY = VOCAB.tokens[4:]
# Lanes are keyed by their decimal text, so lanes near 9 and 99 make the
# batch cross a change in key length.
LANES = st.one_of(st.sampled_from([0, 3, 8, 9, 10, 62, 81, 95, 98, 99, 100, 101]),
                  st.integers(0, 10**6))


@st.composite
def decode_problems(draw):
    block = draw(st.sampled_from([4, 8, 12, 16]))
    length = block * draw(st.integers(1, 4))
    prefix_len = draw(st.integers(0, min(length - 2, 2 * block)))
    cfg = DecodeConfig(
        block=block, length=length,
        budget=draw(st.integers(max(1, block - 2), block + 1)),
        temperature=draw(st.floats(0.25, 4.0)),
        nucleus_p=draw(st.floats(0.0, 1.0, exclude_min=True)),
        mode=draw(st.sampled_from(["confidence", "sample"])),
        seed=draw(st.integers(-2**40, 2**40)))
    params = PredictorParams.init(
        len(VOCAB), dim=draw(st.integers(2, 12)), window=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**16)), scale=draw(st.sampled_from([0.1, 1.0, 3.0])))
    rows = draw(st.integers(1, 40))
    return dict(
        dec=Decoder(params, cfg, VOCAB),
        prefix=draw(st.lists(st.sampled_from(BODY), min_size=prefix_len,
                             max_size=prefix_len)),
        # Any distinct lanes, in any order, as search's rows carry.
        lanes=draw(st.lists(LANES, min_size=rows, max_size=rows, unique=True)),
        # After the first block, restart from the decoded rows as search does:
        # None keeps the rows, "rows" copies them, "tile" repeats row 0.
        resume=draw(st.sampled_from([None, "rows", "tile"])))


def assert_same_rows(dec, got, want, finish):
    assert np.array_equal(got, want)
    ended = (want == Vocab.EOS_ID).any(axis=1)
    assert np.array_equal(ended, finish >= 0)  # a row ends exactly at its EOS
    records = dec.records(got)
    assert [rec.completed for rec in records] == ended.tolist()
    blocks = np.where(ended, finish + 1, dec.cfg.fragment.num_blocks)
    assert [rec.block_count for rec in records] == blocks.tolist()


@settings(max_examples=300, deadline=None)
@given(decode_problems())
@example(dict(  # sample mode, lanes crossing 99/100, a prefix ending mid-block
    dec=Decoder(PredictorParams.init(len(VOCAB), 6, 3, seed=7, scale=3.0),
                DecodeConfig(block=8, length=32, budget=8,
                             temperature=0.7, nucleus_p=0.9, mode="sample",
                             seed=-12), VOCAB),
    prefix=["C", "C", "(", "=", "O"], lanes=[95 + 3 * i for i in range(40)][::-1],
    resume="tile"))
def test_decode_block_matches_per_row_reference(problem):
    dec, lanes = problem["dec"], problem["lanes"]
    keys = lane_keys(dec.cfg.seed, np.array(lanes))
    got = dec.frame(len(lanes), problem["prefix"])
    want = got.copy()
    finish = np.full(len(lanes), -1)
    start = 1 + len(problem["prefix"])
    b0 = start // dec.cfg.block
    for b in range(b0, dec.cfg.fragment.num_blocks):
        try:
            ref_decode_block(dec, want, finish, b, lanes, start)
        except BudgetExhausted as err:
            with pytest.raises(BudgetExhausted) as raised:
                dec.decode_block(got, b, keys, start)
            assert (raised.value.needed, raised.value.block) == (err.needed, err.block)
            assert_same_rows(dec, got, want, finish)
            return
        dec.decode_block(got, b, keys, start)
        assert_same_rows(dec, got, want, finish)
        if b == b0 and problem["resume"]:
            if problem["resume"] == "tile":
                got = np.tile(got[0], (got.shape[0], 1))
                finish = np.full_like(finish, finish[0])
            got, want, start = got.copy(), got.copy(), 1


@pytest.mark.parametrize("nucleus_p", [0.9, 1.0])
def test_draws_at_the_top_of_the_unit_interval_match_the_reference(monkeypatch, nucleus_p):
    # The largest uniform that key_uniform returns can reach a chosen row's
    # whole cumulative sum, which may round below 1; the draw must then take
    # the last token, as the reference's searchsorted does.
    u = 1.0 - 2.0**-53
    monkeypatch.setattr(decode, "lane_uniforms", lambda keys, *parts: np.full(keys.shape, u))
    monkeypatch.setitem(globals(), "key_uniform", lambda *parts: u)
    cfg = DecodeConfig(block=8, length=24, temperature=1.0, nucleus_p=nucleus_p, mode="sample",
                       seed=1)
    for seed in range(4):
        params = PredictorParams.init(len(VOCAB), 6, 3, seed=seed, scale=1.0)
        test_decode_block_matches_per_row_reference.hypothesis.inner_test(dict(
            dec=Decoder(params, cfg, VOCAB), prefix=[], lanes=list(range(16)), resume=None))


@settings(max_examples=100, deadline=None)
@given(decode_problems())
def test_grouped_decoding_matches_per_row_reference(problem):
    # Every block groups its rows by window, however few, so the tiled rows of
    # ``resume="tile"`` share predictor rows from the first step on.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decode, "GROUP_ROWS", 0)
        test_decode_block_matches_per_row_reference.hypothesis.inner_test(problem)


def coarse_params(draw, dim, window):
    """``coarse_problems``' tables: values -1, 0 and 1, few distinct output
    columns, and a MASK bias, so that tokens tie exactly."""
    V = len(VOCAB)

    def table(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]),
                                      min_size=size, max_size=size))).reshape(shape)

    columns = table(dim, draw(st.integers(1, 3)))
    picks = draw(st.lists(st.integers(0, columns.shape[1] - 1), min_size=V, max_size=V))
    bias = np.zeros(V)
    bias[Vocab.MASK_ID] = draw(st.sampled_from([0.0, 1.0, 4.0]))
    return PredictorParams(table(V, dim), table(2 * window + 1, dim), columns[:, picks], bias)


@st.composite
def coarse_problems(draw):
    """Decode problems whose tables take the values -1, 0 and 1, with few
    distinct output columns, so that tokens tie exactly, at the nucleus cut
    too.  A MASK bias makes MASK the most likely token, or at p = 0.5 the
    only one a nucleus keeps, so that its row must end with EOS."""
    block = draw(st.sampled_from([4, 8]))
    length = block * draw(st.integers(1, 3))
    prefix_len = draw(st.integers(0, min(length - 2, block)))
    cfg = DecodeConfig(
        block=block, length=length, budget=block,
        temperature=draw(st.sampled_from([1.0, 1.1])),
        nucleus_p=draw(st.sampled_from([0.5, 0.95, 1.0])),
        mode=draw(st.sampled_from(["confidence", "sample"])),
        seed=draw(st.integers(-2**40, 2**40)))
    params = coarse_params(draw, draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    rows = draw(st.integers(1, 12))
    return dict(
        dec=Decoder(params, cfg, VOCAB),
        prefix=draw(st.lists(st.sampled_from(BODY), min_size=prefix_len,
                             max_size=prefix_len)),
        lanes=draw(st.lists(LANES, min_size=rows, max_size=rows, unique=True)),
        resume=draw(st.sampled_from([None, "rows", "tile"])))


@settings(max_examples=300, deadline=None)
@given(coarse_problems())
@example(dict(  # sample mode: rows whose top token sits at the cut, alone there
    # (confidence read off the cut) or among equal entries straddling it
    # (truncated in full, where MASK may win the tie), and chosen rows that
    # straddle their cut
    dec=Decoder(PredictorParams(
        np.array([[1, -1, 1, 1, 1, 1, -1, -1, 1, 0, -1, 1, 1, 1, 0, -1, -1, 0, -1, -1, -1]],
                 float).T,
        np.array([[1.0], [-1.0], [1.0]]),
        np.array([[-1, -1, -1, 1, -1, 1, 1, 0, 0, 0, 0, 0, 0, -1, 0, -1, 0, -1, 0, 0, -1]],
                 float),
        np.zeros(len(VOCAB))),
        DecodeConfig(block=4, length=8, budget=4, temperature=1.0, nucleus_p=0.3, mode="sample",
                     seed=5),
        VOCAB),
    prefix=[], lanes=list(range(6)), resume=None))
def test_decode_block_matches_per_row_reference_on_coarse_tables(problem):
    test_decode_block_matches_per_row_reference.hypothesis.inner_test(problem)


@st.composite
def chunked_problems(draw):
    """A batch of rows, some already ended, and a split of it into
    consecutive chunks: any cuts, or one row per chunk."""
    block = draw(st.sampled_from([4, 8]))
    length = block * draw(st.integers(1, 4))
    prefix_len = draw(st.integers(0, min(length - 2, block)))
    cfg = DecodeConfig(
        block=block, length=length, budget=block,
        temperature=draw(st.sampled_from([1.0, 1.1])),
        nucleus_p=draw(st.sampled_from([0.3, 0.95, 1.0])),
        mode=draw(st.sampled_from(["confidence", "sample"])),
        seed=draw(st.integers(-2**40, 2**40)))
    params = PredictorParams.init(
        len(VOCAB), dim=draw(st.integers(2, 12)), window=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**16)), scale=draw(st.sampled_from([0.1, 1.0, 3.0])))
    rows = draw(st.integers(1, 24))
    cuts = draw(st.one_of(st.just(list(range(1, rows))),
                          st.sets(st.integers(1, max(1, rows - 1)), max_size=rows - 1)))
    return dict(
        dec=Decoder(params, cfg, VOCAB),
        prefix=draw(st.lists(st.sampled_from(BODY), min_size=prefix_len,
                             max_size=prefix_len)),
        lanes=draw(st.lists(LANES, min_size=rows, max_size=rows, unique=True)),
        # Rows that hold an EOS from this position on before decoding starts.
        ended=draw(st.lists(st.one_of(st.none(), st.integers(1 + prefix_len, length - 1)),
                            min_size=rows, max_size=rows)),
        cuts=sorted(cuts))


@settings(max_examples=300, deadline=None)
@given(chunked_problems())
@example(dict(  # one row per chunk, one row ended at its first free position
    dec=Decoder(PredictorParams.init(len(VOCAB), 6, 3, seed=7, scale=3.0),
                DecodeConfig(block=8, length=24, budget=8, temperature=1.1,
                             nucleus_p=0.95, mode="sample", seed=3), VOCAB),
    prefix=["C"], lanes=[98, 99, 100, 101], ended=[None, 2, None, None], cuts=[1, 2, 3]))
def test_decoding_consecutive_chunks_matches_the_whole_batch(problem):
    # Search decodes the candidates and rollouts of several iterations in one
    # call; that is exact only if a row's decoding ignores the rows beside it.
    dec, lanes = problem["dec"], np.array(problem["lanes"])
    whole = dec.frame(len(lanes), problem["prefix"])
    for row, at in enumerate(problem["ended"]):
        if at is not None:
            whole[row, at:] = Vocab.EOS_ID
    chunks = np.split(whole.copy(), problem["cuts"])
    keys = lane_keys(dec.cfg.seed, lanes)
    start = 1 + len(problem["prefix"])
    for b in range(start // dec.cfg.block, dec.cfg.fragment.num_blocks):
        dec.decode_block(whole, b, keys, start)
        for chunk, chunk_keys in zip(chunks, np.split(keys, problem["cuts"])):
            dec.decode_block(chunk, b, chunk_keys, start)
        assert np.array_equal(np.concatenate(chunks), whole)


# --- batch invariance ---------------------------------------------------------


@st.composite
def invariance_problems(draw):
    """N rows at block b of a window of S = (b + 1) K tokens from 8 to 48, a
    subset of them (any rows, or one), and whether the block groups its rows:
    N = 1, and N on both sides of 150.  Rows repeat a few starts or are all
    distinct, and some have already ended."""
    block = draw(st.sampled_from([4, 8]))
    b = draw(st.integers(8 // block - 1, 48 // block - 1))
    hi = (b + 1) * block
    cfg = DecodeConfig(
        block=block, length=hi + block * draw(st.integers(0, 2)), budget=block,
        temperature=draw(st.sampled_from([0.5, 1.0, 1.1])),
        nucleus_p=draw(st.sampled_from([0.3, 0.95, 1.0])),
        mode=draw(st.sampled_from(["confidence", "sample"])),
        seed=draw(st.integers(-2**40, 2**40)))
    params = PredictorParams.init(
        len(VOCAB), dim=draw(st.integers(1, 24)), window=draw(st.integers(0, 24)),
        seed=draw(st.integers(0, 2**16)), scale=draw(st.sampled_from([0.1, 1.0, 3.0])))
    n = draw(st.one_of(st.just(1), st.sampled_from([149, 150, 151, 152]),
                       st.integers(2, 149), st.integers(151, 400)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    starts = rng.integers(Vocab.MASK_ID + 1, len(VOCAB), (n if draw(st.booleans()) else 3, hi))
    ids = starts[rng.integers(0, starts.shape[0], n)]
    ids[:, 0] = Vocab.BOS_ID
    ended = rng.random(n) < 0.1
    ids[ended, hi - 1:] = Vocab.EOS_ID
    return dict(dec=Decoder(params, cfg, VOCAB), ids=ids, b=b,
                start=draw(st.integers(1, hi - 1)), lanes=draw(LANES) + np.arange(n),
                subset=np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.2, 0.7])))
                if draw(st.booleans()) else rng.integers(0, n, 1),
                group_rows=draw(st.sampled_from([0, 10**9])))


@settings(max_examples=100, deadline=None)
@given(invariance_problems())
def test_a_row_gets_the_same_logits_and_tokens_in_any_subset_of_its_call(problem):
    # A row's logits are sums of table slices in a fixed order, so the rows
    # beside it in a call, grouped or not, cannot move a bit of them.
    dec, ids, b, start = problem["dec"], problem["ids"], problem["b"], problem["start"]
    subset = problem["subset"]
    hi, shown = (b + 1) * dec.cfg.block, max(start, b * dec.cfg.block)
    windows = ids[:, :hi].copy()
    windows[:, shown:] = Vocab.MASK_ID
    whole = dec._prefix_logits(windows, b, shown)
    assert np.array_equal(whole[subset], dec._prefix_logits(windows[subset], b, shown))

    keys = lane_keys(dec.cfg.seed, problem["lanes"])
    runs = []
    for rows in (slice(None), subset):
        calls, got = [], ids[rows].copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decode, "GROUP_ROWS", problem["group_rows"])
            predict = diffusion.predict

            def spy(logits, masked, *args):
                calls.append({row.tobytes() for row in logits})
                return predict(logits, masked, *args)

            mp.setattr(diffusion, "predict", spy)
            dec.decode_block(got, b, keys[rows], start)
        runs.append((calls, got))
    (calls, got), (sub_calls, sub_got) = runs
    assert np.array_equal(got[subset], sub_got)
    # Each step's logits in the subset's call are among the whole call's.
    assert len(sub_calls) <= len(calls)
    assert all(sub <= every for sub, every in zip(sub_calls, calls))


@settings(max_examples=100, deadline=None)
@given(invariance_problems())
def test_table_logits_are_the_training_forward_form_within_1e_12(problem):
    # Decoding reads the predictor through its logit table, training through
    # _pooled and a projection: two forms of one sum, apart only by rounding.
    dec, ids, b, start = problem["dec"], problem["ids"], problem["b"], problem["start"]
    params, K = dec.params, dec.cfg.block
    hi, shown = (b + 1) * K, max(start, b * K)
    windows = ids[:, :hi].copy()
    windows[:, shown:] = Vocab.MASK_ID
    got = dec._prefix_logits(windows, b, shown)
    want = pooled(params, windows, np.arange(hi), np.arange(b * K, hi)) @ params.out + params.bias
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(-2**62, 2**62),
       lanes=st.lists(st.integers(0, 10**7), min_size=1, max_size=50),
       parts=st.lists(st.integers(-10**9, 10**9), max_size=4))
@example(seed=0, lanes=[8, 9, 10, 99, 100], parts=[0, 0])
@example(seed=-1, lanes=[0], parts=[])
def test_lane_uniforms_equal_key_uniform(seed, lanes, parts):
    got = lane_uniforms(lane_keys(seed, np.array(lanes)), *parts)
    want = [key_uniform(seed, lane, *parts) for lane in lanes]
    assert got.dtype == np.float64
    assert got.tolist() == want


def ref_pooled(params, windows, positions, targets):
    W = params.window
    vis = (windows != Vocab.MASK_ID).astype(np.float64)
    emb = params.embeddings[windows] * vis[:, :, None]
    rel = np.clip(positions[targets][:, None] - positions[None, :], -W, W) + W
    gain = params.gains[rel]
    return np.einsum("nsd,jsd->njd", emb, gain, optimize=True)


@settings(max_examples=300, deadline=None)
@given(n=st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 2100)),
       s=st.integers(2, 72), j=st.integers(1, 16), dim=st.integers(1, 32),
       seed=st.integers(0, 2**16))
@example(n=1, s=2, j=1, dim=24, seed=0)  # training's windows hold 2L >= 2 columns
@example(n=1, s=48, j=8, dim=24, seed=0)
@example(n=2000, s=48, j=16, dim=24, seed=0)
def test_pooled_equals_einsum(n, s, j, dim, seed):
    j = min(j, s)
    rng = np.random.default_rng(seed)
    params = PredictorParams.init(len(VOCAB), dim, window=6, seed=seed, scale=1.0)
    params.bias[:] = rng.normal(size=len(VOCAB))
    windows = rng.integers(0, len(VOCAB), size=(n, s))
    positions = np.arange(s) + int(rng.integers(0, 40))
    targets = np.arange(s - j, s)
    got = pooled(params, windows, positions, targets)
    want = ref_pooled(params, windows, positions, targets)
    assert np.array_equal(got, want)
    # The layout of h decides how the next matmul sums, so compare it too.
    assert np.array_equal(got @ params.out + params.bias, want @ params.out + params.bias)


# --- grouping rows by window -------------------------------------------------


@st.composite
def tiled_problems(draw):
    """Up to 200 rows tiled from a few distinct starts of one length, some
    ended, on random or coarse tables, in both modes."""
    block = draw(st.sampled_from([4, 8]))
    length = block * draw(st.integers(1, 4))
    prefix_len = draw(st.integers(0, min(length - 2, 2 * block)))
    cfg = DecodeConfig(
        block=block, length=length, budget=block,
        temperature=draw(st.sampled_from([0.5, 1.0, 1.1])),
        nucleus_p=draw(st.sampled_from([0.3, 0.5, 0.95, 1.0])),
        mode=draw(st.sampled_from(["confidence", "sample"])),
        seed=draw(st.integers(-2**40, 2**40)))
    dim, window = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        params = coarse_params(draw, dim, window)
    else:
        params = PredictorParams.init(len(VOCAB), dim, window, seed=draw(st.integers(0, 2**16)),
                                      scale=draw(st.sampled_from([0.1, 1.0, 3.0])))
    dec = Decoder(params, cfg, VOCAB)
    starts = draw(st.lists(st.lists(st.sampled_from(BODY), min_size=prefix_len,
                                    max_size=prefix_len), min_size=1, max_size=4))
    starts = np.concatenate([dec.frame(1, prefix) for prefix in starts])
    for row in starts:  # a start may already hold an EOS, as an ended row does
        at = draw(st.one_of(st.none(), st.integers(1 + prefix_len, length - 1)))
        if at is not None:
            row[at:] = Vocab.EOS_ID
    n = draw(st.integers(1, 200))
    tile = np.arange(n) % len(starts) if draw(st.booleans()) else np.arange(n) * len(starts) // n
    lanes = draw(LANES) + np.arange(n)
    return dict(dec=dec, ids=starts[tile], start=1 + prefix_len,
                lanes=lanes[::-1] if draw(st.booleans()) else lanes)


ONE_GROUP = Decoder(PredictorParams.init(len(VOCAB), 6, 3, seed=7, scale=3.0),
                    DecodeConfig(block=8, length=32, budget=8, temperature=1.0, nucleus_p=0.95),
                    VOCAB)


@settings(max_examples=150, deadline=None)
@given(tiled_problems())
@example(dict(  # 150 rows of one start, in one group that never splits
    dec=ONE_GROUP, ids=ONE_GROUP.frame(150, ["C", "C"]), start=3, lanes=np.arange(150)))
def test_grouped_decoding_matches_ungrouped(problem):
    dec, start = problem["dec"], problem["start"]
    keys = lane_keys(dec.cfg.seed, problem["lanes"])
    got = {}
    for rows in (0, len(keys) + 1):  # every block grouped, and none
        ids = problem["ids"].copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decode, "GROUP_ROWS", rows)
            blocks = []
            for b in range(start // dec.cfg.block, dec.cfg.fragment.num_blocks):
                dec.decode_block(ids, b, keys, start)
                blocks.append(ids.copy())
        got[rows] = blocks, dec.records(ids)
    (grouped, records), (ungrouped, want) = got.values()
    assert all(np.array_equal(a, b) for a, b in zip(grouped, ungrouped))
    assert records == want

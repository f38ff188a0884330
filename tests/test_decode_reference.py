"""Batched block decoding against the per-row reference.

The reference below is the original decode step: after each predictor call it
walks the rows that still hold a MASK one by one, draws that row's uniforms
with the scalar ``key_uniform``, picks its position and token, and commits
it.  ``Decoder.decode_block`` now commits every row in one batched step with
uniforms computed in numpy; both must commit the same tokens and finish the
same rows in the same blocks.
"""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockmol import diffusion
from blockmol.chem import Vocab, tokenize
from blockmol.decode import (BudgetExhausted, DecodeConfig, Decoder, key_uniform,
                             lane_keys, lane_uniforms)
from blockmol.diffusion import PredictorParams

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


def ref_finish(state, n, b):
    row = state.ids[n]
    row[row == Vocab.MASK_ID] = Vocab.EOS_ID
    first = int(np.argmax(row == Vocab.EOS_ID))
    row[first:] = Vocab.EOS_ID
    state.done[n] = True
    state.finish_block[n] = b


def ref_decode_block(dec, state, b, row_offset=0):
    cfg = dec.cfg
    K = cfg.block
    hi = (b + 1) * K
    start = max(1, b * K, state.protect)
    live = np.nonzero(~state.done)[0]
    if start >= hi or live.shape[0] == 0:
        return
    if hi - start > cfg.budget:
        raise BudgetExhausted(hi - start, cfg.budget, b)
    for n in live:
        state.ids[n, start:hi] = Vocab.MASK_ID

    positions = np.arange(hi)
    active = np.arange(b * K, hi)
    for step in range(hi - start):
        rows = np.nonzero((state.ids[:, b * K : hi] == Vocab.MASK_ID).any(axis=1))[0]
        if rows.shape[0] == 0:
            break
        probs = diffusion.predict(
            dec.params, state.ids[rows, :hi], positions, active,
            temperature=cfg.temperature, nucleus_p=cfg.nucleus_p)
        probs[:, :, Vocab.MASK_ID] = 0.0
        for r, n in enumerate(rows):
            masked = state.ids[n, b * K : hi] == Vocab.MASK_ID
            j, v = ref_gcd_select(probs[r], masked)
            if probs[r, j].max() == 0.0:  # the nucleus kept only MASK
                v = Vocab.EOS_ID
            elif cfg.mode == "sample":
                v = ref_draw_token(cfg, probs[r, j], row_offset + n, b, step)
            state.ids[n, b * K + j] = v
            if v == Vocab.EOS_ID:
                ref_finish(state, n, b)


# --- drawn decode problems ---------------------------------------------------

VOCAB = Vocab.build(tokenize(s) for s in (
    "CC(=O)Nc1ccc(O)cc1", "C1CCN(CC1)C(=O)O", "c1ccncc1Cl", "CCS(=O)(=O)N",
    "C=CC#N", "Brc1cc[nH]c1", "C[C@@H](F)[O-]"))
BODY = VOCAB.tokens[4:]
# Lanes are keyed by their decimal text, so offsets near 9 and 99 make the
# batch cross a change in key length.
OFFSETS = st.one_of(st.sampled_from([0, 3, 9, 62, 81, 95, 99]),
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
    return dict(
        dec=Decoder(params, cfg, VOCAB),
        rows=draw(st.integers(1, 40)),
        prefix=draw(st.lists(st.sampled_from(BODY), min_size=prefix_len,
                             max_size=prefix_len)),
        row_offset=draw(OFFSETS),
        # After the first block, restart from the decoded rows as search does:
        # None keeps the state, "rows" rebuilds it, "tile" repeats row 0.
        resume=draw(st.sampled_from([None, "rows", "tile"])))


def assert_same_state(got, want):
    assert np.array_equal(got.ids, want.ids)
    assert np.array_equal(got.done, want.done)
    assert np.array_equal(got.finish_block, want.finish_block)
    assert got.protect == want.protect


@settings(max_examples=300, deadline=None)
@given(decode_problems())
@example(dict(  # sample mode, lanes 95..134, a prefix ending mid-block
    dec=Decoder(PredictorParams.init(len(VOCAB), 6, 3, seed=7, scale=3.0),
                DecodeConfig(block=8, length=32, budget=8,
                             temperature=0.7, nucleus_p=0.9, mode="sample",
                             seed=-12), VOCAB),
    rows=40, prefix=["C", "C", "(", "=", "O"], row_offset=95, resume="tile"))
def test_decode_block_matches_per_row_reference(problem):
    dec, row_offset = problem["dec"], problem["row_offset"]
    got = dec.fresh_state(problem["rows"], problem["prefix"])
    want = copy.deepcopy(got)
    b0 = got.protect // dec.cfg.block
    for b in range(b0, dec.cfg.fragment.num_blocks):
        try:
            ref_decode_block(dec, want, b, row_offset)
        except BudgetExhausted as err:
            with pytest.raises(BudgetExhausted) as raised:
                dec.decode_block(got, b, row_offset)
            assert (raised.value.needed, raised.value.block) == (err.needed, err.block)
            assert_same_state(got, want)
            return
        dec.decode_block(got, b, row_offset)
        assert_same_state(got, want)
        if b == b0 and problem["resume"]:
            rows = got.ids
            if problem["resume"] == "tile":
                rows = np.tile(rows[0], (rows.shape[0], 1))
            got = dec.state_from_rows(rows, protect=1)
            want = dec.state_from_rows(rows, protect=1)


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
       s=st.integers(1, 72), j=st.integers(1, 16), dim=st.integers(1, 32),
       seed=st.integers(0, 2**16))
@example(n=1, s=1, j=1, dim=24, seed=0)  # nothing to sum: einsum multiplies
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
    got = diffusion._pooled(params, windows, positions, targets)
    want = ref_pooled(params, windows, positions, targets)
    assert np.array_equal(got, want)
    # The layout of h decides how the next matmul sums, so compare it too.
    assert np.array_equal(got @ params.out + params.bias, want @ params.out + params.bias)

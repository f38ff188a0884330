"""Adaptive confidence decoding: rng keying, schedule, selection, budgets."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from blockmol import diffusion
from blockmol.chem import Vocab
from blockmol.decode import (
    BudgetExhausted,
    DecodeConfig,
    Decoder,
    ZeroMasked,
    first_hitting_step,
    gcd_select,
    key_uniform,
    lane_keys,
    lane_uniforms,
    step_keys,
)
from blockmol.diffusion import OutOfRange, PredictorParams


def test_key_uniform_is_deterministic_and_keyed():
    assert key_uniform(1, 2, 3) == key_uniform(1, 2, 3)
    assert key_uniform(1, 2, 3) != key_uniform(1, 2, 4)
    assert key_uniform(12, 3) != key_uniform(1, 23)  # separator matters
    for parts in [(0,), (7, 0, 0, 0), (2**40, 5)]:
        u = key_uniform(*parts)
        assert 0.0 < u < 1.0


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(-2**62, 2**62),
       lanes=st.lists(st.integers(0, 10**7), min_size=1, max_size=12),
       b=st.one_of(st.sampled_from([0, 9, 10, 99, 100]), st.integers(0, 10**6)),
       steps=st.integers(1, 120))
@example(seed=-1, lanes=[9, 10, 99, 100], b=9, steps=12)
@example(seed=-(2**40), lanes=[0], b=99, steps=101)
def test_step_keys_give_each_steps_uniforms(seed, lanes, b, steps):
    # A block's uniforms, built once for all of its steps, are the scalar
    # key_uniform of both of the decoder's streams: time and token draw.
    keys = step_keys(lane_keys(seed, np.array(lanes)), b, steps)
    assert keys.shape == (len(lanes), steps)
    for stream in ((), (0xD0,)):
        want = [[key_uniform(seed, lane, b, step, *stream) for step in range(steps)]
                for lane in lanes]
        assert lane_uniforms(keys, *stream).tolist() == want


def test_key_uniform_rough_uniformity():
    us = np.array([key_uniform(9, i) for i in range(4000)])
    assert abs(us.mean() - 0.5) < 0.02
    assert abs(us.var() - 1.0 / 12.0) < 0.005


def test_first_hitting_formula_and_domain():
    assert first_hitting_step(1.0, 1, 0.25) == 0.25
    assert first_hitting_step(0.5, 4, 0.0625) == 0.5 * 0.0625**0.25
    with pytest.raises(ZeroMasked):
        first_hitting_step(0.5, 0, 0.5)
    with pytest.raises(OutOfRange):
        first_hitting_step(1.5, 2, 0.5)
    with pytest.raises(OutOfRange):
        first_hitting_step(0.5, 2, 0.0)


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_first_hitting_matches_max_of_uniforms(m):
    # t_next / t should follow the max-of-m-uniforms law F(x) = x^m.
    draws = np.array([
        first_hitting_step(1.0, m, key_uniform(31, m, i)) for i in range(20_000)
    ])
    stat = stats.kstest(draws, lambda x: np.clip(x, 0, 1) ** m)
    assert stat.pvalue > 0.01, stat


def test_gcd_select_exhaustive_two_position():
    # every 2-position, |V|=3 table against a brute-force max scan
    grid = [0.05, 0.25, 0.7]
    for table in itertools.product(grid, repeat=6):
        probs = np.array(table).reshape(2, 3)
        masked = np.array([True, True])
        j, v, conf = gcd_select(probs, masked)
        best = max(
            ((probs[jj, vv], -jj, -vv) for jj in range(2) for vv in range(3)),
            key=lambda x: x,
        )
        assert conf == probs[j, v]
        assert probs[j].max() == probs[int(-best[1])].max()
        # ties break toward the lowest position, then lowest token id
        cands = [jj for jj in range(2) if probs[jj].max() == conf]
        assert j == min(cands)
        assert v == int(np.argmax(probs[j]))


def test_gcd_select_respects_mask():
    probs = np.array([[0.9, 0.1], [0.2, 0.8]])
    j, v, _ = gcd_select(probs, np.array([False, True]))
    assert (j, v) == (1, 1)
    with pytest.raises(ZeroMasked):
        gcd_select(probs, np.array([False, False]))


def test_decode_config_validation():
    with pytest.raises(OutOfRange):
        DecodeConfig(block=8, length=44)
    with pytest.raises(OutOfRange):
        DecodeConfig(budget=0)
    with pytest.raises(OutOfRange):
        DecodeConfig(temperature=0.0)
    with pytest.raises(OutOfRange):
        DecodeConfig(mode="greedy")


@pytest.fixture(scope="module")
def trained42(trained):
    return trained(42)[0]


def test_budget_phase_transition(trained42, vocab):
    # block 0 holds BOS, so 7 calls suffice there, but every later block
    # needs the full K=8; budget 7 must abort, 8 must finish.
    short = Decoder(trained42, DecodeConfig(block=8, length=48, budget=7,
                                            mode="sample", seed=5), vocab)
    assert short.generate(4) == []
    outputs = []
    for budget in (8, 100, 1000):
        dec = Decoder(trained42, DecodeConfig(block=8, length=48, budget=budget,
                                              mode="sample", seed=5), vocab)
        recs = dec.generate(4)
        assert len(recs) == 4
        outputs.append([(r.smiles, r.completed, r.block_count) for r in recs])
    assert outputs[0] == outputs[1] == outputs[2]


def test_gcd_batch_lanes_identical(trained42, vocab):
    dec = Decoder(trained42, DecodeConfig(block=8, length=48, budget=64,
                                          mode="confidence", seed=1), vocab)
    recs = dec.generate(5)
    assert len({r.smiles for r in recs}) == 1
    assert recs[0].smiles == dec.generate(1)[0].smiles


def test_sample_mode_rerun_identity(trained42, vocab):
    cfg = DecodeConfig(block=8, length=48, budget=64, mode="sample", seed=77)
    a = Decoder(trained42, cfg, vocab).generate(6)
    b = Decoder(trained42, cfg, vocab).generate(6)
    assert [r.smiles for r in a] == [r.smiles for r in b]
    c = Decoder(trained42, DecodeConfig(block=8, length=48, budget=64,
                                        mode="sample", seed=78), vocab).generate(6)
    assert [r.smiles for r in a] != [r.smiles for r in c]


def test_prefix_preserved(trained42, vocab, toy500):
    prefix = [t.text for t in toy500[0][:9]]
    dec = Decoder(trained42, DecodeConfig(block=8, length=48, budget=64,
                                          mode="sample", seed=3), vocab)
    for rec in dec.generate(4, prefix=prefix):
        assert list(rec.tokens[: len(prefix)]) == prefix


def test_resolved_positions_never_remasked(trained42, vocab):
    cfg = DecodeConfig(block=8, length=48, budget=64, mode="sample", seed=9)
    dec = Decoder(trained42, cfg, vocab)
    state = dec.fresh_state(3)
    resolved = {}
    for b in range(cfg.fragment.num_blocks):
        dec.decode_block(state, b)
        assert (state.ids[:, : (b + 1) * 8] != Vocab.MASK_ID).all()
        for (n, j), v in resolved.items():
            assert state.ids[n, j] == v
        for n in range(3):
            for j in range((b + 1) * 8):
                resolved[(n, j)] = int(state.ids[n, j])


def test_sampling_block_size_decoupled_from_training(trained42, vocab):
    # the same padded layout re-partitions under any K dividing L
    for K in (4, 8, 12):
        dec = Decoder(trained42, DecodeConfig(block=K, length=48, budget=64,
                                              mode="sample", seed=11), vocab)
        recs = dec.generate(2)
        assert len(recs) == 2 and all(r.smiles for r in recs)


@pytest.mark.parametrize("mode", ["confidence", "sample"])
def test_row_whose_nucleus_keeps_only_mask_ends(vocab, mode):
    # MASK holds more than half of every row's mass, so the p = 0.5 nucleus
    # keeps it alone and nothing is left once the decoder zeroes it.
    params = PredictorParams.init(len(vocab), 8, 4, seed=1)
    params.bias[Vocab.MASK_ID] = 8.0
    dec = Decoder(params, DecodeConfig(block=8, length=16, nucleus_p=0.5,
                                       mode=mode, seed=3), vocab)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no 0/0 in the draw
        recs = dec.generate(4)
    assert [(r.smiles, r.completed, r.block_count) for r in recs] == [("", True, 1)] * 4


def test_generate_empty_prefix_matches_none(trained42, vocab):
    cfg = DecodeConfig(block=8, length=48, budget=64, mode="confidence", seed=2)
    dec = Decoder(trained42, cfg, vocab)
    assert dec.generate(1, prefix=[])[0].smiles == dec.generate(1)[0].smiles


def test_vocab_size_guard(vocab):
    params = PredictorParams.zeros(len(vocab) + 1, dim=4, window=2)
    with pytest.raises(diffusion.VocabMismatch):
        Decoder(params, DecodeConfig(block=8, length=48), vocab)

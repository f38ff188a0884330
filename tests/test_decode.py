"""Adaptive confidence decoding: rng keying, schedule, selection, budgets."""

import io
import itertools
import json
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from blockmol import decode, diffusion
from blockmol.chem import Vocab, try_parse
from blockmol.decode import (
    BudgetExhausted,
    DecodeConfig,
    Decoder,
    GenRecord,
    ZeroMasked,
    _confidence,
    first_hitting_step,
    gcd_select,
    key_uniform,
    lane_keys,
    lane_uniforms,
    step_keys,
    write_jsonl,
)
from blockmol.diffusion import OutOfRange, PredictorParams
from blockmol.fragment import ConfigError


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
    # every 2-position, |V|=3 table and mask against a brute-force max scan;
    # a position's confidence is its best token's probability
    grid = [0.05, 0.25, 0.7]
    for table in itertools.product(grid, repeat=6):
        probs = np.array(table).reshape(2, 3)
        for masked in ([True, True], [True, False], [False, True]):
            masked = np.array(masked)
            j, conf = gcd_select(probs.max(axis=1), masked)
            best = max(probs[jj].max() for jj in range(2) if masked[jj])
            assert conf == best
            # ties break toward the lowest position
            assert j == min(jj for jj in range(2) if masked[jj] and probs[jj].max() == best)


def test_gcd_select_respects_mask():
    conf = np.array([[0.9, 0.8], [0.3, 0.3]])
    j, c = gcd_select(conf, np.array([[False, True], [True, True]]))
    assert j.tolist() == [1, 0] and c.tolist() == [0.8, 0.3]
    with pytest.raises(ZeroMasked):
        gcd_select(conf, np.array([[False, False], [True, True]]))


def test_decode_config_validation():
    with pytest.raises(ConfigError):
        DecodeConfig(block=8, length=44)
    with pytest.raises(ConfigError):
        DecodeConfig(budget=0)
    with pytest.raises(ConfigError):
        DecodeConfig(temperature=0.0)
    with pytest.raises(ConfigError):
        DecodeConfig(mode="greedy")
    for field, bad in (("block", dict(block=0)), ("block", dict(block=-8)),
                       ("temperature", dict(temperature=math.nan)),
                       ("nucleus_p", dict(nucleus_p=math.nan))):
        with pytest.raises(ConfigError, match=field):
            DecodeConfig(**bad)


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


def test_chunks_from_their_first_lane_join_to_the_whole_batch(trained42, vocab):
    dec = Decoder(trained42, DecodeConfig(block=8, length=48, budget=64,
                                          mode="sample", seed=9), vocab)
    for prefix in (None, ["C", "C", "("]):
        whole = dec.generate(7, prefix)
        assert len({r.smiles for r in whole}) > 1
        assert dec.generate(3, prefix) + dec.generate(4, prefix, first_lane=3) == whole
        assert dec.generate(2, prefix, first_lane=5) == dec.decode(7, prefix)[5:]


def test_budget_abort_is_picklable():
    err = pickle.loads(pickle.dumps(BudgetExhausted(8, 7, 2)))
    assert (err.needed, err.budget, err.block) == (8, 7, 2)
    assert str(err) == "block 2 needs 8 predictor calls but the budget is 7"


def test_gcd_batch_lanes_identical(trained42, vocab):
    dec = Decoder(trained42, DecodeConfig(block=8, length=48, budget=64,
                                          mode="confidence", seed=1), vocab)
    recs = dec.generate(5)
    assert len({r.smiles for r in recs}) == 1
    assert recs[0].smiles == dec.generate(1)[0].smiles


@pytest.mark.parametrize("mode", ["confidence", "sample"])
def test_only_sample_mode_builds_lane_keys(trained42, vocab, monkeypatch, mode):
    dec = Decoder(trained42, DecodeConfig(block=8, length=48, budget=64, mode=mode, seed=3),
                  vocab)
    want = [dec.decode(20), dec.decode(4, ["C", "C", "("], first_lane=7)]
    built = []

    def spy(seed, lanes):
        built.append(len(lanes))
        return lane_keys(seed, lanes)

    monkeypatch.setattr("blockmol.decode.lane_keys", spy)
    assert [dec.decode(20), dec.decode(4, ["C", "C", "("], first_lane=7)] == want
    assert built == ([20, 4] if mode == "sample" else [])


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
    ids, keys = dec.frame(3), lane_keys(cfg.seed, np.arange(3))
    resolved = {}
    for b in range(cfg.fragment.num_blocks):
        dec.decode_block(ids, b, keys)
        assert (ids[:, : (b + 1) * 8] != Vocab.MASK_ID).all()
        for (n, j), v in resolved.items():
            assert ids[n, j] == v
        for n in range(3):
            for j in range((b + 1) * 8):
                resolved[(n, j)] = int(ids[n, j])


def test_sampling_block_size_decoupled_from_training(trained42, vocab):
    # the same padded layout re-partitions under any K dividing L
    for K in (4, 8, 12):
        dec = Decoder(trained42, DecodeConfig(block=K, length=48, budget=64,
                                              mode="sample", seed=11), vocab)
        recs = dec.generate(2)
        assert len(recs) == 2 and all(r.smiles for r in recs)


@pytest.mark.parametrize("mode", ["confidence", "sample"])
def test_a_call_serving_several_rows_hands_the_predictor_several(trained42, vocab,
                                                                 monkeypatch, mode):
    # One row alone in a predictor call rounds otherwise than beside others,
    # so a group serving several rows is not handed over alone.
    predict, calls = diffusion.predict, []

    def spy(params, windows, *args):
        calls.append((windows.shape[0], dec.row_steps))
        return predict(params, windows, *args)

    monkeypatch.setattr(diffusion, "predict", spy)
    cfg = DecodeConfig(block=8, length=48, budget=64, mode=mode, seed=5)
    runs = {}
    for rows in (0, 10**6):  # every block grouped, and none
        monkeypatch.setattr(decode, "GROUP_ROWS", rows)
        dec = Decoder(trained42, cfg, vocab)
        calls.clear()
        records = [dec.decode(12), dec.decode(12, ["C", "C", "("]), dec.decode(1)]
        given = np.array([n for n, _ in calls])
        served = np.diff([0] + [steps for _, steps in calls])
        assert (given >= np.minimum(served, 2)).all() and (given <= served).all()
        assert (dec.predicted_rows, dec.row_steps) == (given.sum(), served.sum())
        runs[rows] = records, given, served
    (records, given, served), (want, given_each, served_each) = runs.values()
    assert records == want
    assert np.array_equal(served, served_each) and np.array_equal(given_each, served_each)
    assert given.sum() < served.sum()
    if mode == "confidence":  # its rows never part, so every call gets two
        assert np.array_equal(given, np.minimum(served, 2))


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


@pytest.mark.parametrize("mode", ["confidence", "sample"])
def test_rows_that_never_commit_eos_are_written_incomplete(vocab, mode):
    params = PredictorParams.init(len(vocab), 8, 4, seed=1)
    params.bias[Vocab.EOS_ID] = -50.0
    dec = Decoder(params, DecodeConfig(block=8, length=16, mode=mode, seed=3), vocab)
    out = io.StringIO()
    write_jsonl(dec.generate(4), out, seed=3)
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(lines) == 4
    assert [line["completed"] for line in lines] == [False] * 4
    assert all(line["block_count"] == 2 for line in lines)


def test_write_jsonl_parses_each_distinct_smiles_once(monkeypatch):
    parsed = []

    def counting(smiles):
        parsed.append(smiles)
        return try_parse(smiles)

    monkeypatch.setattr(decode, "try_parse", counting)
    smiles = ["CCO", "C1CC", "CCO", "", "C1CC", "CCO", "c1ccccc1"]
    records = [GenRecord((), s, bool(s), 1) for s in smiles]
    out = io.StringIO()
    write_jsonl(records, out, seed=5)
    assert parsed == ["CCO", "C1CC", "", "c1ccccc1"]
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [line["smiles"] for line in lines] == smiles
    assert [line["valid"] for line in lines] == [True, False, True, False, False, True, True]


@st.composite
def tied_rows(draw):
    """Distributions over a few integer levels, so that entries tie, MASK
    among them, and a p that often lands on a tied top entry."""
    rows, width = draw(st.integers(1, 6)), draw(st.integers(5, 12))
    raw = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]),
                                 min_size=rows * width, max_size=rows * width)))
    raw = raw.reshape(rows, width)
    raw[:, draw(st.integers(0, width - 1))] += 1.0  # no all-zero row
    p = draw(st.one_of(st.sampled_from([0.25, 0.5, 0.95, 1.0]),
                       st.floats(0.0, 1.0, exclude_min=True)))
    return raw / raw.sum(axis=1, keepdims=True), p


@settings(max_examples=500, deadline=None)
@given(tied_rows())
@example((np.array([[0.0, 0.0, 0.0, 0.5, 0.0, 0.5]]), 0.5))  # MASK wins the tie
@example((np.array([[0.0, 0.0, 0.5, 0.5, 0.0, 0.0]]), 0.5))  # EOS wins it
# keep == 1 with the top token at the cut, alone there: read off the cut
@example((np.array([[0.1, 0.2, 0.1, 0.0, 0.6], [0.0, 0.0, 0.0, 0.4, 0.6]]), 0.5))
# the top token ties MASK and a later token at the cut, and the later one drops
@example((np.array([[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]]) / 3.0, 0.5))
# equal entries straddle a cut below the top token: only the chosen row shows it
@example((np.array([[0.4, 0.2, 0.0, 0.2, 0.2], [0.5, 0.0, 0.0, 0.25, 0.25]]), 0.7))
def test_confidence_read_off_the_cut_is_the_truncated_rows_max(problem):
    probs, p = problem
    tokens = np.arange(probs.shape[1]) != Vocab.MASK_ID
    nucleus = diffusion.nucleus_cut(probs, p)
    truncated = diffusion.nucleus_expand(nucleus)
    # The decoder expands each row it chooses alone.
    for row in range(probs.shape[0]):
        chosen = diffusion.nucleus_expand(nucleus, np.array([row]))
        assert chosen.tobytes() == truncated[row].tobytes()
    truncated[:, Vocab.MASK_ID] = 0.0  # the decoder never commits MASK
    assert _confidence(nucleus, tokens).tobytes() == truncated.max(axis=1).tobytes()


@pytest.mark.parametrize("mode", ["confidence", "sample"])
def test_reused_decoder_matches_a_fresh_one(trained42, vocab, mode):
    # The decoder builds its predictor constants once; blocks decoded out of
    # order by one decoder must match a fresh decoder per block.
    cfg = DecodeConfig(block=8, length=48, nucleus_p=0.95, mode=mode, seed=5)
    reused = Decoder(trained42, cfg, vocab)
    keys = lane_keys(cfg.seed, np.arange(6))
    for b in (3, 0, 3):
        got = reused.frame(6, ["C", "C"])
        want = got.copy()
        reused.decode_block(got, b, keys)
        Decoder(trained42, cfg, vocab).decode_block(want, b, keys)
        assert np.array_equal(got, want)
        assert (got[:, b * 8:(b + 1) * 8] != Vocab.MASK_ID).all()


def test_generate_empty_prefix_matches_none(trained42, vocab):
    cfg = DecodeConfig(block=8, length=48, budget=64, mode="confidence", seed=2)
    dec = Decoder(trained42, cfg, vocab)
    assert dec.generate(1, prefix=[])[0].smiles == dec.generate(1)[0].smiles


def test_generate_of_no_rows_is_empty_and_negative_n_raises(trained42, vocab):
    # The CLI rejects "sample --n 0"; the library call decodes nothing.
    dec = Decoder(trained42, DecodeConfig(block=8, length=48), vocab)
    assert dec.generate(0) == []
    with pytest.raises(ValueError, match="n must be >= 0"):
        dec.generate(-1)


def test_vocab_size_guard(vocab):
    params = PredictorParams.zeros(len(vocab) + 1, dim=4, window=2)
    with pytest.raises(diffusion.VocabMismatch):
        Decoder(params, DecodeConfig(block=8, length=48), vocab)

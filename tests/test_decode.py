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

from blockmol import data, decode, diffusion
from blockmol.chem import CONTROL_TOKENS, ChemError, Vocab, tokenize, try_parse
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
from blockmol.fragment import ConfigError, reassemble


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
        calls.append((windows.shape[0], dec.counts["row_steps"]))
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
        counts = dec.counts
        assert (counts["predicted_rows"], counts["row_steps"]) == (given.sum(), served.sum())
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
    nucleus = diffusion.nucleus_cut(probs, p)
    truncated = diffusion.nucleus_expand(nucleus)
    # The decoder expands each row it chooses alone.
    for row in range(probs.shape[0]):
        chosen = diffusion.nucleus_expand(nucleus, np.array([row]))
        assert chosen.tobytes() == truncated[row].tobytes()
    truncated[:, Vocab.MASK_ID] = 0.0  # the decoder never commits MASK
    assert _confidence(nucleus).tobytes() == truncated.max(axis=1).tobytes()


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


# --- confidence read off the sort


def _confidence_by_reduce(nucleus, tokens):
    """The confidence as it was computed before ``Nucleus.top``: a reduce over
    every entry outside MASK's column, then the same reading of the cut."""
    probs, keep, cut, mass, _ = nucleus
    top = np.maximum.reduce(probs, axis=1, initial=0.0, where=tokens)
    conf = top / mass
    conf[top < cut] = 0.0
    tied = ((top == cut) & ((probs >= cut[:, None]).sum(axis=1) > keep)).nonzero()[0]
    if tied.size:
        truncated = diffusion.nucleus_expand(nucleus, tied)
        conf[tied] = np.maximum.reduce(truncated, axis=1, initial=0.0, where=tokens)
    return conf


@st.composite
def softmax_rows(draw):
    """Rows of a softmax, as ``predict`` gives them, with MASK's logit often the
    largest, tied with another's, or far below every other, and a p that is
    often 1."""
    rows, width = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    logits = np.array(draw(st.lists(st.floats(-30.0, 30.0), min_size=rows * width,
                                    max_size=rows * width))).reshape(rows, width)
    if width > Vocab.MASK_ID:
        for row in range(rows):
            other = draw(st.integers(0, width - 1))
            logits[row, Vocab.MASK_ID] = draw(st.sampled_from(
                [logits[row].max() + 1.0, logits[row, other], -50.0]))
    p = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)))
    return diffusion._softmax(logits), p


@settings(max_examples=400, deadline=None)
@given(st.one_of(softmax_rows(), tied_rows()))
@example((np.array([[0.1, 0.1, 0.1, 0.5, 0.2]]), 0.9))  # MASK holds the maximum
@example((np.array([[0.1, 0.0, 0.1, 0.4, 0.4]]), 0.9))  # MASK ties another token
@example((np.array([[0.1, 0.0, 0.1, 0.4, 0.4]]), 1.0))  # p = 1 sorts nothing
@example((np.array([[0.1, 0.0, 0.1, 0.5, 0.3]]), 1.0))
@example((np.array([[0.25, 0.75]]), 0.5))  # too narrow to hold a MASK column
def test_confidence_from_the_sort_equals_the_reduce_bitwise(problem):
    probs, p = problem
    tokens = np.arange(probs.shape[1]) != Vocab.MASK_ID
    nucleus = diffusion.nucleus_cut(probs, p)
    want = np.maximum.reduce(probs, axis=1, initial=0.0, where=tokens)
    assert nucleus.top.tobytes() == want.tobytes()
    if probs.shape[1] > Vocab.MASK_ID:  # as every vocab's rows are
        assert _confidence(nucleus).tobytes() == _confidence_by_reduce(nucleus, tokens).tobytes()


# --- verdicts from ids

BENCH_SMILES = data.toy_candidates(3)[::62]  # the benchmark predictor's corpus
BENCH_VOCAB = Vocab.build(tokenize(s) for s in BENCH_SMILES)
ROW_L = 48


def _row(*texts):
    """A row of ``ROW_L`` token texts: ``texts``, then PAD."""
    return list(texts) + ["[PAD]"] * (ROW_L - len(texts))


def _verdicts(vocab, rows):
    """(records, write_jsonl's valid) of the id rows of token texts ``rows``."""
    params = PredictorParams.zeros(len(vocab), 4, 2)
    dec = Decoder(params, DecodeConfig(block=8, length=ROW_L), vocab)
    records = dec.records(np.array([vocab.encode(row) for row in rows], dtype=np.int64))
    out = io.StringIO()
    write_jsonl(records, out, seed=0)
    return records, [json.loads(line)["valid"] for line in out.getvalue().splitlines()]


# Every kind of token, each of which tokenizes to itself, and fragments that
# only join into tokens.
_PIECES = ["C", "c", "N", "n", "O", "o", "S", "s", "P", "p", "B", "b", "F", "I", "Cl", "Br",
           "[nH]", "[NH4+]", "[O-]", "[C@@H]", "[13CH3]", "-", "=", "#", ":", "/", "\\",
           "0", "1", "7", "9", "%10", "%01", "%99", "(", ")", ".", "[", "]", "%", "l", "r", "H"]


@st.composite
def built_vocab_and_body(draw):
    """A vocab that ``Vocab.build`` makes of tokenized texts, the benchmark's
    among them, and a sequence of its body tokens, BOS included."""
    if draw(st.booleans()):
        vocab = BENCH_VOCAB
    else:
        texts = draw(st.lists(st.lists(st.sampled_from(_PIECES), max_size=12), min_size=1,
                              max_size=4))
        token_lists = []
        for pieces in texts:
            try:
                token_lists.append(tokenize("".join(pieces)))
            except ChemError:
                pass
        vocab = Vocab.build(token_lists)
    body = ("[BOS]",) + vocab.tokens[Vocab.MASK_ID + 1:]
    return vocab, draw(st.lists(st.sampled_from(body), max_size=30))


@settings(max_examples=300, deadline=None)
@given(built_vocab_and_body())
def test_joined_body_tokens_of_a_built_vocab_tokenize_back(problem):
    # What makes a verdict from ids sound: the SMILES of a row, its texts
    # joined, tokenizes back to the row's tokens, which the ids name.
    vocab, body = problem
    assert [tok.text for tok in tokenize("".join(body))] == body
    assert decode._id_tables(vocab) is not None


_TEXTS = [t for t in BENCH_VOCAB.tokens if t != "[MASK]"]


@st.composite
def edited_rows(draw):
    """Framed benchmark molecules, each with a few tokens overwritten by any
    token but MASK, BOS, EOS and PAD among them."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = _row("[BOS]", *(t.text for t in tokenize(draw(st.sampled_from(BENCH_SMILES)))),
                   "[EOS]")
        for _ in range(draw(st.integers(0, 3))):
            row[draw(st.integers(0, ROW_L - 1))] = draw(st.sampled_from(_TEXTS))
        rows.append(row)
    return rows


# One row for each rule that marks a row, and rows that no rule marks.
MARKED = [
    _row("[BOS]", "C", "[BOS]", "C", "[EOS]"),  # a BOS in the body
    _row("[BOS]", "C", ")", "C", "[EOS]"),  # a ')' with no open '('
    _row("[BOS]", "C", "(", "C", "[EOS]"),  # a '(' left open
    _row("[BOS]", "C", "1", "C", "C", "1", "C", "1", "[EOS]"),  # ring 1 used three times
    _row("[BOS]", "[PAD]", "[EOS]", "C"),  # no token before the first EOS
    _row("[EOS]", "C", "C"),  # nor here
]
UNMARKED = [
    _row("[BOS]", "C", "1", "C", "C", "1", "C", "1", "C", "C", "1", "[EOS]"),  # ring 1 reused
    _row("C", "C", "(", "C", ")", "O", "[EOS]", ")", "[BOS]"),  # no leading BOS; after EOS
    _row("[BOS]", "C", "[PAD]", "C"),  # PAD inside, and no EOS
    _row("[BOS]", "c", "1", "c", "c", "c", "1", "[EOS]"),  # balanced, yet does not parse
]


@settings(max_examples=300, deadline=None)
@given(st.one_of(edited_rows(), st.lists(st.lists(st.sampled_from(_TEXTS), min_size=ROW_L,
                                                  max_size=ROW_L), min_size=1, max_size=4)))
@example([MARKED[0]])
@example([MARKED[1]])
@example([MARKED[2]])
@example([MARKED[3]])
@example([MARKED[4]])
@example([MARKED[5]])
@example(UNMARKED)
def test_no_row_its_ids_mark_parses_and_every_verdict_is_the_parse(rows):
    records, valid = _verdicts(BENCH_VOCAB, rows)
    for rec, verdict in zip(records, valid):
        parses = try_parse(rec.smiles)[1] is None
        assert not (rec.proven_invalid and parses), rec.smiles
        assert verdict == parses, rec.smiles


def test_each_rule_marks_its_row_and_only_those():
    records, valid = _verdicts(BENCH_VOCAB, MARKED + UNMARKED)
    assert [rec.proven_invalid for rec in records] == [True] * len(MARKED) + [False] * 4
    assert valid == [False] * len(MARKED) + [True, True, True, False]


def test_ring_numbers_are_keyed_by_their_value():
    # '%01' closes the ring that '1' opens, as scan keys both as ring 1.  Ring
    # 65 shares ring 1's bit, which hides the odd counts of both: that row is
    # left to the parse.
    vocab = Vocab.build([tokenize("C1CC%01"), tokenize("C%11CC1"), tokenize("C%65CC1")])
    records, valid = _verdicts(vocab, [_row("[BOS]", "C", "1", "C", "C", "%01", "[EOS]"),
                                       _row("[BOS]", "C", "%11", "C", "C", "1", "[EOS]"),
                                       _row("[BOS]", "C", "%65", "C", "C", "1", "[EOS]")])
    assert [(rec.proven_invalid, ok) for rec, ok in zip(records, valid)] == [
        (False, True), (True, False), (False, False)]


def test_verdicts_from_ids_are_off_for_a_token_that_is_not_itself():
    # "C1" tokenizes to two tokens, so the ids of a row do not name the
    # tokens of its SMILES: "C1" "C" "C" "1" is cyclopropane, whose ids show
    # ring 1 used once.
    vocab = Vocab(tuple(CONTROL_TOKENS) + ("1", "C", "C1"))
    assert decode._id_tables(vocab) is None
    records, valid = _verdicts(vocab, [_row("[BOS]", "C1", "C", "C", "1", "[EOS]"),
                                       _row("[BOS]", "[EOS]")])
    assert [rec.proven_invalid for rec in records] == [False, False]
    assert valid == [True, False]


def test_equal_rows_share_one_record_and_one_reassembly(trained42, vocab, monkeypatch):
    calls = []

    def counting(ids, vocab):
        calls.append(ids)
        return reassemble(ids, vocab)

    monkeypatch.setattr(decode, "reassemble", counting)
    dec = Decoder(trained42, DecodeConfig(block=8, length=48, nucleus_p=0.95), vocab)
    records = dec.generate(1000)
    assert len(records) == 1000 and len(calls) == 1
    assert all(rec is records[0] for rec in records)

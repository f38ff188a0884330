"""Golden digests over decoded output.

`tests/test_decode_reference.py` checks the batched decode step against a
per-row step, but both share the predictor's pooling and nucleus code;
these digests pin what the decoder actually emits, so a change to the
predictor, the nucleus truncation, the decode step or any random stream
moves one of them.  A
change meant to keep decoded output byte-identical leaves all three as they
are; one that moves a random stream updates them and says so.
"""

import hashlib
import json

import numpy as np
import pytest

from blockmol import data, diffusion
from blockmol.chem import Vocab, tokenize
from blockmol.decode import DecodeConfig, Decoder
from blockmol.fragment import FragmentConfig, pad_and_partition
from blockmol.oracle import SurrogateOracle, load_profile
from blockmol.search import SearchConfig, run_search

LENGTH, BLOCK, BUDGET = 48, 8, 130

SAMPLE_DIGEST = "55e7833c9d0dbf29a26df286ef849b19e7fbb1a5a565f161a70eeaf25261e428"
CONFIDENCE_DIGEST = "b9d6713dc2c95d99c44bd6f7a89422d3b62c5ef745ccef62e8c2db16265ac692"
SEARCH_DIGEST = "a3642407f64f83f6fa7823aae95c5257934d048e21decb604f7936bc1cc600ba"
# The paths the three digests above skip: a temperature other than 1, and a
# nucleus cut in confidence mode.
WARM_SAMPLE_DIGEST = "80ab3478147c1746f732f9339fca2fcb40634236decc49eb923a808a79dbebf7"
CONFIDENCE_NUCLEUS_DIGEST = "d84ba869e42710703703cd1504640b8acab3dcc9e848fb1c6c6797d9ca6e13e2"


@pytest.fixture(scope="module")
def predictor():
    """The benchmark's predictor: 2 epochs on every 62nd grid candidate.

    The grid is enumerated without curation, so this file needs neither the
    session corpus nor its training.
    """
    frag = FragmentConfig(LENGTH, BLOCK)
    tokens = [t for t in (tokenize(s) for s in data.toy_candidates(3)[::62])
              if len(t) <= LENGTH - 2]
    vocab = Vocab.build(tokens)
    corpus = np.stack([pad_and_partition(t, frag, vocab) for t in tokens])
    params = diffusion.PredictorParams.init(len(vocab), dim=24, window=12, seed=0)
    params, _ = diffusion.train(params, corpus, BLOCK, epochs=2, lr=0.1, seed=0)
    return params, vocab, tokens


def decode_config(**kw) -> DecodeConfig:
    return DecodeConfig(block=BLOCK, length=LENGTH, budget=BUDGET, **kw)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def record_lines(records):
    return [json.dumps([r.smiles, r.completed, r.block_count]) for r in records]


def test_sample_mode_digest(predictor):
    params, vocab, _ = predictor
    dec = Decoder(params, decode_config(nucleus_p=0.95, mode="sample", seed=51000), vocab)
    records = dec.generate(600)
    assert len(records) == 600
    assert digest(record_lines(records)) == SAMPLE_DIGEST


def test_confidence_mode_digest(predictor):
    # Confidence mode commits each row's argmax, so rows differ only by prefix.
    params, vocab, tokens = predictor
    dec = Decoder(params, decode_config(nucleus_p=1.0, mode="confidence", seed=3), vocab)
    lines = []
    for toks in tokens[:40]:
        for cut in (0, 3, 9):
            lines += record_lines(dec.generate(2, toks[:cut] or None))
    assert len(lines) == 240
    assert digest(lines) == CONFIDENCE_DIGEST


def test_sample_mode_digest_at_temperature(predictor):
    params, vocab, _ = predictor
    dec = Decoder(params, decode_config(nucleus_p=0.95, temperature=1.1, mode="sample",
                                        seed=51000), vocab)
    records = dec.generate(600)
    assert len(records) == 600
    assert digest(record_lines(records)) == WARM_SAMPLE_DIGEST


def test_confidence_mode_digest_under_nucleus(predictor):
    params, vocab, tokens = predictor
    dec = Decoder(params, decode_config(nucleus_p=0.95, mode="confidence", seed=3), vocab)
    lines = []
    for toks in tokens[:40]:
        for cut in (0, 3, 9):
            lines += record_lines(dec.generate(2, toks[:cut] or None))
    assert len(lines) == 240
    assert digest(lines) == CONFIDENCE_NUCLEUS_DIGEST


def test_search_rollouts_digest(predictor):
    params, vocab, _ = predictor
    cfg = SearchConfig(n_max=150, c=3.0, beta=8.0, c_init=100, c_max=64, m=8, n_sim=8,
                       decode=decode_config(nucleus_p=0.95, seed=42))
    outcome = run_search(cfg, params, vocab, SurrogateOracle(load_profile("parp1")))
    assert outcome.iterations == 150
    lines = [r.to_json_line() for r in outcome.rollouts]
    assert digest(lines) == SEARCH_DIGEST

"""Golden digests over decoded output.

`tests/test_decode_reference.py` checks the batched decode step against a
per-row step, but both share the predictor's pooling and nucleus code;
these digests pin what the decoder actually emits, so a change to the
predictor, the nucleus truncation, the decode step or any random stream
moves one of them.  A change meant to keep decoded output byte-identical
leaves them as they are; one that moves a random stream bumps
``STREAM_VERSION`` and adds the new digests to ``GOLDENS`` (tests/conftest.py)
under it.
"""

import hashlib
import json

import numpy as np
import pytest

from blockmol import STREAM_VERSION, data, diffusion
from blockmol.chem import Vocab, tokenize
from blockmol.decode import DecodeConfig, Decoder
from blockmol.fragment import FragmentConfig, pad_and_partition
from blockmol.oracle import SurrogateOracle, load_profile
from blockmol.search import SearchConfig, run_search
from conftest import GOLDENS

LENGTH, BLOCK, BUDGET = 48, 8, 130

# The digests, by name: see GOLDENS.  WARM_SAMPLE_DIGEST and
# CONFIDENCE_NUCLEUS_DIGEST pin the paths the other three skip: a temperature
# other than 1, and a nucleus cut in confidence mode.
DIGESTS = GOLDENS[STREAM_VERSION]


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
    """At temperature 1.0 unless ``kw`` sets it: the GOLDENS were pinned at 1.0."""
    return DecodeConfig(block=BLOCK, length=LENGTH, budget=BUDGET, **{"temperature": 1.0, **kw})


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def record_lines(records):
    return [json.dumps([r.smiles, r.completed, r.block_count]) for r in records]


def test_sample_mode_digest(predictor):
    params, vocab, _ = predictor
    dec = Decoder(params, decode_config(nucleus_p=0.95, mode="sample", seed=51000), vocab)
    records = dec.generate(600)
    assert len(records) == 600
    assert digest(record_lines(records)) == DIGESTS["SAMPLE_DIGEST"]


def test_confidence_mode_digest(predictor):
    # Confidence mode commits each row's argmax, so rows differ only by prefix.
    params, vocab, tokens = predictor
    dec = Decoder(params, decode_config(nucleus_p=1.0, mode="confidence", seed=3), vocab)
    lines = []
    for toks in tokens[:40]:
        for cut in (0, 3, 9):
            lines += record_lines(dec.generate(2, toks[:cut] or None))
    assert len(lines) == 240
    assert digest(lines) == DIGESTS["CONFIDENCE_DIGEST"]


def test_sample_mode_digest_at_temperature(predictor):
    params, vocab, _ = predictor
    dec = Decoder(params, decode_config(nucleus_p=0.95, temperature=1.1, mode="sample",
                                        seed=51000), vocab)
    records = dec.generate(600)
    assert len(records) == 600
    assert digest(record_lines(records)) == DIGESTS["WARM_SAMPLE_DIGEST"]


def test_confidence_mode_digest_under_nucleus(predictor):
    params, vocab, tokens = predictor
    dec = Decoder(params, decode_config(nucleus_p=0.95, mode="confidence", seed=3), vocab)
    lines = []
    for toks in tokens[:40]:
        for cut in (0, 3, 9):
            lines += record_lines(dec.generate(2, toks[:cut] or None))
    assert len(lines) == 240
    assert digest(lines) == DIGESTS["CONFIDENCE_NUCLEUS_DIGEST"]


def test_search_rollouts_digest(predictor):
    params, vocab, _ = predictor
    cfg = SearchConfig(n_max=150, c=3.0, beta=8.0, c_init=100, c_max=64, m=8, n_sim=8,
                       decode=decode_config(nucleus_p=0.95, seed=42))
    outcome = run_search(cfg, params, vocab, SurrogateOracle(load_profile("parp1")))
    assert outcome.iterations == 150
    lines = [r.to_json_line() for r in outcome.rollouts]
    assert digest(lines) == DIGESTS["SEARCH_DIGEST"]

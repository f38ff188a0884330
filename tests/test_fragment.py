"""Padding layout and block partition arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmol.chem import Vocab, tokenize
from blockmol.diffusion import build_train_mask
from blockmol.fragment import (
    ConfigError,
    FragmentConfig,
    IncompleteSequence,
    TooLong,
    pad_and_partition,
    reassemble,
)
from test_chem_graph import smiles_like


def small_vocab():
    return Vocab.build([tokenize("CC(=O)Oc1ccccc1C(=O)O"), tokenize("CCN")])


def test_layout_bos_body_eos_pad():
    vocab = small_vocab()
    toks = tokenize("CCN")
    ids = pad_and_partition(toks, FragmentConfig(8, 4), vocab)
    assert ids.shape == (8,) and ids.dtype == np.int64
    assert ids[0] == Vocab.BOS_ID
    assert [vocab.tokens[i] for i in ids[1:4]] == ["C", "C", "N"]
    assert ids[4] == Vocab.EOS_ID
    assert (ids[5:] == Vocab.PAD_ID).all()


def test_block_partition_arithmetic():
    cfg = FragmentConfig(48, 8)
    assert cfg.num_blocks == 6
    # Every position lies in exactly one block, position // K: a noised
    # position attends exactly the noised positions of its own block.
    same_block = build_train_mask(cfg)[: cfg.length, : cfg.length]
    for position in range(cfg.length):
        b = position // cfg.block
        assert np.flatnonzero(same_block[position]).tolist() == list(
            range(b * cfg.block, (b + 1) * cfg.block))


def test_indivisible_length_rejected():
    with pytest.raises(ConfigError):
        FragmentConfig(10, 4)
    with pytest.raises(ConfigError):
        FragmentConfig(1, 1)


def test_overlong_sequence_rejected():
    vocab = small_vocab()
    with pytest.raises(TooLong):
        pad_and_partition(tokenize("CCN"), FragmentConfig(4, 2), vocab)


def test_repartition_same_layout():
    # K only regroups positions; the padded ids are identical.
    vocab = small_vocab()
    toks = tokenize("CC(=O)Oc1ccccc1C(=O)O")
    a = pad_and_partition(toks, FragmentConfig(32, 8), vocab)
    b = pad_and_partition(toks, FragmentConfig(32, 4), vocab)
    assert (a == b).all()
    assert FragmentConfig(32, 8).num_blocks == 4 and FragmentConfig(32, 4).num_blocks == 8


def test_reassemble_roundtrip():
    vocab = small_vocab()
    toks = tokenize("CC(=O)Oc1ccccc1C(=O)O")
    ids = pad_and_partition(toks, FragmentConfig(32, 8), vocab)
    assert reassemble(ids, vocab) == [t.text for t in toks]


def test_reassemble_rejects_masked():
    vocab = small_vocab()
    ids = pad_and_partition(tokenize("CCN"), FragmentConfig(8, 4), vocab)
    ids[2] = Vocab.MASK_ID
    with pytest.raises(IncompleteSequence):
        reassemble(ids, vocab)


@settings(max_examples=300, deadline=None)
@given(smiles_like(), st.integers(1, 16), st.integers(0, 3))
def test_pad_and_partition_then_reassemble_is_identity(text, block, spare_blocks):
    tokens = tokenize(text)
    vocab = Vocab.build([tokens])
    length = block * (-(-(len(tokens) + 2) // block) + spare_blocks)
    ids = pad_and_partition(tokens, FragmentConfig(length, block), vocab)
    assert reassemble(ids, vocab) == [t.text for t in tokens]

"""Tokenizer, parser, descriptor, and fingerprint checks."""

import gc

import pytest

from blockmol.chem import (
    AromaticityError,
    DanglingBond,
    EmptyMolecule,
    RingBondError,
    UnbalancedBranch,
    UnclosedRing,
    UnknownCharacter,
    ValenceExceeded,
    Vocab,
    descriptors,
    detokenize,
    fingerprint,
    fnv1a64,
    tanimoto,
    tokenize,
    try_parse,
    validate_smiles,
)

BROKEN_PREFIXES = [
    ("O=C(", UnbalancedBranch),
    ("C1CCCCC", UnclosedRing),
    ("c1ccccc", UnclosedRing),
    ("c1cc(", UnclosedRing),
    ("c1nc2", UnclosedRing),
    ("CC=", DanglingBond),
    ("CC#", DanglingBond),
    ("S(=O)(", UnbalancedBranch),
    ("N[C@@H](", UnbalancedBranch),
    ("c1ccc([N+](=O)", UnclosedRing),
]

COMPLETIONS = [
    "O=C(NCC=Cc1ccc(Br)cc1)c1cnn2c1OCCC2",
    "C1CCCCC1Nc1ccc(C#N)cc1[N+](=O)[O-]",
    "c1ccccc1Nc1ccc(C2=NCCO2)cc1",
    "c1cc(NC[C@@H]2CCSC2)ncn1",
    "C1CC1N=C(O)c1cc(Br)ccc1O",
    "c1nc2c(c(=NC3CCSCC3)[nH]1)CCCC2",
    "CC=CC(=O)c1ccc2c(c1)N=C(O)CCO2",
    "CC#N.COC(=O)c1ccc(F)cc1F",
    "S(=O)(=O)NC1CCc2ccccc2C1",
    "N[C@@H](CO)c1ccc2c(c1)N=C(O)CS2",
    "c1ccc([N+](=O)[O-])c(OC2CCCNC2)c1",
]


@pytest.mark.parametrize("prefix,err_cls", BROKEN_PREFIXES)
def test_broken_prefix_rejected(prefix, err_cls):
    mol, err = try_parse(prefix)
    assert mol is None
    assert type(err) is err_cls


def test_cyclopropane_prefix_is_itself_valid():
    # C1CC1 appears among the truncation exemplars but is a whole molecule.
    mol, err = try_parse("C1CC1")
    assert err is None
    assert descriptors(mol).max_ring_size == 3


@pytest.mark.parametrize("smiles", COMPLETIONS)
def test_completion_parses(smiles):
    mol, err = try_parse(smiles)
    assert err is None, err


def test_tokenize_roundtrip_on_completions():
    for smiles in COMPLETIONS + ["CC(=O)Oc1ccccc1C(=O)O", "C[C@@H](N)C(=O)O", "c1ccc2ccccc2c1"]:
        assert detokenize(tokenize(smiles)) == smiles


def test_tokenize_bracket_atom():
    texts = [t.text for t in tokenize("N[C@@H](CO)")]
    assert texts == ["N", "[C@@H]", "(", "C", "O", ")"]


def test_empty_input_rejected():
    mol, err = try_parse("")
    assert type(err) is EmptyMolecule


def test_pentavalent_carbon_rejected():
    mol, err = try_parse("C(C)(C)(C)(C)C")
    assert type(err) is ValenceExceeded


def test_failed_parses_leave_no_reference_cycles():
    # A returned error that kept its traceback held the parse frames, with
    # their atoms and bonds, in cycles only the cyclic collector frees.
    cases = [("C$C", UnknownCharacter), ("C1CC", UnclosedRing), ("CC(", UnbalancedBranch),
             ("CC=", DanglingBond), ("C11", RingBondError), ("cccc", AromaticityError),
             ("C(C)(C)(C)(C)C", ValenceExceeded), ("", EmptyMolecule)]
    gc.collect()
    gc.disable()
    try:
        kinds = [type(try_parse(text)[1]) for text, _ in cases for _ in range(10)]
        garbage = gc.collect()
    finally:
        gc.enable()
    assert kinds == [kind for _, kind in cases for _ in range(10)]
    assert garbage == 0


def test_aspirin_molecular_weight():
    d = descriptors(validate_smiles("CC(=O)Oc1ccccc1C(=O)O"))
    assert d.approx_mw == pytest.approx(180.16, abs=0.01)
    assert d.heavy_atoms == 13
    assert d.ring_count == 1


def test_ring_perception_sizes():
    cases = {
        "c1ccccc1": [6],
        "c1ccc2[nH]ccc2c1": [5, 6],  # indole skeleton
        "c1ccc2ccccc2c1": [6, 6],  # naphthalene
        "c1ccc2cc3ccccc3cc2c1": [6, 6, 6],  # anthracene
    }
    for smiles, sizes in cases.items():
        mol = validate_smiles(smiles)
        assert sorted(len(r) for r in mol.rings) == sizes, smiles


def test_norbornane_bridgeheads():
    d = descriptors(validate_smiles("C1CC2CCC1C2"))
    assert d.bridgehead_count == 2
    assert d.ring_count == 2


def test_descriptor_chain_values():
    d = descriptors(validate_smiles("CCCCCCCCCC"))
    assert d.heavy_atoms == 10
    assert d.ring_count == 0
    assert d.rotatable_proxy == 7  # terminal bonds never count
    assert d.hbd_proxy == 0 and d.hba_proxy == 0


def test_charge_bookkeeping():
    d = descriptors(validate_smiles("C[N+](C)(C)C"))
    assert d.charge_total == 1


def test_fingerprint_tanimoto_properties():
    mols = [validate_smiles(s) for s in COMPLETIONS[:6] + ["c1ccncc1"]]
    fps = [fingerprint(m) for m in mols]
    for fp in fps:
        assert tanimoto(fp, fp) == 1.0
    for a in fps:
        for b in fps:
            v = tanimoto(a, b)
            assert 0.0 <= v <= 1.0
            assert v == tanimoto(b, a)


def test_tanimoto_known_bitset_value():
    # bit sets {1,2,3} vs {2,3,4}: intersection 2, union 4.
    from blockmol.chem import Fingerprint

    a = Fingerprint((1 << 1) | (1 << 2) | (1 << 3), 256)
    b = Fingerprint((1 << 2) | (1 << 3) | (1 << 4), 256)
    assert tanimoto(a, b) == 0.5


def test_fingerprint_rejects_negative_bits():
    # int.bit_count counts a negative int's magnitude, so such a fingerprint
    # would score tanimoto(Fingerprint(-1, 256), Fingerprint(3, 256)) == 2.0.
    from blockmol.chem import Fingerprint

    with pytest.raises(ValueError, match="-1"):
        Fingerprint(-1, 256)
    assert Fingerprint(0, 256).bits == 0


def test_fnv1a64_frozen():
    # seed=0 is plain 64-bit FNV-1a; values per the published test vectors.
    assert fnv1a64(b"", seed=0) == 0xCBF29CE484222325
    assert fnv1a64(b"a", seed=0) == 0xAF63DC4C8601EC8C


def test_vocab_specials_and_roundtrip():
    toks = [tokenize("CC(=O)O"), tokenize("c1ccccc1")]
    vocab = Vocab.build(toks)
    assert (Vocab.PAD_ID, Vocab.BOS_ID, Vocab.EOS_ID, Vocab.MASK_ID) == (0, 1, 2, 3)
    ids = vocab.encode(toks[0])
    assert [vocab.tokens[i] for i in ids] == [t.text for t in toks[0]]
    assert Vocab.build(toks).content_hash() == vocab.content_hash()


def test_fingerprint_respects_width():
    mol = validate_smiles("CCO")
    fp = fingerprint(mol, 512)
    assert fp.width == 512 and fp.bits > 0
    assert fp.bits < (1 << 512)

"""Packed set-level similarity and chunked scoring against their references.

The similarity references below are the original metrics: one
``chem.tanimoto`` call per pair.  ``mean_pairwise_tanimoto`` now packs the
set into uint64 rows and works through row blocks with numpy popcounts, and
``circles`` tests each candidate against every packed center at once; both
must give the same bits.  The reference sums with an explicit left-to-right
loop, which is what CPython 3.11's ``sum`` of floats does (from 3.12 ``sum``
compensates).

The scoring reference is the original one-process ``_score_unique`` loop.
``_score_unique`` now scores the distinct strings in consecutive chunks, one
forked process per CPU; its result, and so every ``standard_metrics`` report,
must equal the reference's bit for bit for any process count.
"""

import json
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockmol import metrics, parallel
from blockmol.chem import (Fingerprint, WidthMismatch, descriptors, fingerprint, tanimoto,
                           try_parse)
from blockmol.data import toy_candidates
from blockmol.metrics import circles, diversity_score, mean_pairwise_tanimoto
from blockmol.oracle import Scored, SurrogateOracle, load_profile
from conftest import counting_forks

# --- reference: one tanimoto call per pair -----------------------------------


def ref_mean_pairwise(fps):
    total = 0.0
    for i in range(len(fps)):
        for j in range(i + 1, len(fps)):
            total += tanimoto(fps[i], fps[j])
    return total / (len(fps) * (len(fps) - 1) / 2)


def ref_circles(fps, threshold):
    centers = []
    for fp in fps:
        if all(tanimoto(fp, c) < threshold for c in centers):
            centers.append(fp)
    return len(centers)


def circles_at(fps, threshold):
    """``circles`` with ``metrics.CIRCLE_THRESHOLD`` set to ``threshold`` for the
    call; hypothesis runs many examples in one function-scoped fixture's life."""
    with mock.patch.object(metrics, "CIRCLE_THRESHOLD", threshold):
        return circles(fps)


# --- reference: the one-process scoring loop ---------------------------------


def ref_score_unique(samples, oracle):
    valid = 0
    seen = {}
    for smiles in samples:
        if smiles not in seen:
            mol, err = try_parse(smiles)
            if err is None:
                fp = fingerprint(mol, oracle.profile.fp_width)
                seen[smiles] = Scored(smiles, oracle.score_mol(mol, descriptors(mol), fp), fp)
            else:
                seen[smiles] = None
        if seen[smiles] is not None:
            valid += 1
    return valid, [s for s in seen.values() if s is not None]


# --- properties --------------------------------------------------------------


def bits(width):
    """Empty, crowded into 12 low bits (so ties and overlaps are common),
    sparse, dense, or running past the width."""
    return st.one_of(
        st.just(0),
        st.sets(st.integers(0, 11), max_size=8).map(lambda ps: sum(1 << p for p in ps)),
        st.sets(st.integers(0, width - 1), max_size=40).map(lambda ps: sum(1 << p for p in ps)),
        st.integers(0, (1 << width) - 1),
        st.integers(0, (1 << (width + 100)) - 1),
    )


@st.composite
def fingerprint_sets(draw):
    """Fingerprints drawn from a small pool, so duplicates are common."""
    width = draw(st.sampled_from([256, 2048]))
    pool = draw(st.lists(bits(width), min_size=1, max_size=10))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=90))
    return [Fingerprint(pool[k], width) for k in picks]


BLOCK_BYTES = st.sampled_from([0, 1, 3000, 40_000, metrics.PAIR_BLOCK_BYTES])


@settings(max_examples=300, deadline=None)
@given(fps=fingerprint_sets(), block_bytes=BLOCK_BYTES)
@example(fps=[Fingerprint(0, 256)] * 3, block_bytes=0)  # every union empty
@example(fps=[Fingerprint(0b11, 256), Fingerprint(0, 256)], block_bytes=0)
def test_mean_pairwise_equals_the_reference_bit_for_bit(fps, block_bytes):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "PAIR_BLOCK_BYTES", block_bytes)
        if len(fps) < 2:
            with pytest.raises(ZeroDivisionError):
                mean_pairwise_tanimoto(fps)
            assert diversity_score(fps) == 0.0
            return
        got = mean_pairwise_tanimoto(fps)
    assert type(got) is float
    assert got.hex() == ref_mean_pairwise(fps).hex()


@settings(max_examples=300, deadline=None)
@given(fps=fingerprint_sets(),
       threshold=st.one_of(st.sampled_from([0.25, 0.5, 0.75]),
                           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
@example(fps=[Fingerprint(0, 256)] * 3, threshold=0.5)
@example(fps=[Fingerprint(0b1111, 256), Fingerprint(0b0111, 256)], threshold=0.75)
def test_circles_equals_the_greedy_reference(fps, threshold):
    assert circles_at(fps, threshold) == ref_circles(fps, threshold)


@pytest.mark.parametrize("width,n", [(256, 200), (2048, 90)])
def test_mean_pairwise_over_several_default_blocks(width, n):
    # With the default block size these sets take more than one block.
    rows_per_block = metrics.PAIR_BLOCK_BYTES // (n * width // 8)
    assert rows_per_block < n - 1
    rng = random.Random(width)
    pool = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(n // 2)]
    fps = [Fingerprint(rng.choice(pool + [0]), width) for _ in range(n)]
    assert mean_pairwise_tanimoto(fps).hex() == ref_mean_pairwise(fps).hex()
    assert circles_at(fps, 0.3) == ref_circles(fps, 0.3)


ORACLE = SurrogateOracle(load_profile("parp1"))
# Grid candidates, and hits that fall into fewer circles than they number;
# then strings that do not parse.
VALID = list(toy_candidates.__wrapped__(3)[::1999]) + [
    "c1[nH]c(CC)cc1C(=O)NCC", "c1[nH]ccc1C(=O)NCCCNC", "c1cc(Cl)ncc1C(=O)NCCNCC",
    "c1cc(CC)cnc1CNCCNC", "c1ccc2[nH]c(F)cc2c1CCC(=O)NC"]
INVALID = ["C1CC", "not a molecule", "((", "c1ccc", "CC(", "[Xx]", "C)", ""]


def report_bytes(samples):
    return json.dumps(metrics.standard_metrics(samples, ORACLE).to_dict())


@settings(max_examples=40, deadline=None)
@given(samples=st.lists(st.sampled_from(VALID + INVALID), min_size=1, max_size=40))
@example(samples=INVALID + INVALID[:3])  # nothing valid
@example(samples=[VALID[0]] * 5)  # one distinct string
def test_chunked_scoring_equals_the_reference_bit_for_bit(samples):
    want = ref_score_unique(samples, ORACLE)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_score_unique", ref_score_unique)
        want_report = report_bytes(samples)
    for count in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "cpu_count", lambda: count)
            mp.setattr(metrics, "MIN_CHUNK_MOLECULES", 1)
            forks = counting_forks(mp)
            assert repr(metrics._score_unique(samples, ORACLE)) == repr(want), count
            assert len(forks) == min(count, len(set(samples))) - 1
            assert report_bytes(samples) == want_report, count


# --- failures ----------------------------------------------------------------


@pytest.mark.parametrize("fps", [
    [Fingerprint(1, 256), Fingerprint(1, 2048)],
    [Fingerprint(1, 256), Fingerprint(1, 256), Fingerprint(0, 512)],
])
def test_mixed_widths_raise_width_mismatch(fps):
    with pytest.raises(WidthMismatch):
        mean_pairwise_tanimoto(fps)
    with pytest.raises(WidthMismatch):
        diversity_score(fps)
    with pytest.raises(WidthMismatch):
        circles(fps)


def test_bits_past_the_width_count_as_tanimoto_counts_them():
    # A hand-made fingerprint may hold bits past its width; tanimoto counts
    # them, and the packed metrics must too (packing to width // 8 bytes
    # would raise OverflowError instead).
    fps = [Fingerprint(1 << 300, 256), Fingerprint((1 << 300) | 1, 256), Fingerprint(1, 256)]
    assert tanimoto(fps[0], fps[1]) == 0.5
    assert mean_pairwise_tanimoto(fps) == ref_mean_pairwise(fps) == 1.0 / 3.0
    assert circles_at(fps, 0.4) == ref_circles(fps, 0.4) == 2
    assert circles_at(fps, 0.6) == ref_circles(fps, 0.6) == 3

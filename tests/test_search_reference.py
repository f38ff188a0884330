"""The search's root-phase waves against the one-iteration-at-a-time loop.

``reference_run`` below is the search loop before the root phase was decoded
in waves: every iteration selects a leaf, decodes that iteration's own m
candidate rows, expands, decodes its own n_sim rollouts, scores them and
backpropagates.  ``TreeSearch.run`` decodes the iterations that expand the
root in waves of several; both must give equal outcomes and equal trees.
"""

from dataclasses import replace

import numpy as np
import pytest

from blockmol.decode import DecodeConfig, Decoder, lane_keys
from blockmol.oracle import ChildExited, ProtocolError, SurrogateOracle, load_profile
from blockmol.search import (
    ROOT_WAVE_ROWS,
    NoNovelCandidate,
    OracleUnavailable,
    SearchConfig,
    TreeSearch,
    backpropagate,
)
from test_search import FlakyOracle


def reference_run(search: TreeSearch, params, vocab):
    cfg = search.cfg
    dec = Decoder(params, replace(cfg.decode, mode="sample"), vocab)
    last_block = min(cfg.decode.fragment.num_blocks, cfg.d_max)
    root = search.make_root()
    rollouts, aborted, iteration = [], False, 0
    for iteration in range(cfg.n_max):
        path, leaf = search.select(root)
        try:
            if leaf.terminal:
                backpropagate(path, leaf.cached_reward)
                continue
            ids = np.tile(leaf.partial, (cfg.m, 1))
            dec.decode_block(ids, leaf.depth, lane_keys(
                cfg.decode.seed, iteration * cfg.m + np.arange(cfg.m)))
            try:
                child = search.expand(leaf, iteration, ids)
            except NoNovelCandidate:
                continue
            rows = child.partial[None, :]
            if not child.terminal:
                rows = np.tile(child.partial, (cfg.n_sim, 1))
                dec.run_blocks(rows, child.depth, last_block, lane_keys(
                    cfg.decode.seed ^ 0x517C0DE, iteration * cfg.n_sim + np.arange(cfg.n_sim)))
            reward, results = search.simulate(child, iteration, rows)
            rollouts.extend(results)
            backpropagate(path + [child], reward)
        except OracleUnavailable:
            aborted = True
            break
    return search._outcome(root, rollouts, iteration + 1 if cfg.n_max else 0, aborted)


def tree(node):
    """Every node's statistics, in child order; repr keeps NaN comparable."""
    return (node.n, repr(node.r_bar), repr(node.r_max), node.block_key, node.depth,
            node.cap, node.terminal, node.exhausted, repr(node.cached_reward),
            node.partial.tobytes(), [tree(ch) for ch in node.children])


def outcome(out):
    return (repr(out.results), repr(out.rollouts), repr(out.best), out.iterations,
            out.aborted, tree(out.root))


@pytest.fixture(scope="module")
def setup(trained, vocab):
    params, _ = trained(42)
    decode = DecodeConfig(block=8, length=32, budget=64, temperature=1.1,
                          nucleus_p=1.0, seed=42)
    return params, vocab, SurrogateOracle(load_profile("parp1")), decode


def both(setup, make_oracle=None, **kw):
    """(waves, reference) outcomes of one search config, each with a fresh oracle."""
    params, vocab, oracle, decode = setup
    kw.setdefault("decode", decode)
    cfg = SearchConfig(**kw)
    make_oracle = make_oracle or (lambda: oracle)
    got = TreeSearch(cfg, params, vocab, make_oracle()).run()
    want = reference_run(TreeSearch(cfg, params, vocab, make_oracle()), params, vocab)
    assert outcome(got) == outcome(want)
    return got


@pytest.mark.parametrize("c_init", [1, 5, 100])
@pytest.mark.parametrize("n_max", [0, 3, 150])
def test_waves_match_the_reference_loop(setup, n_max, c_init):
    out = both(setup, n_max=n_max, c_init=c_init, m=8)
    assert out.iterations == n_max
    assert len(out.root.children) == min(n_max, c_init)


@pytest.mark.parametrize("m,n_sim", [(64, 1), (3, 8)])
def test_waves_match_the_reference_loop_across_batch_shapes(setup, m, n_sim):
    out = both(setup, n_max=60, c_init=40, m=m, n_sim=n_sim)
    assert len(out.root.children) == 40
    assert any(ch.children for ch in out.root.children)


def test_waves_match_the_reference_loop_when_every_child_is_terminal(setup):
    out = both(setup, n_max=150, c_init=100, m=8, n_sim=4, d_max=1)
    assert all(ch.terminal for ch in out.root.children)
    assert out.root.n == 150


def test_waves_match_the_reference_loop_when_the_root_runs_dry(setup):
    # A tiny nucleus keeps one token, so every candidate block is the same.
    params, vocab, oracle, decode = setup
    out = both(setup, n_max=40, c_init=100, m=8,
               decode=replace(decode, nucleus_p=1e-9))
    assert out.root.exhausted and len(out.root.children) == 1


def test_waves_match_the_reference_loop_when_the_oracle_fails_before_the_root_runs_dry(
        setup):
    # At this nucleus the root's second expansion finds no novel block, in the
    # wave whose first rollouts lose the oracle: the root is not exhausted yet.
    params, vocab, oracle, decode = setup
    out = both(setup, lambda: FlakyOracle(oracle, 0, ChildExited), n_max=40, c_init=30,
               m=2, n_sim=8, decode=replace(decode, nucleus_p=0.5))
    assert out.aborted and out.iterations == 1
    assert not out.root.exhausted and len(out.root.children) == 1


@pytest.mark.parametrize("exc", [ChildExited, ProtocolError])
def test_waves_match_the_reference_loop_when_the_oracle_fails_mid_wave(setup, exc):
    # This search's third oracle call is in iteration 18, neither the first
    # nor the last iteration of its root-phase wave.
    params, vocab, oracle, decode = setup
    wave = ROOT_WAVE_ROWS // 8
    out = both(setup, lambda: FlakyOracle(oracle, 2, exc), n_max=60, c_init=50, m=8)
    if exc is ChildExited:
        assert out.aborted
        failed = out.iterations - 1
        assert len(out.root.children) == out.iterations  # later ones were dropped
    else:
        assert not out.aborted and out.iterations == 60
        failed = min(r.iteration for r in out.rollouts if r.ds != r.ds)
    assert failed < 50 and 0 < failed % wave < wave - 1


def test_root_phase_decodes_a_wave_per_call(setup, monkeypatch):
    params, vocab, oracle, decode = setup
    calls = []
    original = Decoder.decode_block

    def counting(self, ids, b, keys, start=1):
        calls.append(ids.shape[0])
        return original(self, ids, b, keys, start)

    monkeypatch.setattr(Decoder, "decode_block", counting)
    cfg = SearchConfig(n_max=60, c_init=36, m=8, d_max=1, decode=decode)
    TreeSearch(cfg, params, vocab, oracle).run()
    wave = ROOT_WAVE_ROWS // 8
    assert 36 % wave  # the last wave is cut short by the root's capacity
    # Every child is terminal, so the rest of the iterations decode nothing.
    assert calls == [8 * min(wave, 36 - first) for first in range(0, 36, wave)]

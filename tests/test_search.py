"""Gated MCTS: score arithmetic, tree mechanics, and full runs."""

import math
import sys
from collections import Counter

import numpy as np
import pytest

from blockmol.chem import Vocab, try_parse, validate_smiles
from blockmol.decode import DecodeConfig
from blockmol.oracle import OracleScores, SurrogateOracle, load_profile
from blockmol.search import (
    GateConfig,
    NoNovelCandidate,
    SearchConfig,
    SearchNode,
    SearchResult,
    TreeSearch,
    UnvisitedChild,
    adaptive_cap,
    backpropagate,
    run_search,
    uct_score,
)


def node(n=0, r_bar=0.0, r_max=-math.inf, cap=8, **kw):
    sn = SearchNode(partial=np.zeros(8, dtype=np.int64), depth=0, cap=cap, **kw)
    sn.n, sn.r_bar, sn.r_max = n, r_bar, r_max
    return sn


def test_uct_hand_value():
    # lam=0.5, mean 1, max 2, C=2.1, parent visits e, child visits 1:
    # 0.5*1 + 0.5*2 + 2.1*sqrt(ln e / 1) = 3.6
    child = node(n=1, r_bar=1.0, r_max=2.0)
    assert uct_score(child, math.e, 0.5, 2.1) == pytest.approx(3.6, abs=1e-12)
    assert uct_score(child, 1, 0.5, 2.1) == 1.5  # ln 1 = 0: no exploration term


def test_uct_boundaries():
    child = node(n=4, r_bar=3.0, r_max=7.0)
    mean_only = uct_score(child, 10, 1.0, 2.1)
    assert mean_only == pytest.approx(3.0 + 2.1 * math.sqrt(math.log(10) / 4))
    assert uct_score(child, 10, 0.0, 0.0) == 7.0  # pure max ranking


def test_uct_unvisited_raises():
    with pytest.raises(UnvisitedChild):
        uct_score(node(n=0), 5, 0.5, 2.1)
    with pytest.raises(UnvisitedChild):
        uct_score(node(n=1), 0, 0.5, 2.1)


def test_adaptive_cap_hand_values():
    parent = node(n=3, r_bar=0.0, cap=5)
    parent.children = [node(n=1, r_bar=4.7), node(n=0, r_bar=99.0)]
    # unvisited child excluded; I = 4.7, floor(2 * 4.7) = 9 within [8, 10]
    assert adaptive_cap(parent, 2.0, 8, 10) == 9
    parent.children[0].r_bar = 0.0
    assert adaptive_cap(parent, 2.0, 8, 10) == 8  # I = 0 -> C_min
    parent.children[0].r_bar = 100.0
    assert adaptive_cap(parent, 2.0, 8, 10) == 10  # clamp at C_max


def test_adaptive_cap_no_visited_children():
    parent = node(cap=5)
    parent.children = [node(n=0)]
    assert adaptive_cap(parent, 2.0, 8, 10) == 5  # unchanged


def test_backpropagate_running_stats():
    a, b = node(), node()
    backpropagate([a, b], 5.0)
    assert (a.n, a.r_bar, a.r_max) == (1, 5.0, 5.0)
    backpropagate([a, b], 1.0)
    backpropagate([a], 3.0)
    assert a.n == 3 and a.r_bar == pytest.approx(3.0) and a.r_max == 5.0
    assert b.n == 2 and b.r_bar == pytest.approx(3.0)


def test_backpropagate_thousand_rewards_mean():
    rng = np.random.default_rng(0)
    rewards = rng.normal(0, 5, 1000)
    sink = node()
    for r in rewards:
        backpropagate([sink], float(r))
    assert abs(sink.r_bar - rewards.mean()) <= 1e-9
    assert abs(sink.r_bar * sink.n - rewards.sum()) <= 1e-6


def test_gate_boundaries_are_inclusive():
    gate = GateConfig(tau_qed=0.5, tau_sa=5.0)
    assert gate.passes(OracleScores(qed=0.5, sa=5.0, ds=-9.0))
    assert not gate.passes(OracleScores(qed=0.49, sa=5.0, ds=-9.0))
    assert not gate.passes(OracleScores(qed=0.5, sa=5.01, ds=-9.0))


def test_gate_penalty_must_be_negative():
    with pytest.raises(ValueError):
        GateConfig(r_pen=0.0)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(lam=1.5)
    with pytest.raises(ValueError):
        SearchConfig(c_min=11, c_max=10)
    with pytest.raises(ValueError):
        SearchConfig(m=0)
    for field, bad in (("n_max", dict(n_max=-1)), ("c", dict(c=math.nan)),
                       ("beta", dict(beta=math.nan)), ("c_init", dict(c_init=0)),
                       ("c_base", dict(c_base=0)), ("c_min", dict(c_min=0, c_max=0)),
                       ("c_min", dict(c_min=-3, c_max=-1))):
        with pytest.raises(ValueError, match=f"^{field} must"):
            SearchConfig(**bad)
    for field, bad in (("tau_qed", dict(tau_qed=math.nan)),
                       ("tau_sa", dict(tau_sa=math.nan))):
        with pytest.raises(ValueError, match=f"^{field} must"):
            GateConfig(**bad)
    with pytest.raises(ValueError, match="penalty"):
        GateConfig(r_pen=math.nan)


def stats_search(vocab, **cfg_kw):
    from blockmol.diffusion import PredictorParams

    cfg = SearchConfig(decode=DecodeConfig(block=8, length=32, budget=64),
                       **cfg_kw)
    params = PredictorParams.zeros(len(vocab), dim=4, window=2)
    return TreeSearch(cfg, params, vocab, oracle=None), cfg


def test_select_fresh_root_and_hand_tree(vocab):
    search, cfg = stats_search(vocab, lam=0.5, c=2.1, c_min=2, c_max=2, beta=2.0)
    root = search.make_root()
    path, leaf = search.select(root)
    assert path == [root] and leaf is root

    # three visited children under a full root; B's subtree is also full
    a, b, c = (node(n=3, r_bar=1.0, r_max=2.0), node(n=2, r_bar=2.0, r_max=4.0),
               node(n=4, r_bar=0.5, r_max=1.0))
    d, e = node(n=1, r_bar=3.0, r_max=3.0), node(n=2, r_bar=1.0, r_max=2.0)
    root.children = [a, b, c]
    root.cap, root.n = 3, 9
    b.children, b.n = [d, e], 3
    path, leaf = search.select(root)

    def uct(ch, parent_n):
        return 0.5 * ch.r_bar + 0.5 * ch.r_max + 2.1 * math.sqrt(
            math.log(parent_n) / ch.n)

    best_top = max(root.children, key=lambda ch: uct(ch, root.n))
    assert best_top is b
    best_mid = max(b.children, key=lambda ch: uct(ch, b.n))
    assert path == [root, b, best_mid] and leaf is best_mid
    assert not leaf.fully_expanded


def test_select_prefers_unvisited_in_creation_order(vocab):
    search, _ = stats_search(vocab, c_min=2, c_max=2)
    root = search.make_root()
    first, second = node(n=0), node(n=0)
    root.children = [first, second]
    root.cap, root.n = 2, 1
    _, leaf = search.select(root)
    assert leaf is first


def test_select_tie_breaks_to_earlier_child(vocab):
    search, _ = stats_search(vocab, c_min=2, c_max=2)
    root = search.make_root()
    twins = [node(n=2, r_bar=1.0, r_max=1.0), node(n=2, r_bar=1.0, r_max=1.0)]
    root.children, root.cap, root.n = twins, 2, 4
    path, leaf = search.select(root)
    assert leaf is twins[0]


def test_argmax_invariance_under_joint_scaling(vocab):
    rng = np.random.default_rng(4)
    for trial in range(20):
        stats = [(int(rng.integers(1, 9)), float(rng.normal(5, 2)),
                  float(rng.normal(8, 2))) for _ in range(5)]
        parent_n = sum(s[0] for s in stats)
        scale = float(rng.uniform(0.1, 10))

        def pick(c_value, factor):
            scores = []
            for n, r_bar, r_max in stats:
                ch = node(n=n, r_bar=factor * r_bar, r_max=factor * r_max)
                scores.append(uct_score(ch, parent_n, 0.5, c_value))
            return int(np.argmax(scores))

        assert pick(2.1, 1.0) == pick(2.1 * scale, scale)


@pytest.fixture(scope="module")
def search_setup(trained, vocab):
    params, _ = trained(42)
    oracle = SurrogateOracle(load_profile("parp1"))
    decode = DecodeConfig(block=8, length=32, budget=64, temperature=1.1,
                          nucleus_p=1.0, seed=42)
    return params, vocab, oracle, decode


def test_run_nmax_zero_is_empty(search_setup):
    params, vocab, oracle, decode = search_setup
    out = run_search(SearchConfig(n_max=0, m=8, decode=decode), params, vocab,
                     oracle)
    assert out.results == [] and out.rollouts == [] and out.best is None
    assert out.iterations == 0


def test_run_gate_soundness_and_tree_invariants(search_setup):
    params, vocab, oracle, decode = search_setup
    cfg = SearchConfig(n_max=200, m=8, decode=decode)
    out = run_search(cfg, params, vocab, oracle)
    assert out.iterations == 200
    for res in out.results:
        scores = oracle.score_mol(validate_smiles(res.smiles))
        assert scores.qed >= cfg.gate.tau_qed and scores.sa <= cfg.gate.tau_sa
        assert res.reward == pytest.approx(-scores.ds)
        assert res.reward > cfg.gate.r_pen
    # reward-descending order, unique smiles
    rewards = [r.reward for r in out.results]
    assert rewards == sorted(rewards, reverse=True)
    assert len({r.smiles for r in out.results}) == len(out.results)

    # tree soundness: each child extends its parent by exactly one block
    K = decode.block
    stack = [out.root]
    while stack:
        parent = stack.pop()
        keys = [ch.block_key for ch in parent.children]
        assert len(set(keys)) == len(keys)  # sibling distinctness
        for ch in parent.children:
            assert ch.depth == parent.depth + 1
            lo = parent.depth * K
            assert (ch.partial[:lo] == parent.partial[:lo]).all()
            assert tuple(int(v) for v in ch.partial[lo:lo + K]) == ch.block_key
            stack.append(ch)


def test_run_is_deterministic(search_setup):
    params, vocab, oracle, decode = search_setup
    cfg = SearchConfig(n_max=60, m=8, decode=decode)
    a = run_search(cfg, params, vocab, oracle)
    b = run_search(cfg, params, vocab, oracle)
    assert [(r.smiles, r.reward) for r in a.rollouts] == \
           [(r.smiles, r.reward) for r in b.rollouts]
    assert a.summary() == b.summary()


def test_terminal_cached_reward_not_rerolled(search_setup):
    params, vocab, oracle, decode = search_setup
    # d_max=1: every child is terminal; root capacity 1 forces revisits
    cfg = SearchConfig(n_max=6, m=8, d_max=1, c_init=1, decode=decode)
    out = run_search(cfg, params, vocab, oracle)
    root = out.root
    assert len(root.children) == 1
    child = root.children[0]
    assert child.terminal and child.cached_reward is not None
    assert root.n == 6 and child.n == 6
    # the single terminal rollout was recorded once, then replayed from cache
    assert len(out.rollouts) <= 1


class CountingOracle:
    """Scores normally and counts the calls for each molecule."""

    def __init__(self, inner):
        self.inner = inner
        self.profile = inner.profile
        self.calls = Counter()

    def score_mol(self, mol, d=None):
        self.calls[mol.smiles] += 1
        return self.inner.score_mol(mol, d)


def test_search_scores_each_distinct_molecule_once(search_setup, monkeypatch):
    params, vocab, oracle, decode = search_setup
    parsed = Counter()

    def counting_parse(smiles):
        parsed[smiles] += 1
        return try_parse(smiles)

    monkeypatch.setattr("blockmol.search.try_parse", counting_parse)
    counting = CountingOracle(oracle)
    out = run_search(SearchConfig(n_max=60, m=8, n_sim=4, decode=decode),
                     params, vocab, counting)
    valid = [r.smiles for r in out.rollouts]
    assert len(set(valid)) < len(valid)  # some molecules came back
    assert counting.calls == Counter(set(valid))  # each scored once
    assert set(parsed.values()) == {1}  # invalid ones are parsed once too
    assert len(parsed) > len(set(valid))


def test_expand_marks_exhausted_when_candidates_repeat(search_setup):
    params, vocab, oracle, decode = search_setup
    cfg = SearchConfig(m=8, decode=decode)
    search = TreeSearch(cfg, params, vocab, oracle)
    root = search.make_root()
    # replaying one iteration index regenerates the same m candidate blocks,
    # so repeated expansion must drain them and then report exhaustion
    seen = set()
    with pytest.raises(NoNovelCandidate):
        for _ in range(cfg.m + 1):
            child = search.expand(root, 5, search.candidates(root, range(5, 6))[0])
            assert child.block_key not in seen
            seen.add(child.block_key)
    assert root.exhausted
    assert 1 <= len(root.children) <= cfg.m


def test_result_json_line_cleans_nan():
    import json

    res = SearchResult("CCO", -1.0, math.nan, math.nan, math.nan, 2, 7)
    parsed = json.loads(res.to_json_line())
    assert parsed["ds"] is None and parsed["qed"] is None
    assert parsed["smiles"] == "CCO" and parsed["iteration"] == 7

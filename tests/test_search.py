"""Gated MCTS: score arithmetic, tree mechanics, and full runs."""

import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    adaptive_cap,
    backpropagate,
    run_search,
    uct,
)


def node(n=0, r_bar=0.0, r_max=-math.inf, cap=8, **kw):
    sn = SearchNode(partial=np.zeros(8, dtype=np.int64), depth=0, cap=cap, **kw)
    sn.n, sn.r_bar, sn.r_max = n, r_bar, r_max
    return sn


def test_uct_hand_value():
    # lam=0.5, mean 1, max 2, C=2.1, parent visits e (ln e = 1), child visits 1:
    # 0.5*1 + 0.5*2 + 2.1*sqrt(ln e / 1) = 3.6
    child = node(n=1, r_bar=1.0, r_max=2.0)
    assert uct(child, 1.0, 0.5, 2.1) == pytest.approx(3.6, abs=1e-12)
    assert uct(child, 0.0, 0.5, 2.1) == 1.5  # ln 1 = 0: no exploration term


def test_uct_boundaries():
    child = node(n=4, r_bar=3.0, r_max=7.0)
    mean_only = uct(child, math.log(10), 1.0, 2.1)
    assert mean_only == pytest.approx(3.0 + 2.1 * math.sqrt(math.log(10) / 4))
    assert uct(child, math.log(10), 0.0, 0.0) == 7.0  # pure max ranking


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
    with pytest.raises(ValueError, match="^r_pen must"):
        GateConfig(r_pen=math.nan)


def stats_search(vocab, **cfg_kw):
    from blockmol.diffusion import PredictorParams

    cfg = SearchConfig(decode=DecodeConfig(block=8, length=32, budget=64, temperature=1.0, seed=0),
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
                scores.append(uct(ch, math.log(parent_n), 0.5, c_value))
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

    score = SurrogateOracle.score  # which calls the score_mol below

    def score_mol(self, mol, d=None, fp=None):
        self.calls[mol.smiles] += 1
        return self.inner.score_mol(mol, d, fp)


def test_search_scores_each_distinct_molecule_once(search_setup, monkeypatch):
    params, vocab, oracle, decode = search_setup
    parsed = Counter()

    def counting_parse(smiles):
        parsed[smiles] += 1
        return try_parse(smiles)

    monkeypatch.setattr("blockmol.oracle.try_parse", counting_parse)
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


@pytest.mark.parametrize("field", ["reward", "ds", "qed", "sa"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_result_json_line_rejects_a_non_finite_score(field, bad):
    scores = dict(reward=-1.0, ds=-7.25, qed=0.5, sa=2.0)
    assert SearchResult("CCO", **scores, depth=2, iteration=7).to_json_line() == (
        '{"smiles": "CCO", "reward": -1.0, "ds": -7.25, "qed": 0.5, "sa": 2.0, '
        '"depth": 2, "iteration": 7}')
    scores[field] = bad
    with pytest.raises(ValueError, match="not JSON compliant"):
        SearchResult("CCO", **scores, depth=2, iteration=7).to_json_line()


def _nodes(root):
    """Every node under ``root``, root first."""
    out, stack = [], [root]
    while stack:
        out.append(stack.pop())
        stack.extend(out[-1].children)
    return out


@pytest.mark.parametrize("shape", [
    dict(n_max=120, m=8, n_sim=8, c_init=40),  # root waves of 8 children, then waves of one
    dict(n_max=120, m=8, n_sim=1, c_init=1),  # every wave has one child
])
def test_select_only_ever_sees_visited_children(search_setup, monkeypatch, shape):
    # Each wave backpropagates every child it creates before the next select.
    params, vocab, oracle, decode = search_setup
    calls = []
    select = TreeSearch.select

    def spy(self, root):
        unvisited = [nd for nd in _nodes(root)[1:] if nd.n < 1]
        assert not unvisited, f"select call {len(calls)} sees {len(unvisited)} unvisited"
        calls.append(len(root.children))
        return select(self, root)

    monkeypatch.setattr(TreeSearch, "select", spy)
    out = run_search(SearchConfig(decode=decode, **shape), params, vocab, oracle)
    assert out.iterations == shape["n_max"] and len(_nodes(out.root)) > 20
    if shape["c_init"] > 1:
        assert calls[1] == 8  # the first root wave made 8 children
    else:
        assert len(calls) == out.iterations


def _tree(node):
    """Every node's statistics and identity, in depth-first order."""
    out, stack = [], [node]
    while stack:
        nd = stack.pop()
        out.append((nd.depth, nd.block_key, nd.terminal, nd.n, nd.r_bar, nd.r_max,
                    nd.cached_reward, nd.partial.tobytes()))
        stack.extend(reversed(nd.children))
    return out


@pytest.mark.parametrize("shape", [
    dict(n_max=120, m=8, n_sim=4, c_init=1),  # every wave has one child
    dict(n_max=120, m=8, n_sim=4, c_init=40),  # root waves of 8 children, then waves of one
])
def test_skipping_dead_rollouts_changes_nothing_but_the_work(search_setup, monkeypatch, shape):
    params, vocab, oracle, decode = search_setup
    cfg = SearchConfig(decode=decode, **shape)
    waves = []  # per rollout_rows call: the dead verdict of each open child
    rollout_rows = TreeSearch.rollout_rows

    def spy(self, children, iterations):
        waves.append([self.dead(ch) for ch in children if not ch.terminal])
        return rollout_rows(self, children, iterations)

    monkeypatch.setattr(TreeSearch, "rollout_rows", spy)
    skipped = run_search(cfg, params, vocab, oracle)
    monkeypatch.setattr(TreeSearch, "dead", lambda self, node: False)
    decoded = run_search(cfg, params, vocab, oracle)

    assert skipped.counts["dead_rollouts"] == sum(sum(w) for w in waves) > 0
    assert decoded.counts["dead_rollouts"] == 0
    if shape["c_init"] > 1:  # a root wave that mixed live and dead children, and skipped its dead
        assert any(len(w) > 1 and any(w) and not all(w) for w in waves)
    assert skipped.results == decoded.results
    assert skipped.rollouts == decoded.rollouts
    assert skipped.best == decoded.best
    assert skipped.iterations == decoded.iterations == cfg.n_max
    assert _tree(skipped.root) == _tree(decoded.root)


def test_a_dead_child_gets_no_rollout_rows_and_the_penalty(vocab, monkeypatch):
    search, cfg = stats_search(vocab, n_sim=4)
    root = search.make_root()
    dead, live = (SearchNode(partial=root.partial.copy(), depth=1, cap=1) for _ in range(2))
    dead.partial[1:3] = [vocab.id("C"), vocab.id(")")]  # ')' without matching '('
    live.partial[1:3] = [vocab.id("C"), vocab.id("C")]
    assert search.dead(dead) and not search.dead(live)
    decoded = []
    monkeypatch.setattr(search._decoder, "run_blocks",
                        lambda ids, *args: decoded.append(ids.shape[0]))

    rows = search.rollout_rows([dead], range(5, 6))
    assert decoded == [] and rows[0].shape == (0, cfg.decode.length)
    assert search.simulate(dead, 5, rows[0]) == (cfg.gate.r_pen, [])
    assert dead.cached_reward == cfg.gate.r_pen
    assert search.counts["dead_rollouts"] == 1

    # Beside a live child too, only the live child's rows are decoded.
    rows = search.rollout_rows([dead, live], range(6, 8))
    assert decoded == [cfg.n_sim] and [r.shape[0] for r in rows] == [0, 4]
    assert search.counts["dead_rollouts"] == 2


@pytest.fixture(scope="module")
def benchmark_search():
    """A search over the benchmark predictor's vocabulary: every 62nd grid candidate."""
    from blockmol import data
    from blockmol.chem import tokenize
    from blockmol.diffusion import PredictorParams

    vocab = Vocab.build([tokenize(s) for s in data.toy_candidates(3)[::62]])
    cfg = SearchConfig(decode=DecodeConfig(block=8, length=32, budget=64, temperature=1.0, seed=0))
    return TreeSearch(cfg, PredictorParams.zeros(len(vocab), dim=4, window=2), vocab, None)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_completion_of_a_dead_row_fails_to_parse(benchmark_search, draw):
    from blockmol.fragment import reassemble

    search = benchmark_search
    vocab = search._decoder.vocab
    length = search.cfg.decode.length
    # Body ids: every token but MASK, with PAD and BOS among them; the
    # prefix holds no EOS, as a non-terminal child holds none.
    body = st.sampled_from([i for i in range(len(vocab)) if i != Vocab.MASK_ID])
    prefix = draw.draw(st.lists(body.filter(lambda i: i != Vocab.EOS_ID), max_size=length - 2))
    row = np.full(length, Vocab.PAD_ID, dtype=np.int64)
    row[0] = Vocab.BOS_ID
    row[1:1 + len(prefix)] = prefix
    assume(search.dead(SearchNode(partial=row.copy(), depth=1, cap=1)))
    tail = draw.draw(st.lists(body, max_size=length - 1 - len(prefix)))
    row[1 + len(prefix):1 + len(prefix) + len(tail)] = tail
    assert try_parse("".join(reassemble(row, vocab)))[0] is None

"""Gated Monte Carlo tree search over the block decoding space.

Each tree node owns a partial sequence (a whole number of decoded blocks);
an edge appends one block sampled from the predictor.  Rollouts complete
the molecule and are rewarded with the negated docking surrogate when the
molecule is valid and passes the drug-likeness gate, and with a fixed
penalty otherwise.  Child capacity widens with the dispersion of child
returns, so promising nodes are explored more broadly.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .chem import Vocab, try_parse
from .decode import DecodeConfig, Decoder, key_uniform
from .oracle import ChildExited, OracleError, OracleScores, Timeout

log = logging.getLogger(__name__)


class UnvisitedChild(ValueError):
    """UCT is undefined for a child with zero visits."""


class ExhaustedTree(RuntimeError):
    """Selection hit a fully expanded node with no children to descend."""


class NoNovelCandidate(RuntimeError):
    """Every sampled candidate block duplicated an existing sibling."""


class OracleUnavailable(RuntimeError):
    """The scoring backend died; search aborts with partial results."""


@dataclass(frozen=True)
class GateConfig:
    tau_qed: float = 0.5
    tau_sa: float = 5.0
    r_pen: float = -1.0

    def __post_init__(self):
        # Gated rewards are -ds >= 0, so any negative penalty sits strictly
        # below every achievable gated reward.
        if self.r_pen >= 0.0:
            raise ValueError(f"penalty reward must be negative: {self.r_pen}")

    def passes(self, scores: OracleScores) -> bool:
        return scores.qed >= self.tau_qed and scores.sa <= self.tau_sa


@dataclass(frozen=True)
class SearchConfig:
    n_max: int = 10_000
    c: float = 2.1  # exploration constant
    lam: float = 0.5  # mean-vs-max mixing weight
    beta: float = 2.0  # widening gain
    c_init: int = 20  # root capacity, fixed for the whole run
    c_base: int = 8  # capacity of a freshly created child
    c_min: int = 8
    c_max: int = 10
    m: int = 64  # expansion batch size
    n_sim: int = 1  # rollouts per simulation
    d_max: int = 100  # depth cap in blocks
    decode: DecodeConfig = DecodeConfig()
    gate: GateConfig = GateConfig()
    seed: int = 42

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must lie in [0,1]: {self.lam}")
        if self.c_min > self.c_max:
            raise ValueError(f"need c_min <= c_max: {self.c_min} > {self.c_max}")
        if self.m < 1 or self.n_sim < 1 or self.d_max < 1:
            raise ValueError("m, n_sim, and d_max must be >= 1")


@dataclass
class SearchNode:
    partial: np.ndarray  # (L,) token ids, BOS at 0, undecoded tail is PAD
    depth: int  # blocks decoded so far == index of the next block
    cap: int
    block_key: tuple = ()  # ids of the newest block, for sibling dedup
    terminal: bool = False
    exhausted: bool = False  # expansion stopped finding novel candidates
    children: list = field(default_factory=list)
    n: int = 0
    r_bar: float = 0.0
    r_max: float = -math.inf
    cached_reward: float | None = None

    @property
    def fully_expanded(self) -> bool:
        return self.exhausted or len(self.children) >= self.cap


def uct_score(child: SearchNode, parent_n: int, lam: float, c: float) -> float:
    if child.n < 1:
        raise UnvisitedChild("UCT needs at least one visit")
    if parent_n < 1:
        raise UnvisitedChild("parent must have been visited")
    explore = c * math.sqrt(math.log(parent_n) / child.n)
    return lam * child.r_bar + (1.0 - lam) * child.r_max + explore


def adaptive_cap(node: SearchNode, beta: float, c_min: int, c_max: int) -> int:
    """Capacity from the dispersion of visited child means.

    Unvisited children carry no return estimate and are excluded; with no
    visited child at all the current capacity is kept.
    """
    visited = [ch for ch in node.children if ch.n >= 1]
    if not visited:
        return node.cap
    spread = max(abs(ch.r_bar - node.r_bar) for ch in visited)
    return min(c_max, max(c_min, math.floor(beta * spread)))


def backpropagate(path: list[SearchNode], reward: float):
    for node in path:
        node.n += 1
        node.r_bar += (reward - node.r_bar) / node.n
        node.r_max = max(node.r_max, reward)


@dataclass(frozen=True)
class SearchResult:
    smiles: str
    reward: float
    ds: float
    qed: float
    sa: float
    depth: int
    iteration: int

    def to_json_line(self) -> str:
        def clean(x):
            return x if math.isfinite(x) else None
        return json.dumps({
            "smiles": self.smiles, "reward": clean(self.reward),
            "ds": clean(self.ds), "qed": clean(self.qed), "sa": clean(self.sa),
            "depth": self.depth, "iteration": self.iteration,
        })


@dataclass
class SearchOutcome:
    results: list  # gate-passing, deduplicated, reward-descending
    rollouts: list  # every valid rollout in discovery order
    best: SearchResult | None
    iterations: int
    aborted: bool
    root: SearchNode

    def summary(self) -> dict:
        return {
            "best_smiles": self.best.smiles if self.best else None,
            "best_reward": self.best.reward if self.best else None,
            "unique_count": len({r.smiles for r in self.rollouts}),
            "gate_pass_count": len(self.results),
        }


class TreeSearch:
    """One search run: owns the tree, the decoders, and the rng keying."""

    def __init__(self, cfg: SearchConfig, params, vocab: Vocab, oracle):
        self.cfg = cfg
        self.vocab = vocab
        self.oracle = oracle
        sample_cfg = replace(cfg.decode, mode="sample")
        self._expander = Decoder(params, sample_cfg, vocab)
        # Disjoint rng stream for rollouts so expansion lanes never alias.
        self._roller = Decoder(
            params, replace(sample_cfg, seed=sample_cfg.seed ^ 0x517C0DE), vocab)
        self._frag = cfg.decode.fragment
        self._last_block = min(self._frag.num_blocks, cfg.d_max)

    def make_root(self) -> SearchNode:
        row = np.full(self._frag.length, Vocab.PAD_ID, dtype=np.int64)
        row[0] = Vocab.BOS_ID
        return SearchNode(partial=row, depth=0, cap=self.cfg.c_init)

    # -- phase 1

    def select(self, root: SearchNode):
        node, path = root, [root]
        while True:
            if node is not root:
                node.cap = adaptive_cap(node, self.cfg.beta,
                                        self.cfg.c_min, self.cfg.c_max)
            if node.terminal or not node.fully_expanded:
                return path, node
            if not node.children:
                raise ExhaustedTree(f"dead end at depth {node.depth}")
            unvisited = [ch for ch in node.children if ch.n == 0]
            if unvisited:
                node = unvisited[0]
            else:
                best, best_score = None, -math.inf
                for ch in node.children:
                    score = uct_score(ch, node.n, self.cfg.lam, self.cfg.c)
                    if score > best_score:
                        best, best_score = ch, score
                node = best
            path.append(node)

    # -- phase 2

    def expand(self, node: SearchNode, iteration: int) -> SearchNode:
        cfg = self.cfg
        rows = np.tile(node.partial, (cfg.m, 1))
        state = self._expander.state_from_rows(rows, protect=1)
        self._expander.decode_block(state, node.depth,
                                    row_offset=iteration * cfg.m)
        K = self._frag.block
        lo = node.depth * K
        taken = {ch.block_key for ch in node.children}
        keys = [tuple(int(v) for v in state.ids[lane, lo:lo + K])
                for lane in range(cfg.m)]
        survivors = [lane for lane in range(cfg.m) if keys[lane] not in taken]
        if not survivors:
            node.exhausted = True
            raise NoNovelCandidate(f"{cfg.m} candidates, all known siblings")
        u = key_uniform(cfg.seed, iteration, 0xCA)
        lane = survivors[min(int(u * len(survivors)), len(survivors) - 1)]
        depth = node.depth + 1
        child = SearchNode(
            partial=state.ids[lane].copy(),
            depth=depth,
            cap=cfg.c_base,
            block_key=keys[lane],
            terminal=bool(state.done[lane]) or depth >= self._last_block,
        )
        node.children.append(child)
        return child

    # -- phase 3

    def _score(self, smiles: str):
        """(scores, valid) with channel loss escalated, per-item errors None."""
        mol, err = try_parse(smiles)
        if err is not None:
            return None, False
        try:
            return self.oracle.score_mol(mol), True
        except (ChildExited, Timeout) as failure:
            raise OracleUnavailable(str(failure)) from failure
        except OracleError:
            return None, True

    def simulate(self, node: SearchNode, iteration: int):
        """(best reward over rollouts, per-rollout SearchResults)."""
        cfg = self.cfg
        if node.terminal:
            recs = [self._roller.records(
                self._roller.state_from_rows(node.partial[None, :], 1))[0]]
        else:
            rows = np.tile(node.partial, (cfg.n_sim, 1))
            state = self._roller.state_from_rows(rows, protect=1)
            self._roller.run_blocks(state, node.depth, self._last_block,
                                    row_offset=iteration * cfg.n_sim)
            recs = self._roller.records(state)
        best, results = cfg.gate.r_pen, []
        for rec in recs:
            scores, valid = self._score(rec.smiles)
            if scores is None:
                reward = cfg.gate.r_pen
                if valid:  # scored as failure, still a real molecule
                    results.append(SearchResult(rec.smiles, reward, math.nan,
                                                math.nan, math.nan,
                                                node.depth, iteration))
            else:
                reward = -scores.ds if cfg.gate.passes(scores) else cfg.gate.r_pen
                results.append(SearchResult(rec.smiles, reward, scores.ds,
                                            scores.qed, scores.sa,
                                            node.depth, iteration))
            best = max(best, reward)
        node.cached_reward = best
        return best, results

    # -- driver

    def run(self) -> SearchOutcome:
        cfg = self.cfg
        root = self.make_root()
        rollouts: list[SearchResult] = []
        aborted = False
        iteration = 0
        for iteration in range(cfg.n_max):
            try:
                path, leaf = self.select(root)
            except ExhaustedTree:
                log.warning("search tree exhausted at iteration %d", iteration)
                break
            try:
                if leaf.terminal or leaf.fully_expanded:
                    if leaf.cached_reward is None:
                        reward, results = self.simulate(leaf, iteration)
                        rollouts.extend(results)
                    else:
                        reward = leaf.cached_reward
                    backpropagate(path, reward)
                    continue
                try:
                    child = self.expand(leaf, iteration)
                except NoNovelCandidate:
                    continue
                reward, results = self.simulate(child, iteration)
                rollouts.extend(results)
                backpropagate(path + [child], reward)
            except OracleUnavailable as failure:
                log.error("oracle lost, flushing partial results: %s", failure)
                aborted = True
                break
        return self._outcome(root, rollouts, iteration, aborted)

    def _outcome(self, root, rollouts, iteration, aborted) -> SearchOutcome:
        passing: dict[str, SearchResult] = {}
        for res in rollouts:
            if res.reward == self.cfg.gate.r_pen:
                continue
            kept = passing.get(res.smiles)
            if kept is None or res.reward > kept.reward:
                passing[res.smiles] = res
        ranked = sorted(passing.values(), key=lambda r: (-r.reward, r.smiles))
        return SearchOutcome(
            results=ranked,
            rollouts=rollouts,
            best=ranked[0] if ranked else None,
            iterations=iteration + 1 if self.cfg.n_max else 0,
            aborted=aborted,
            root=root,
        )


def run_search(cfg: SearchConfig, params, vocab: Vocab, oracle) -> SearchOutcome:
    return TreeSearch(cfg, params, vocab, oracle).run()

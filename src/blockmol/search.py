"""Gated Monte Carlo tree search over the block decoding space.

Each tree node owns a partial sequence (a whole number of decoded blocks);
an edge appends one block sampled from the predictor.  Rollouts complete
the molecule and are rewarded with the negated docking surrogate when the
molecule is valid and passes the drug-likeness gate, and with a fixed
penalty otherwise.  Child capacity widens with the dispersion of child
returns, so promising nodes are explored more broadly.  The oracle scores
in process, so a run performs every iteration of its budget.

The root's capacity is fixed, so until it holds ``c_init`` children (or its
candidates run dry) every iteration selects it, whatever the rewards.  Those
iterations run in waves of ``ROOT_WAVE_ROWS // max(m, n_sim)``: one decode
call for the wave's candidate blocks, the children picked in iteration order,
one call for their rollouts, then scoring and backpropagation in iteration
order.  Every later iteration is a wave of one.  So every child is visited in
the wave that creates it, and selection only ever compares visited children.
Every row draws with its own lane key, and a row's tokens do not depend on
the rows that share its decode call (``blockmol.decode``), so a wave gives
the bytes of its iterations run one at a time.

A non-terminal child whose prefix already fails ``chem.scan`` is dead: an
error a prefix shows is the whole molecule's, so its rollouts can only earn
the penalty.  Its rollouts are not decoded and it earns the penalty at once,
as MCTS-Solver (Winands, Bjornsson and Saito 2008) stops simulating a node
whose value is proven.  The run's Counter, shared with its decoder, counts
the skipped rollouts as ``dead_rollouts``, and the iterations that reselect a
terminal leaf, which only back up its cached reward, as
``terminal_reselections``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .chem import ChemError, Vocab, scan, tokenize
from .decode import DecodeConfig, Decoder, key_uniform, lane_keys
from .fragment import ROWS_INTERVAL, ConfigError, check_fields, reassemble
from .oracle import OracleScores

# Rows decoded per call in the root phase's waves.  Larger waves raise the
# peak memory of a predictor call, and 128 rows were no faster than 64.
ROOT_WAVE_ROWS = 64


class NoNovelCandidate(RuntimeError):
    """Every sampled candidate block duplicated an existing sibling."""


@dataclass(frozen=True)
class GateConfig:
    tau_qed: float = 0.5
    tau_sa: float = 5.0
    r_pen: float = -1.0
    # Gated rewards are -ds >= 0, so any negative penalty sits strictly
    # below every achievable gated reward.
    INTERVALS = {"tau_qed": "(-inf, inf)", "tau_sa": "(-inf, inf]", "r_pen": "(-inf, 0)"}

    def __post_init__(self):
        check_fields(self)

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
    decode: DecodeConfig = DecodeConfig()  # its seed keys every search draw
    gate: GateConfig = GateConfig()
    # A node of capacity 0 never gets a child.  A decode call takes at most
    # max(ROOT_WAVE_ROWS, m or n_sim) rows, so its rows lie in ROWS_INTERVAL.
    INTERVALS = {"n_max": "[0, 2**63)", "c": "(-inf, inf)", "lam": "[0, 1]",
                 "beta": "(-inf, inf)", "c_init": "[1, 2**63)", "c_base": "[1, 2**63)",
                 "c_min": "[1, 2**63)", "c_max": "[1, 2**63)", "m": ROWS_INTERVAL,
                 "n_sim": ROWS_INTERVAL, "d_max": "[1, 2**63)"}

    def __post_init__(self):
        check_fields(self)
        if self.c_min > self.c_max:
            raise ConfigError(f"need c_min <= c_max: {self.c_min} > {self.c_max}")


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


def uct(child: SearchNode, log_parent_n: float, lam: float, c: float) -> float:
    """lam * r_bar + (1 - lam) * r_max + c * sqrt(log_parent_n / n) of a visited child."""
    return lam * child.r_bar + (1.0 - lam) * child.r_max + c * math.sqrt(log_parent_n / child.n)


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
        """The fields as one strict JSON object; a non-finite score raises."""
        return json.dumps(vars(self), allow_nan=False)


@dataclass
class SearchOutcome:
    results: list  # gate-passing, deduplicated, reward-descending
    rollouts: list  # every valid rollout in discovery order
    best: SearchResult | None
    iterations: int
    root: SearchNode
    # The decoder's counts, the search's dead_rollouts and terminal_reselections,
    # and parsed, the distinct SMILES that simulate parsed and scored.
    counts: Counter

    def summary(self) -> dict:
        return {
            "best_smiles": self.best.smiles if self.best else None,
            "best_reward": self.best.reward if self.best else None,
            "unique_count": len({r.smiles for r in self.rollouts}),
            "gate_pass_count": len(self.results),
        }


class TreeSearch:
    """One search run: owns the tree, the decoder, and the rng keying."""

    def __init__(self, cfg: SearchConfig, params, vocab: Vocab, oracle):
        self.cfg = cfg
        self.oracle = oracle
        self._decoder = Decoder(params, replace(cfg.decode, mode="sample"), vocab)
        self._frag = cfg.decode.fragment
        self._last_block = min(self._frag.num_blocks, cfg.d_max)
        self._scores: dict[str, OracleScores | None] = {}  # _score's, by SMILES
        self.counts = self._decoder.counts  # one Counter for the whole run

    def make_root(self) -> SearchNode:
        return SearchNode(partial=self._decoder.frame(1)[0], depth=0, cap=self.cfg.c_init)

    # -- phase 1

    def select(self, root: SearchNode):
        node, path = root, [root]
        while True:
            if node is not root:
                node.cap = adaptive_cap(node, self.cfg.beta,
                                        self.cfg.c_min, self.cfg.c_max)
            if node.terminal or not node.fully_expanded:
                return path, node
            # The first child of highest score: _wave visits each child it creates.
            log_n, lam, c = math.log(node.n), self.cfg.lam, self.cfg.c
            node = max(node.children, key=lambda ch: uct(ch, log_n, lam, c))
            path.append(node)

    # -- phase 2

    def candidates(self, node: SearchNode, iterations: range) -> np.ndarray:
        """The m candidate rows of each iteration's expansion of node, as
        (iterations, m, L), decoded in one call: lane ``iteration * m + j``
        draws candidate j."""
        cfg = self.cfg
        ids = np.tile(node.partial, (len(iterations) * cfg.m, 1))
        lanes = np.arange(iterations.start * cfg.m, iterations.stop * cfg.m)
        self._decoder.decode_block(ids, node.depth, lane_keys(cfg.decode.seed, lanes))
        return ids.reshape(len(iterations), cfg.m, -1)

    def expand(self, node: SearchNode, iteration: int, ids: np.ndarray) -> SearchNode:
        """Add the child of one of this iteration's candidate rows ``ids`` whose
        block no sibling holds, picked by the iteration's key."""
        cfg = self.cfg
        K = self._frag.block
        lo = node.depth * K
        taken = {ch.block_key for ch in node.children}
        keys = [tuple(block) for block in ids[:, lo:lo + K].tolist()]
        survivors = [lane for lane in range(cfg.m) if keys[lane] not in taken]
        if not survivors:
            node.exhausted = True
            raise NoNovelCandidate(f"{cfg.m} candidates, all known siblings")
        u = key_uniform(cfg.decode.seed, iteration, 0xCA)
        lane = survivors[min(int(u * len(survivors)), len(survivors) - 1)]
        depth = node.depth + 1
        child = SearchNode(
            partial=ids[lane].copy(),
            depth=depth,
            cap=cfg.c_base,
            block_key=keys[lane],
            terminal=bool((ids[lane] == Vocab.EOS_ID).any()) or depth >= self._last_block,
        )
        node.children.append(child)
        return child

    # -- phase 3

    def dead(self, node: SearchNode) -> bool:
        """Whether the scan of ``node``'s prefix raises.  An error a prefix
        shows is the whole molecule's, so no completion of it parses."""
        try:
            scan(tokenize("".join(reassemble(node.partial, self._decoder.vocab))))
        except ChemError:
            return True
        return False

    def rollout_rows(self, children: list[SearchNode], iterations: range) -> list[np.ndarray]:
        """Each child's rows to score: a terminal child's own sequence, the
        others' n_sim completions, decoded in one call from a stream disjoint
        from expansion's, lane ``iteration * n_sim + j`` drawing completion j.
        The children share one depth.  A dead child gets no rows, as its
        completions could only earn the penalty."""
        cfg = self.cfg
        rows = [ch.partial[None, :] for ch in children]
        open_ = [k for k, ch in enumerate(children) if not ch.terminal]
        live = [k for k in open_ if not self.dead(children[k])]
        self.counts["dead_rollouts"] += len(open_) - len(live)
        for k in set(open_) - set(live):
            rows[k] = rows[k][:0]
        if live:
            ids = np.repeat(np.stack([children[k].partial for k in live]), cfg.n_sim, axis=0)
            lanes = (np.array([iterations[k] for k in live])[:, None] * cfg.n_sim
                     + np.arange(cfg.n_sim)).ravel()
            self._decoder.run_blocks(ids, children[live[0]].depth, self._last_block,
                                     lane_keys(cfg.decode.seed ^ 0x517C0DE, lanes))
            for i, k in enumerate(live):
                rows[k] = ids[i * cfg.n_sim:(i + 1) * cfg.n_sim]
        return rows

    def _score(self, smiles: str) -> OracleScores | None:
        """The oracle's scores of ``smiles``, None for an invalid molecule;
        kept, without the fingerprint, for the run's next call with that SMILES."""
        if smiles not in self._scores:
            scored = self.oracle.score(smiles)
            self._scores[smiles] = None if scored is None else scored.scores
        return self._scores[smiles]

    def simulate(self, node: SearchNode, iteration: int, ids: np.ndarray):
        """(best reward over the rollout rows ``ids``, per-rollout SearchResults)."""
        cfg = self.cfg
        best, results = cfg.gate.r_pen, []
        for rec in self._decoder.records(ids):
            scores = None if rec.proven_invalid else self._score(rec.smiles)
            if scores is None:  # an invalid molecule earns the penalty
                continue
            reward = -scores.ds if cfg.gate.passes(scores) else cfg.gate.r_pen
            results.append(SearchResult(rec.smiles, reward, scores.ds, scores.qed,
                                        scores.sa, node.depth, iteration))
            best = max(best, reward)
        node.cached_reward = best
        return best, results

    # -- driver

    def run(self) -> SearchOutcome:
        cfg = self.cfg
        root = self.make_root()
        rollouts: list[SearchResult] = []
        done = 0
        while done < cfg.n_max:
            path, leaf = self.select(root)
            width = 1
            if leaf is root:  # the root phase: see the module docstring
                width = min(max(1, ROOT_WAVE_ROWS // max(cfg.m, cfg.n_sim)),
                            root.cap - len(root.children), cfg.n_max - done)
            done += self._wave(path, leaf, range(done, done + width), rollouts)
        return self._outcome(root, rollouts, done)

    def _wave(self, path, leaf, iterations: range, rollouts) -> int:
        """Run iterations that each select ``leaf`` by ``path``; returns how
        many ran, which is fewer when the leaf runs out of novel candidates."""
        if leaf.terminal:  # scored once, when expansion created it
            self.counts["terminal_reselections"] += 1
            backpropagate(path, leaf.cached_reward)
            return 1
        children = []
        for iteration, ids in zip(iterations, self.candidates(leaf, iterations)):
            try:
                children.append(self.expand(leaf, iteration, ids))
            except NoNovelCandidate:  # the leaf is exhausted: later iterations select anew
                iterations = iterations[:len(children) + 1]
                break
        for k, ids in enumerate(self.rollout_rows(children, iterations)):
            reward, results = self.simulate(children[k], iterations[k], ids)
            rollouts.extend(results)
            backpropagate(path + [children[k]], reward)
        return len(iterations)

    def _outcome(self, root, rollouts, iterations) -> SearchOutcome:
        passing: dict[str, SearchResult] = {}
        for res in rollouts:
            if res.reward == self.cfg.gate.r_pen:
                continue
            kept = passing.get(res.smiles)
            if kept is None or res.reward > kept.reward:
                passing[res.smiles] = res
        ranked = sorted(passing.values(), key=lambda r: (-r.reward, r.smiles))
        self.counts["parsed"] = len(self._scores)
        return SearchOutcome(
            results=ranked,
            rollouts=rollouts,
            best=ranked[0] if ranked else None,
            iterations=iterations,
            root=root,
            counts=self.counts,
        )


def run_search(cfg: SearchConfig, params, vocab: Vocab, oracle) -> SearchOutcome:
    return TreeSearch(cfg, params, vocab, oracle).run()

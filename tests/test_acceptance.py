"""Acceptance gate: one test per shipped guarantee.

Each check prints a single ``[criterion NN] name: PASS/FAIL (elapsed)`` line
and enforces its own runtime budget where one is stated.  Model training is
session-fixture work shared across criteria (see conftest); every timer below
covers the criterion's own evaluation.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from blockmol import diffusion, metrics
from blockmol.chem import (
    DanglingBond,
    Fingerprint,
    UnbalancedBranch,
    UnclosedRing,
    descriptors,
    fingerprint,
    tanimoto,
    try_parse,
    validate_smiles,
)
from blockmol.curate import curate_stream
from blockmol.decode import DecodeConfig, Decoder, first_hitting_step, key_uniform
from blockmol.fragment import FragmentConfig
from blockmol.oracle import SurrogateOracle, load_profile
from blockmol.search import (
    GateConfig,
    SearchConfig,
    SearchNode,
    adaptive_cap,
    backpropagate,
    run_search,
    uct,
)
from conftest import TRAIN_K, one_nelbo
from test_diffusion import nelbo_loop


@contextmanager
def criterion(capsys, num, name, budget=None):
    t0 = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - t0
        over = budget is not None and elapsed > budget
        status = "FAIL" if failed or over else "PASS"
        with capsys.disabled():
            print(f"[criterion {num:02d}] {name}: {status} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed <= budget, f"runtime {elapsed:.2f}s exceeds {budget}s"


# --- 1. tokenizer and parser fidelity -----------------------------------------

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


def test_criterion_01_parser_fidelity(capsys):
    with criterion(capsys, 1, "broken-prefix rejection and completions", 1.0):
        for prefix, err_cls in BROKEN_PREFIXES:
            mol, err = try_parse(prefix)
            assert mol is None and type(err) is err_cls, prefix
        # the one truncation exemplar that is a whole molecule by itself
        mol, err = try_parse("C1CC1")
        assert err is None and descriptors(mol).max_ring_size == 3
        for smiles in COMPLETIONS:
            mol, err = try_parse(smiles)
            assert err is None, (smiles, err)


# --- 2. training attention mask ------------------------------------------------


def test_criterion_02_train_mask_exhaustive(capsys):
    with criterion(capsys, 2, "training mask vs brute force", 5.0):
        checked = 0
        for L in range(2, 17):
            for K in range(1, L + 1):
                if L % K:
                    continue
                got = diffusion.build_train_mask(FragmentConfig(L, K))
                want = np.zeros((2 * L, 2 * L), dtype=np.uint8)
                for i in range(2 * L):
                    for j in range(2 * L):
                        bi = (i % L) // K
                        bj = (j % L) // K
                        if i < L and j < L:
                            ok = bi == bj  # noised attends own block
                        elif i < L <= j:
                            ok = bj < bi  # noised attends strictly earlier clean
                        elif i >= L > j:
                            ok = False  # clean never attends noised
                        else:
                            ok = bj <= bi  # clean is blockwise causal
                        want[i, j] = ok
                assert (got == want).all(), (L, K)
                checked += 1
        assert checked == 49  # sum of divisor counts for L = 2..16


# --- 3. objective and gradient --------------------------------------------------


def test_criterion_03_loss_and_gradient(capsys, corpus, vocab):
    with criterion(capsys, 3, "loss equivalence and gradient check", 30.0):
        params = diffusion.PredictorParams.init(len(vocab), dim=6, window=3,
                                                seed=9, scale=0.05)
        num_blocks = corpus.shape[1] // TRAIN_K
        for i, ids in enumerate(corpus[:100]):
            rng = np.random.default_rng(1000 + i)
            ts = diffusion.draw_block_times(num_blocks, rng)
            noised = diffusion.draw_noise(ids, ts, rng)
            fast = one_nelbo(params, ids, ts, noised)
            slow_nelbo, slow_per_block = nelbo_loop(params, ids, ts, noised)
            assert abs(fast.nelbo - slow_nelbo) <= 1e-9, i
            assert np.abs(fast.per_block - slow_per_block).max() <= 1e-9, i

        ids = corpus[0]
        rng = np.random.default_rng(77)
        ts = diffusion.draw_block_times(num_blocks, rng)
        noised = diffusion.draw_noise(ids, ts, rng)
        _, grads = diffusion.loss_gradient(params, ids[None], ts[None], noised[None])
        # 50 coordinates spread over every table; embedding rows restricted to
        # tokens that actually occur, since absent rows have zero gradient
        present = np.unique(np.concatenate([noised, ids]))
        coords = [("embeddings", (int(rng.choice(present)),
                                  int(rng.integers(params.dim))))
                  for _ in range(15)]
        coords += [("gains", (int(rng.integers(2 * params.window + 1)),
                              int(rng.integers(params.dim))))
                   for _ in range(10)]
        coords += [("out", (int(rng.integers(params.dim)),
                            int(rng.integers(len(vocab)))))
                   for _ in range(15)]
        coords += [("bias", (int(rng.integers(len(vocab))),))
                   for _ in range(10)]
        assert len(coords) == 50
        h = 1e-5
        for field, idx in coords:
            table = getattr(params, field)
            analytic = float(getattr(grads, field)[idx])
            orig = float(table[idx])
            table[idx] = orig + h
            up = one_nelbo(params, ids, ts, noised).nelbo
            table[idx] = orig - h
            down = one_nelbo(params, ids, ts, noised).nelbo
            table[idx] = orig
            numeric = (up - down) / (2 * h)
            denom = max(abs(analytic), abs(numeric), 1e-6)
            assert abs(numeric - analytic) / denom <= 1e-4, (field, idx)


# --- 4. first-hitting schedule ---------------------------------------------------


def test_criterion_04_first_hitting_law(capsys):
    with criterion(capsys, 4, "first-hitting step distribution", 10.0):
        n = 100_000
        for m in (1, 2, 4, 8):
            draws = np.fromiter(
                (first_hitting_step(1.0, m, key_uniform(31, m, i))
                 for i in range(n)),
                dtype=np.float64, count=n)
            # t_next / t is the maximum of m uniforms: F(x) = x^m
            result = stats.kstest(draws, lambda x, _m=m: np.clip(x, 0, 1) ** _m)
            assert result.pvalue > 0.01, (m, result)


# --- 5. per-block budget phase transition ---------------------------------------


def test_criterion_05_budget_phase_transition(capsys, trained, vocab):
    params, _ = trained(42)
    with criterion(capsys, 5, "per-block budget phase transition", 30.0):
        # 7 calls cannot reveal the 8 masked slots of any block past the
        # first, so every lane aborts; 8 decodes them all
        starved = Decoder(params, DecodeConfig(block=8, length=48, budget=7,
                                               mode="sample", seed=5), vocab)
        assert starved.generate(16) == []
        outputs = []
        for budget in (8, 100, 1000):
            dec = Decoder(params, DecodeConfig(block=8, length=48,
                                               budget=budget, mode="sample",
                                               seed=5), vocab)
            recs = dec.generate(16)
            assert len(recs) == 16, budget
            outputs.append([(r.smiles, r.completed, r.block_count)
                            for r in recs])
        assert outputs[0] == outputs[1] == outputs[2]


# --- 6. decoding validity trend ---------------------------------------------------


def test_criterion_06_decoding_validity_trend(capsys, trained, vocab,
                                              distinct_prefixes):
    with criterion(capsys, 6, "guided vs uniform decode validity", 300.0):
        def validity(dec):
            ok = 0
            for prefix in distinct_prefixes:
                recs = dec.generate(1, prefix=prefix)
                if recs and recs[0].completed:
                    _, err = try_parse(recs[0].smiles)
                    ok += err is None
            return ok / len(distinct_prefixes)

        # zero parameters give a uniform next-token law: blind token-filling
        filler = diffusion.PredictorParams.zeros(len(vocab), dim=24, window=12)
        for seed in (42, 43, 44):
            params, _ = trained(seed)
            guided = Decoder(params, DecodeConfig(block=8, length=48, budget=64,
                                                  mode="confidence", seed=seed),
                             vocab)
            blind = Decoder(filler, DecodeConfig(block=8, length=48, budget=64,
                                                 mode="sample", seed=seed),
                            vocab)
            gap = validity(guided) - validity(blind)
            assert gap >= 0.30, (seed, gap)


# --- 7. tree-search arithmetic -----------------------------------------------------


def test_criterion_07_search_arithmetic(capsys, trained, vocab):
    params, _ = trained(42)
    with criterion(capsys, 7, "search arithmetic and sibling distinctness"):
        blank = np.zeros(8, dtype=np.int64)

        def node(n, r_bar, r_max=-math.inf):
            sn = SearchNode(partial=blank, depth=0, cap=8)
            sn.n, sn.r_bar, sn.r_max = n, r_bar, r_max
            return sn

        # 0.5*1 + 0.5*2 + 2.1*sqrt(ln e / 1) = 3.6, with ln e = 1
        assert uct(node(1, 1.0, 2.0), 1.0, 0.5, 2.1) == pytest.approx(3.6, abs=1e-12)

        parent = node(3, 0.0)
        parent.cap = 5
        parent.children = [node(1, 4.7), node(0, 99.0)]
        # unvisited child excluded; floor(2 * 4.7) = 9 inside [8, 10]
        assert adaptive_cap(parent, 2.0, 8, 10) == 9
        parent.children[0].r_bar = 0.0
        assert adaptive_cap(parent, 2.0, 8, 10) == 8
        parent.children[0].r_bar = 100.0
        assert adaptive_cap(parent, 2.0, 8, 10) == 10

        a, b = node(0, 0.0), node(0, 0.0)
        backpropagate([a, b], 5.0)
        backpropagate([a, b], 1.0)
        backpropagate([a], 3.0)
        assert (a.n, a.r_bar, a.r_max) == (3, 3.0, 5.0)
        assert (b.n, b.r_bar, b.r_max) == (2, 3.0, 5.0)

        # sibling distinctness over every expansion of a real 200-step run
        oracle = SurrogateOracle(load_profile("parp1"))
        decode = DecodeConfig(block=8, length=32, budget=64, temperature=1.1,
                              nucleus_p=1.0, seed=42)
        out = run_search(SearchConfig(n_max=200, m=8, decode=decode),
                         params, vocab, oracle)
        assert out.iterations == 200
        seen = 0
        stack = [out.root]
        while stack:
            cur = stack.pop()
            keys = [ch.block_key for ch in cur.children]
            assert len(set(keys)) == len(keys)
            for ch in cur.children:
                assert ch.depth == cur.depth + 1
            stack.extend(cur.children)
            seen += 1
        assert seen > 20  # the run genuinely grew a tree


# --- 8. feasibility gate soundness ---------------------------------------------------


def test_criterion_08_gate_soundness(capsys, trained, vocab):
    params, _ = trained(42)
    with criterion(capsys, 8, "feasibility gate soundness", 120.0):
        oracle = SurrogateOracle(load_profile("parp1"))
        decode = DecodeConfig(block=8, length=48, budget=130, temperature=1.0,
                              nucleus_p=0.95, seed=7)
        cfg = SearchConfig(n_max=1000, m=8, c=3.0, n_sim=2, decode=decode)
        out = run_search(cfg, params, vocab, oracle)
        assert out.iterations == 1000
        assert out.results, "search returned no hits to audit"
        fresh = SurrogateOracle(load_profile("parp1"))
        for res in out.results:
            s = fresh.score_mol(validate_smiles(res.smiles))
            assert s.qed >= cfg.gate.tau_qed, res.smiles
            assert s.sa <= cfg.gate.tau_sa, res.smiles
            assert res.reward == pytest.approx(-s.ds, abs=1e-9)
            assert res.reward > cfg.gate.r_pen


# --- 9. search vs sampling ---------------------------------------------------------


def test_criterion_09_search_beats_sampling(capsys, vocab, corpus):
    with criterion(capsys, 9, "search vs sampling and gate relaxation", 600.0):
        # an early-stopped predictor keeps valid molecules scarce, which is
        # the regime where reward guidance should outrun blind sampling
        params = diffusion.PredictorParams.init(len(vocab), dim=24, window=12,
                                                seed=42)
        params, _ = diffusion.train(params, corpus, TRAIN_K, epochs=2, lr=0.1, seed=42)
        oracle = SurrogateOracle(load_profile("parp1"))
        gate = GateConfig()
        relaxed = GateConfig(tau_qed=0.0, tau_sa=math.inf, r_pen=-1.0)
        wins = 0
        for seed in range(20):
            decode = DecodeConfig(block=8, length=48, budget=130,
                                  temperature=1.0, nucleus_p=0.95, seed=seed)
            kw = dict(n_max=1000, m=8, c=3.0, n_sim=8, c_init=100, beta=8.0,
                      c_max=64, decode=decode)
            con = run_search(SearchConfig(**kw), params, vocab, oracle)
            unc = run_search(SearchConfig(**kw, gate=relaxed), params, vocab,
                             oracle)
            assert con.iterations == unc.iterations == 1000
            best_gated = con.best.reward if con.best else gate.r_pen

            # best of 1000 i.i.d. draws from the same model, same reward rule
            dec = Decoder(params, DecodeConfig(block=8, length=48, budget=130,
                                               temperature=1.0, nucleus_p=0.95,
                                               mode="sample", seed=seed), vocab)
            iid = gate.r_pen
            for rec in dec.generate(1000):
                mol, err = try_parse(rec.smiles)
                if err is None:
                    s = oracle.score_mol(mol)
                    iid = max(iid, -s.ds if gate.passes(s) else gate.r_pen)
            wins += best_gated >= iid

            # dropping the gate may only ever raise the attainable reward:
            # over everything either paired run scored, the relaxed optimum
            # must dominate the constrained one
            free = [-r.ds for r in con.rollouts + unc.rollouts
                    if math.isfinite(r.ds)]
            relaxed_best = max(free, default=relaxed.r_pen)
            assert relaxed_best >= best_gated - 1e-9, seed
        assert wins >= 18, f"search beat sampling in only {wins}/20 seeds"


# --- 10. curation golden corpus -------------------------------------------------------

GOLDEN = [
    ("CCCCCCCCCCCCCCCC", "physchem.qed"),
    ("COc1ccc(NC(=O)N2CCN(C)CC2)cc1", "physchem.sa"),
    ("C[Si](C)(C)OC(=O)Nc1ccc(N)cc1", "structural.banned_element"),
    ("C[N+]1(C)CCC(NC(=O)c2ccccc2)CC1", "structural.net_charge"),
    ("O=C1CCCCCCCCC1N", "structural.ring_size"),
    ("Nc1ccc(CCN=[N+]=[N-])cc1", "structural.banned_pattern"),
    ("CCOP(OCC)OCc1ccccc1", "structural.phosphorus"),
    ("Cc1ccncc1", "lipinski.mw"),
    ("CC(=O)Nc1ccc(O)cc1", None),
    ("CCN(CC)C(=O)c1ccncc1", None),
    ("CC(=O)Nc1ccc(O)cc1", "diversity.similarity"),
    ("CC(=O)Nc1ccc(F)cc1", "diversity.similarity"),
]


def test_criterion_10_curation_golden(capsys):
    with criterion(capsys, 10, "curation golden corpus", 1.0):
        accepted, report = curate_stream(s for s, _ in GOLDEN)
        assert [m.smiles for m in accepted] == ["CC(=O)Nc1ccc(O)cc1",
                                                "CCN(CC)C(=O)c1ccncc1"]
        assert report.input_count == 12 and report.parse_failures == 0
        assert report.accepted_count == 2
        assert report.rejections == {"physchem": 2, "structural": 5,
                                     "lipinski": 1, "diversity": 2}
        rules = {}
        for _, verdict in GOLDEN:
            if verdict:
                rules[verdict] = rules.get(verdict, 0) + 1
        assert report.rule_counts == rules
        assert report.reconciles()


# --- 11. evaluation metric oracles ------------------------------------------------------

FOUR = ["CC(=O)Nc1ccc(O)cc1", "CCN(CC)C(=O)c1ccncc1",
        "COc1ccccc1", "CCCCCCCC"]


def test_criterion_11_metric_oracles(capsys):
    with criterion(capsys, 11, "evaluation metric oracles"):
        oracle = SurrogateOracle(load_profile("parp1"))
        profile = oracle.profile

        report = metrics.standard_metrics(FOUR, oracle)
        mols = [validate_smiles(s) for s in FOUR]
        fps = [fingerprint(m, profile.fp_width) for m in mols]
        pair = [tanimoto(fps[i], fps[j])
                for i in range(4) for j in range(i + 1, 4)]
        scores = [oracle.score_mol(m) for m in mols]
        assert report.total == 4
        assert report.validity == 1.0 and report.uniqueness == 1.0
        assert report.diversity == 1.0 - sum(pair) / 6
        assert report.quality == sum(
            s.qed >= metrics.QED_QUALITY and s.sa <= metrics.SA_QUALITY
            for s in scores) / 4
        assert report.docking_filter == sum(
            s.qed > metrics.QED_HIT and s.sa < metrics.SA_HIT for s in scores) / 4
        hits = sorted(
            ((s, smi) for s, smi in zip(scores, FOUR)
             if s.ds < profile.threshold_ds and s.qed > metrics.QED_HIT
             and s.sa < metrics.SA_HIT),
            key=lambda p: (p[0].ds, p[1]))
        assert report.hit_ratio == len(hits) / 4
        if hits:
            top_n = math.ceil(metrics.TOP_FRACTION * len(hits))
            assert report.novel_top_hit == \
                sum(s.ds for s, _ in hits[:top_n]) / top_n
        else:
            assert report.novel_top_hit is None

        # duplicates collapse and parse failures only hurt validity
        mixed = metrics.standard_metrics(
            FOUR + [FOUR[0], "C1CC"], oracle)
        assert mixed.total == 6
        assert mixed.validity == 5 / 6
        assert mixed.uniqueness == 4 / 5
        assert mixed.diversity == report.diversity

        # greedy sphere exclusion on crafted bitsets
        a = Fingerprint(0b0111, 256)
        assert metrics.circles([a, a, a]) == 1
        assert metrics.circles([Fingerprint(1 << i, 256)
                                for i in range(5)]) == 5
        crafted = [
            Fingerprint(0b1111, 256),
            Fingerprint(0b0111, 256),     # 3/4 vs first: excluded
            Fingerprint(0b1111000, 256),  # disjoint: admitted
            Fingerprint(0b1100000, 256),  # 2/4 vs third: admitted
            Fingerprint(0b1111111, 256),  # 4/7 peak: admitted
            Fingerprint(0b1111110, 256),  # 6/7 vs fifth: excluded
        ]
        brute = []
        for fp in crafted:
            if all(tanimoto(fp, c) < 0.75 for c in brute):
                brute.append(fp)
        assert metrics.circles(crafted) == len(brute) == 4


# --- 12. command-line rerun identity ------------------------------------------------------


def test_criterion_12_cli_determinism(blockmol_cli, capsys, tmp_path):
    with criterion(capsys, 12, "command-line rerun identity"):
        ck = tmp_path / "toy.ckpt.npz"
        blockmol_cli(["train", "--toy", "60", "--epochs", "1", "--dim", "8",
                      "--window", "4", "--out", str(ck)])

        sample = ["sample", "--checkpoint", str(ck), "--n", "6",
                  "--length", "48", "--mode", "sample", "--seed", "5"]
        first = blockmol_cli(sample).stdout
        second = blockmol_cli(sample, hashseed=1).stdout
        assert first == second and first
        assert blockmol_cli(sample[:-1] + ["6"]).stdout != first

        search = ["search", "--target", "parp1", "--checkpoint",
                  str(ck), "--budget", "25", "--m", "8", "--length", "32",
                  "--steps", "64", "--seed", "3"]
        runs = (blockmol_cli(search).stdout,
                blockmol_cli(search, hashseed=1).stdout)
        assert runs[0] == runs[1] and runs[0]
        summary = json.loads(runs[0].decode().splitlines()[-1])
        assert {"best_smiles", "best_reward", "unique_count",
                "gate_pass_count"} == set(summary)

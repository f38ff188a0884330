"""The three workloads: set-up, one round of CLI commands, and output checks.

Every command goes through ``blockmol.cli.main`` in this process with stdout
captured, exactly as a user would type it.  Each command is one operation;
it fails on a non-zero exit, an exception, or any failed check.  The checks
recompute what they can apart from the program (counts, orderings, bucket
similarity, re-scoring) or test properties the method must have.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from blockmol import chem, cli, data, diffusion
from blockmol.chem import Vocab
from blockmol.oracle import SurrogateOracle, load_profile

TARGET = "parp1"
LENGTH, BLOCK = 48, 8
DECODE_FLAGS = ["--nucleus", "0.95", "--temp", "1.0", "--length", str(LENGTH),
                "--steps", "130"]
SEARCH_FLAGS = ["--m", "8", "--n-sim", "8", "--c", "3.0", "--c-init", "100",
                "--beta", "8.0", "--c-max", "64"]
# Every search runs with this seed, whatever --seed is: one 1000-iteration
# tree takes 5 to 10 s depending on its seed, so a seed per run would swamp
# the run-to-run spread (see README).
SEARCH_SEED = 42
# The set-up predictor's corpus and training seed are fixed for the same
# reason: sample validity ranged from 0.2% to 18% over ten training draws.
PREDICTOR_SEED = 0

# Curation rules restated from the curation spec, checked apart from the code.
BANNED_PATTERNS = ("N=[N+]=[N-]", "N=Nc", "C(=S)S")
BANNED_ELEMENTS = frozenset(("Si", "Sn"))
TANIMOTO_MAX = 0.5
FP_WIDTH = 2048
ATOM_RE = re.compile(r"\[\d*([A-Z][a-z]?|[a-z]{1,2})[^\]]*\]|(Cl|Br|[BCNOPSFI]|[bcnops])")


@dataclass(frozen=True)
class Sizes:
    grid_limit: int | None = None  # build: first n grid candidates; None = all
    build_shards: int = 8  # build curates the grid as this many interleaved shards
    build_epochs: int = 2
    corpus_stride: int = 62  # set-up predictor corpus: every 62nd grid molecule
    setup_epochs: int = 2
    sample_n: int = 2000
    probe_n: int = 64
    search_budget: int = 1000


FULL = Sizes()


@dataclass
class Command:
    argv: list
    code: object  # exit code, or the exception text
    stdout: str
    start: float  # time.perf_counter() when the command began
    seconds: float


@dataclass
class Round:
    # The commands that passed; a failed command is dropped, since one that
    # stops early would otherwise read fast.
    first: list  # (command, input items, useful outputs) per first-command run
    second: list  # (command, work items) per second-command run

    @property
    def seconds(self) -> float:
        return sum(t[0].seconds for t in self.first + self.second)


class Ledger:
    """Operations attempted, failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, command: Command, check=None) -> bool:
        """Count one operation and say whether it passed.

        ``check()`` returns its problems; it runs only on exit 0, and a check
        that raises is one more problem, not the run's end.
        """
        self.attempted += 1
        problems = []
        if command.code != 0:
            problems = [f"exit {command.code}"]
        elif check is not None:
            try:
                problems = check()
            except Exception as exc:
                problems = [f"output unreadable: {exc!r}"]
        if problems:
            self.failed += 1
            label = " ".join(command.argv[:1])
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems


def run_cli(argv: list) -> Command:
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:  # a crash is one failed operation, not the run's end
        traceback.print_exc()
        code = f"{type(exc).__name__}: {exc}"
    return Command(argv, code, buf.getvalue(), start, time.perf_counter() - start)


def _lines(path) -> list[str]:
    return [line.strip() for line in Path(path).read_text().splitlines() if line.strip()]


def _json_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _grid(limit: int | None) -> list[str]:
    # toy_candidates is lru_cached: call the function itself so every set-up
    # pays for the enumeration.
    grid = list(data.toy_candidates.__wrapped__(3))
    return grid if limit is None else grid[:limit]


def _unlink(*paths: Path):
    """Remove a command's earlier outputs, so its checks never read stale files."""
    for path in paths:
        path.unlink(missing_ok=True)


def _write(path: Path, lines: list[str]):
    path.write_text("".join(line + "\n" for line in lines))


def heavy_atoms(smiles: str) -> int:
    return sum(1 for m in ATOM_RE.finditer(smiles) if (m.group(1) or m.group(2)) != "H")


def bracket_elements(smiles: str) -> set:
    return {m.group(1) for m in ATOM_RE.finditer(smiles) if m.group(1)}


def corpus_vocab(lines: list[str]) -> Vocab:
    return Vocab.build([[t.text for t in chem.tokenize(s)] for s in lines])


# -- checks ---------------------------------------------------------------------


def check_curation(written: list[str], report: dict, kept: list[str]) -> list[str]:
    problems = []
    rejected = sum(report["rejections"].values())
    if report["input"] != report["accepted"] + report["parse_failures"] + rejected:
        problems.append(f"report does not reconcile: {report}")
    if report["input"] != len(written):
        problems.append(f"report input {report['input']} != {len(written)} lines written")
    if report["accepted"] != len(kept):
        problems.append(f"report accepted {report['accepted']} != {len(kept)} lines in --out")
    if len(set(kept)) != len(kept):
        problems.append("duplicate survivors")
    position = {s: i for i, s in reversed(list(enumerate(written)))}
    order = [position.get(s, -1) for s in kept]
    if -1 in order:
        problems.append("a survivor is not in the input")
    elif order != sorted(order):
        problems.append("survivors are out of input order")
    for s in kept:
        if any(p in s for p in BANNED_PATTERNS) or bracket_elements(s) & BANNED_ELEMENTS:
            problems.append(f"banned pattern or element survived: {s}")
    buckets: dict[int, list] = {}
    for s in kept:
        buckets.setdefault(heavy_atoms(s), []).append(
            chem.fingerprint(chem.validate_smiles(s), FP_WIDTH).bits)
    for size, bits in buckets.items():
        for i, a in enumerate(bits):
            for b in bits[:i]:
                union = (a | b).bit_count()
                if union and (a & b).bit_count() / union >= TANIMOTO_MAX:
                    problems.append(f"two survivors with {size} heavy atoms "
                                    f"have Tanimoto >= {TANIMOTO_MAX}")
    return problems


def check_training(stdout: str, corpus: list[str], epochs: int, ckpt: Path) -> list[str]:
    problems = []
    summary = json.loads(stdout)
    if summary["examples"] != len(corpus):
        problems.append(f"examples {summary['examples']} != {len(corpus)} corpus lines")
    history = summary["nelbo_history"]
    if len(history) != epochs or not history[-1] < history[0]:
        problems.append(f"NELBO did not fall over {epochs} epochs: {history}")
    try:
        params, _, _ = diffusion.load_checkpoint(ckpt, vocab=corpus_vocab(corpus))
    except diffusion.VocabMismatch as exc:
        return problems + [f"checkpoint vocabulary: {exc}"]
    for table in (params.embeddings, params.gains, params.out, params.bias):
        if not all(math.isfinite(x) for x in table.ravel().tolist()):
            problems.append("checkpoint holds a non-finite parameter")
    return problems


def check_samples(stdout: str, n: int, seed: int, vocab: Vocab) -> list[str]:
    if vocab is None:
        return ["no checkpoint vocabulary: the set-up training failed"]
    problems = []
    records = _json_lines(stdout)
    if len(records) != n:
        problems.append(f"{len(records)} lines written, expected {n}")
    # Control tokens are checkpoint tokens too: the decoder does commit BOS
    # inside a molecule (see CHANGES.md), so they cannot be ruled out here.
    allowed = set(vocab.tokens)
    for rec in records:
        smiles = rec["smiles"]
        tokens = [t.text for t in chem.tokenize(smiles)]
        if chem.detokenize(chem.tokenize(smiles)) != smiles:
            problems.append(f"tokenize/detokenize does not round-trip {smiles!r}")
        if not set(tokens) <= allowed:
            problems.append(f"tokens outside the checkpoint vocabulary: {smiles!r}")
        # L - 1 slots follow BOS.  A molecule that never commits EOS fills all
        # of them, one more than the L - 2 a training example may hold (see
        # CHANGES.md), so L - 2 cannot be required here.
        if len(tokens) > LENGTH - 1:
            problems.append(f"{len(tokens)} tokens exceed {LENGTH - 1}: {smiles!r}")
        if not 1 <= rec["block_count"] <= LENGTH // BLOCK:
            problems.append(f"block_count {rec['block_count']} outside 1..{LENGTH // BLOCK}")
        if rec["seed"] != seed or not isinstance(rec["valid"], bool):
            problems.append(f"bad record {rec}")
    return problems


def check_eval(stdout: str, smiles: list[str], valid: list[bool]) -> list[str]:
    if not smiles:
        return ["eval exited 0 on an empty sample set"]
    report = json.loads(stdout)
    n_valid = sum(valid)
    distinct = len({s for s, ok in zip(smiles, valid) if ok})
    want = {"total": len(smiles), "validity": n_valid / len(smiles),
            "uniqueness": distinct / n_valid if n_valid else 0.0}
    return [f"eval {key} {report[key]} != {value}" for key, value in want.items()
            if not math.isclose(report[key], value, rel_tol=0, abs_tol=1e-12)]


def check_search(stdout: str, manifest: dict, budget: int, oracle) -> list[str]:
    problems = []
    lines = _json_lines(stdout)
    summary, results = lines[-1], lines[:-1]
    rewards = [r["reward"] for r in results]
    if rewards != sorted(rewards, reverse=True):
        problems.append("results are not sorted by reward")
    if len({r["smiles"] for r in results}) != len(results):
        problems.append("a SMILES repeats in the results")
    for r in results:
        if not (r["reward"] == -r["ds"] and r["qed"] >= 0.5 and r["sa"] <= 5.0
                and 0 < r["reward"] < 18):
            problems.append(f"result breaks the gate: {r}")
        mol, err = chem.try_parse(r["smiles"])
        if err is not None:
            problems.append(f"result does not parse: {r['smiles']!r}")
            continue
        s = oracle.score_mol(mol)
        if (s.qed, s.sa, s.ds) != (r["qed"], r["sa"], r["ds"]):
            problems.append(f"re-scoring gives {s} for {r}")
    if summary["gate_pass_count"] != len(results):
        problems.append(f"gate_pass_count {summary['gate_pass_count']} != {len(results)}")
    if summary["best_reward"] != (rewards[0] if rewards else None):
        problems.append("best_reward is not the first result's reward")
    if summary["unique_count"] < summary["gate_pass_count"]:
        problems.append("unique_count < gate_pass_count")
    if manifest.get("iterations") != budget or manifest.get("aborted") is not False:
        problems.append(f"manifest: {manifest.get('iterations')} iterations, "
                        f"aborted={manifest.get('aborted')}")
    return problems


# -- workloads --------------------------------------------------------------------


class _Workload:
    min_rounds = 1

    def __init__(self, work: Path, seed: int, sizes: Sizes, ledger: Ledger):
        self.work, self.seed, self.sizes, self.ledger = work, seed, sizes, ledger

    def finish(self):
        """Operations run once after the timed rounds."""


class Build(_Workload):
    """Offline path: curate the toy grid in shards, then train on survivors."""

    def setup(self):
        grid, k = _grid(self.sizes.grid_limit), self.sizes.build_shards
        self.shards = [grid[i::k] for i in range(k)]
        for i, shard in enumerate(self.shards):
            _write(self.work / f"grid{i}.smi", shard)

    def round(self, index: int) -> Round:
        # Trainings on the first shard's survivors, all with the same seed, run
        # at the round's two ends, so that a short slow stretch cannot cover
        # both.
        k, epochs = len(self.shards), self.sizes.build_epochs
        train_after = {0, k - 1}
        report_path, ckpt = self.work / "report.json", self.work / "build.ckpt"
        curations, trainings, digests = [], [], set()
        for i, shard in enumerate(self.shards):
            kept_path = self.work / f"kept{i}.smi"
            _unlink(kept_path, report_path)
            curate = run_cli(["curate", "--in", str(self.work / f"grid{i}.smi"),
                              "--out", str(kept_path), "--report", str(report_path)])
            kept = _lines(kept_path) if curate.code == 0 else []
            if self.ledger.record(curate, lambda: check_curation(
                    shard, json.loads(report_path.read_text()), kept)):
                curations.append((curate, len(shard), len(kept)))
            if i == 0:
                survivors = kept
            if i not in train_after:
                continue
            _unlink(ckpt)
            train = run_cli(["train", "--in", str(self.work / "kept0.smi"), "--out", str(ckpt),
                             "--epochs", str(epochs), "--seed", str(self.seed)])

            def check():
                problems = check_training(train.stdout, survivors, epochs, ckpt)
                digests.add(hashlib.sha256(ckpt.read_bytes()).hexdigest())
                if len(digests) > 1:
                    problems.append("the same training run wrote a different checkpoint")
                return problems

            if self.ledger.record(train, check):
                trainings.append((train, len(survivors) * epochs))
        return Round(curations, trainings)


class _Decoding(_Workload):
    """Set-up shared by sample and search: train the predictor they decode with."""

    evals = 2  # eval runs per round: one is under two seconds, so time it twice

    def __init__(self, *args):
        super().__init__(*args)
        self.ckpt = self.work / "predictor.ckpt"
        self.vocab = None  # the checkpoint's, once a set-up has trained it
        self._digest = None

    def setup(self):
        corpus = _grid(None)[::self.sizes.corpus_stride]
        corpus_path = self.work / "corpus.smi"
        _write(corpus_path, corpus)
        epochs = self.sizes.setup_epochs
        _unlink(self.ckpt)
        train = run_cli(["train", "--in", str(corpus_path), "--out", str(self.ckpt),
                         "--epochs", str(epochs), "--seed", str(PREDICTOR_SEED)])

        def check():
            problems = check_training(train.stdout, corpus, epochs, self.ckpt)
            digest = hashlib.sha256(self.ckpt.read_bytes()).hexdigest()
            if self._digest not in (None, digest):
                problems.append("the same training run wrote a different checkpoint")
            self._digest = digest
            self.vocab = diffusion.load_checkpoint(self.ckpt)[1]
            return problems

        self.ledger.record(train, check)

    def evaluate(self, path: Path, smiles: list, valid: list) -> list:
        """Run ``eval`` ``evals`` times; every run must print the same report."""
        reports, timings = [], []
        for _ in range(self.evals):
            evaluate = run_cli(["eval", "--in", str(path), "--target", TARGET])
            if self.ledger.record(evaluate, lambda: check_eval(
                    evaluate.stdout, smiles, valid) + (
                    ["eval printed another report"]
                    if reports[:1] not in ([], [evaluate.stdout]) else [])):
                timings.append((evaluate, len(smiles)))
            reports.append(evaluate.stdout)
        return timings


class Sample(_Decoding):
    """Large batches: sample a few thousand molecules, then evaluate them."""

    min_rounds = 2

    def sample_argv(self, n: int, seed: int) -> list:
        return (["sample", "--checkpoint", str(self.ckpt), "--mode", "sample",
                 "--n", str(n), "--seed", str(seed)] + DECODE_FLAGS)

    def round_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def round(self, index: int) -> Round:
        n, seed = self.sizes.sample_n, self.round_seed(index)
        sample = run_cli(self.sample_argv(n, seed))
        ok = self.ledger.record(
            sample, lambda: check_samples(sample.stdout, n, seed, self.vocab))
        records = _json_lines(sample.stdout) if ok else []
        smiles = [r["smiles"] for r in records]
        valid = [r["valid"] for r in records]
        out_path = self.work / "samples.jsonl"
        out_path.write_text(sample.stdout if ok else "")
        distinct_valid = len({s for s, v in zip(smiles, valid) if v})
        first = [(sample, len(records), distinct_valid)] if ok else []
        return Round(first, self.evaluate(out_path, smiles, valid))

    def finish(self):
        """Rerun identity: same seed, same bytes; another seed, other bytes."""
        n, seed = self.sizes.probe_n, self.round_seed(0)
        first = run_cli(self.sample_argv(n, seed))
        self.ledger.record(first, lambda: check_samples(first.stdout, n, seed, self.vocab))
        again = run_cli(self.sample_argv(n, seed))
        self.ledger.record(again, lambda: [] if again.stdout == first.stdout else
                           [f"seed {seed} gave different stdout on a rerun"])
        other = run_cli(self.sample_argv(n, seed + 1))
        self.ledger.record(other, lambda: [] if other.stdout != first.stdout else
                           [f"seeds {seed} and {seed + 1} gave the same stdout"])


class Search(_Decoding):
    """Small batches: a 1000-iteration gated search, then evaluate its rollouts."""

    # One search is a single 8 to 13 s command: two rounds give two timings
    # of each command and keep a run under a minute in a slow stretch.
    min_rounds = 2
    evals = 1

    def setup(self):
        super().setup()
        self.oracle = SurrogateOracle(load_profile(TARGET))

    def round(self, index: int) -> Round:
        budget = self.sizes.search_budget
        manifest, rollouts = self.work / "search.json", self.work / "rollouts.jsonl"
        _unlink(manifest, rollouts)
        search = run_cli(["search", "--target", TARGET, "--checkpoint", str(self.ckpt),
                          "--budget", str(budget), "--seed", str(SEARCH_SEED),
                          "--manifest", str(manifest), "--rollouts", str(rollouts)]
                         + SEARCH_FLAGS + DECODE_FLAGS)
        ok = self.ledger.record(search, lambda: check_search(
            search.stdout, json.loads(manifest.read_text()), budget, self.oracle))
        hits = len(search.stdout.splitlines()) - 1 if ok else 0
        smiles = [r["smiles"] for r in _json_lines(rollouts.read_text())] if ok else []
        first = [(search, budget, hits)] if ok else []
        return Round(first, self.evaluate(rollouts, smiles, [True] * len(smiles)))


WORKLOADS = {"build": Build, "sample": Sample, "search": Search}

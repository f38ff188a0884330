"""Shared fixtures: the curated toy corpus and predictors trained on it, a
runner for the command line in a child process, and a check that no test
leaves a child process behind; the predictor's full-distribution form,
which only tests read; one example's NELBO; a fork counter; and the
library's golden digests.

Corpus construction and training are the slow parts of the suite, so both
are session-scoped and memoized per seed.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blockmol import diffusion
from blockmol.chem import Vocab, tokenize
from blockmol.data import toy_corpus
from blockmol.fragment import FragmentConfig, pad_and_partition

CORPUS_SIZE = 500
TRAIN_L = 48
TRAIN_K = 8
TRAIN_DIM = 24
TRAIN_WINDOW = 12
TRAIN_LR = 0.1
TRAIN_EPOCHS = 5

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# The library's golden digests, by the stream version they belong to:
# TRAIN_DIGEST pins training (tests/test_diffusion.py), the others the decoder
# and the search (tests/test_decode_golden.py).  They are numpy 2.4.6 with
# OpenBLAS 0.3.31's, like tests/test_cli_digests.py's.  A change that moves a
# random stream bumps STREAM_VERSION and adds its table here and there.
GOLDENS = {
    1: {
        "TRAIN_DIGEST": "7c8254df93c46368ae143785d44031e37c492db89c7c25db6ccf8eeb4c0f8c8a",
        "SAMPLE_DIGEST": "55e7833c9d0dbf29a26df286ef849b19e7fbb1a5a565f161a70eeaf25261e428",
        "CONFIDENCE_DIGEST":
            "b9d6713dc2c95d99c44bd6f7a89422d3b62c5ef745ccef62e8c2db16265ac692",
        "SEARCH_DIGEST": "a3642407f64f83f6fa7823aae95c5257934d048e21decb604f7936bc1cc600ba",
        "WARM_SAMPLE_DIGEST":
            "80ab3478147c1746f732f9339fca2fcb40634236decc49eb923a808a79dbebf7",
        "CONFIDENCE_NUCLEUS_DIGEST":
            "d84ba869e42710703703cd1504640b8acab3dcc9e848fb1c6c6797d9ca6e13e2",
    },
}


def pooled(params, windows, positions, targets):
    """``diffusion._pooled`` of (N, S) windows at these positions, for the
    window columns ``targets``, with its constants built here."""
    return diffusion._pooled(windows, diffusion.offset_gains(params, positions, targets),
                             diffusion.visible_table(params))


def one_nelbo(params, ids, ts, noised):
    """The LossReport of one (L,) example under (B,) times: ``loss_gradient``,
    the one NELBO entry point, on a batch of that example alone."""
    return diffusion.loss_gradient(params, ids[None], ts[None], noised[None])[0][0]


def full_predict(params, windows, positions, active, temperature=1.0, nucleus_p=1.0):
    """The truncated (N, len(active), V) distributions of every ``active``
    window column of each row; ``diffusion.predict`` gives the cut of some."""
    logits = pooled(params, windows, positions, active) @ params.out + params.bias
    return diffusion.nucleus_truncate(diffusion._softmax(logits, temperature), nucleus_p)


def counting_forks(mp):
    """Patch os.fork, through the monkeypatch ``mp``, to count in this process
    the children it makes."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    mp.setattr(os, "fork", counted)
    return forks


@pytest.fixture(autouse=True)
def no_stray_children():
    """Fails a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    pytest.fail("the test left a child process " +
                ("running" if pid == 0 else f"{pid} unreaped"))


@pytest.fixture(scope="session")
def toy500():
    return [tokenize(s) for s in toy_corpus(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def vocab(toy500):
    return Vocab.build(toy500)


@pytest.fixture(scope="session")
def corpus(toy500, vocab):
    """The framed toy corpus, one (TRAIN_L,) row per molecule."""
    cfg = FragmentConfig(TRAIN_L, TRAIN_K)
    return np.stack([pad_and_partition(t, cfg, vocab) for t in toy500])


@pytest.fixture(scope="session")
def trained(vocab, corpus):
    """Factory: trained(seed) -> (params, history), memoized."""
    cache = {}

    def build(seed: int):
        if seed not in cache:
            params = diffusion.PredictorParams.init(
                len(vocab), dim=TRAIN_DIM, window=TRAIN_WINDOW, seed=seed)
            cache[seed] = diffusion.train(
                params, corpus, TRAIN_K, epochs=TRAIN_EPOCHS, lr=TRAIN_LR, seed=seed)
        return cache[seed]

    return build


@pytest.fixture(scope="session")
def distinct_prefixes(toy500):
    """Distinct first-block token prefixes of the corpus (block 0 holds BOS
    plus TRAIN_K - 1 tokens)."""
    seen, out = set(), []
    for toks in toy500:
        key = tuple(t.text for t in toks[: TRAIN_K - 1])
        if key not in seen:
            seen.add(key)
            out.append(list(toks[: TRAIN_K - 1]))
    return out


@pytest.fixture(scope="session")
def blockmol_cli():
    """Factory: blockmol_cli(args, hashseed=0, returncode=0, flags=()) -> the
    finished ``python *flags -m blockmol *args`` child process.

    The child imports the package from this repository's ``src`` whatever the
    current directory, so no install is needed, and runs under the explicit
    ``PYTHONHASHSEED`` given.  Fails unless the exit code is ``returncode``.
    """
    def run(args, hashseed=0, returncode=0, flags=()):
        env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, *flags, "-m", "blockmol", *args],
                              capture_output=True, timeout=300, env=env)
        assert proc.returncode == returncode, proc.stderr.decode()
        return proc

    return run

"""The command line's output bytes, pinned by sha256 for the recorded stream version.

The library goldens (``GOLDENS`` in tests/conftest.py: ``TRAIN_DIGEST``, the
decode goldens, ``SEARCH_DIGEST``) pin the trainer, the decoder and the
search.  This pins the layer on top: JSON rendering, the join of forked
chunks, eval's report, the checkpoint file.  It rebuilds the benchmark predictor in this process (every 62nd
``data.toy_candidates(3)`` entry, ``train --epochs 2 --seed 0``) and reruns
the benchmark's ``sample``, ``search`` and ``eval`` commands on it.

The digests are those of numpy 2.4.6 with OpenBLAS 0.3.31 on a 2-core
x86-64 VM, like the library goldens: other BLAS builds may round the
predictor's sums differently.  A change that moves a random stream bumps
``STREAM_VERSION`` and adds its table here and to ``GOLDENS``; the tests fail
until it does both.
"""

import hashlib
import io
import json
import logging
from contextlib import redirect_stdout

from blockmol import STREAM_VERSION, data
from blockmol.chem import validate_smiles
from blockmol.cli import main
from blockmol.oracle import SurrogateOracle, load_profile

DIGESTS = {
    1: {
        "checkpoint":
            "efadf61b8049768351dbcde88d02cc510ef10e56cd081eede7b95484d7fdbb39",
        "train stdout":
            "306d78de8bc27de26a9220c1bbba012d3d3e1ec3594ec6a3375eb01f8a8f4f43",
        "sample --mode sample --seed 51000":
            "5fce732d731b9b44efa847747107274eb7f380094c97a1174298107cc9359bca",
        "sample --mode confidence":
            "23d15c2d1b6f65c33867c0a926da86401a60fd948381bd69be60ca203a263481",
        "search --seed 42":
            "34b45390432bbea4a389429fe764faa4201c50efc5164b5d7319a3ebe03517ce",
        "search --rollouts":
            "567549c9a1145d9937c68229c3e8053681e4d9563bd034dadc7b2437f879f810",
        "eval of the sample":
            "579a50df782ea8d0c00d02fa2be022455c2dea3cd7776af06d38325c4616005c",
        "eval of the rollouts":
            "922bb0ab7d3b84343846cdc6dc68e23f2b6fc9491d566301c8bd61209a2ec576",
    },
}

DECODE_FLAGS = ["--nucleus", "0.95", "--temp", "1.0", "--length", "48", "--steps", "130"]
SEARCH_FLAGS = ["--m", "8", "--n-sim", "8", "--c", "3.0", "--c-init", "100",
                "--beta", "8.0", "--c-max", "64"]


def _stdout(argv, manifest=None) -> bytes:
    """The command's stdout; with a --manifest, which must name the stream version."""
    out = io.StringIO()
    if manifest:
        manifest.unlink(missing_ok=True)
    with redirect_stdout(out):
        assert main(argv + (["--manifest", str(manifest)] if manifest else [])) == 0, argv
    if manifest:
        assert json.loads(manifest.read_text())["stream_version"] == STREAM_VERSION
    return out.getvalue().encode()


def _train(tmp_path, manifest=None):
    """(the benchmark predictor's checkpoint, train's stdout)."""
    corpus, ckpt = tmp_path / "corpus.smi", tmp_path / "predictor.ckpt"
    corpus.write_text("".join(s + "\n" for s in data.toy_candidates(3)[::62]))
    return ckpt, _stdout(["train", "--in", str(corpus), "--out", str(ckpt), "--epochs", "2",
                          "--seed", "0"], manifest)


def _search(ckpt, rollouts, manifest=None) -> bytes:
    """The benchmark search's stdout; its rollouts go to ``rollouts``."""
    return _stdout(["search", "--target", "parp1", "--checkpoint", str(ckpt), "--budget",
                    "1000", "--seed", "42", "--rollouts", str(rollouts)]
                   + SEARCH_FLAGS + DECODE_FLAGS, manifest)


def test_cli_outputs_keep_their_bytes(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="blockmol")
    manifest = tmp_path / "manifest.json"
    ckpt, train_stdout = _train(tmp_path, manifest)
    outputs = {"train stdout": train_stdout, "checkpoint": ckpt.read_bytes()}
    sample = ["sample", "--checkpoint", str(ckpt), "--n", "2000"] + DECODE_FLAGS
    outputs["sample --mode sample --seed 51000"] = _stdout(
        sample + ["--mode", "sample", "--seed", "51000"], manifest)
    outputs["sample --mode confidence"] = _stdout(sample + ["--mode", "confidence"])
    rollouts = tmp_path / "rollouts.jsonl"
    outputs["search --seed 42"] = _search(ckpt, rollouts, manifest)
    outputs["search --rollouts"] = rollouts.read_bytes()
    # At stream version 1, 91 of the search's rollouts start from a dead prefix,
    # and 422 of its iterations reselect a terminal leaf.
    record = json.loads(manifest.read_text())
    assert (record["iterations"], record["dead_rollouts"],
            record["terminal_reselections"]) == (1000, 91, 422)
    assert ("search: 1000 iterations, 91 rollouts skipped from a dead prefix, "
            "422 terminal reselections") in caplog.messages
    # 1,676 of its 3,187 rollout rows are judged invalid from their ids alone.
    assert ("search: 1676 rollout rows judged invalid from their ids, "
            "575 SMILES parsed") in caplog.messages
    sampled = tmp_path / "sample.jsonl"
    sampled.write_bytes(outputs["sample --mode sample --seed 51000"])
    for name, path in (("eval of the sample", sampled), ("eval of the rollouts", rollouts)):
        outputs[name] = _stdout(["eval", "--in", str(path), "--target", "parp1"])
    got = {name: hashlib.sha256(out).hexdigest() for name, out in outputs.items()}
    assert got == DIGESTS[STREAM_VERSION]


def test_benchmark_sample_keeps_its_bytes_under_python_O(tmp_path, blockmol_cli):
    # -O strips every assert, so no decoding or verdict may rest on one.
    ckpt, _ = _train(tmp_path)
    proc = blockmol_cli(["sample", "--checkpoint", str(ckpt), "--n", "2000", "--mode", "sample",
                         "--seed", "51000"] + DECODE_FLAGS, flags=["-O"])
    assert (hashlib.sha256(proc.stdout).hexdigest()
            == DIGESTS[STREAM_VERSION]["sample --mode sample --seed 51000"])


def test_benchmark_search_keeps_its_bytes_and_counts_under_python_O(tmp_path, blockmol_cli):
    # -O strips every assert, so no search invariant may rest on one; the
    # counts cross into the manifest from a child of its own hash seed.
    ckpt, _ = _train(tmp_path)
    rollouts, manifest = tmp_path / "rollouts.jsonl", tmp_path / "search.json"
    proc = blockmol_cli(["search", "--target", "parp1", "--checkpoint", str(ckpt), "--budget",
                         "1000", "--seed", "42", "--rollouts", str(rollouts),
                         "--manifest", str(manifest)] + SEARCH_FLAGS + DECODE_FLAGS,
                        hashseed=1, flags=["-O"])
    digests = DIGESTS[STREAM_VERSION]
    assert hashlib.sha256(proc.stdout).hexdigest() == digests["search --seed 42"]
    assert hashlib.sha256(rollouts.read_bytes()).hexdigest() == digests["search --rollouts"]
    record = json.loads(manifest.read_text())
    assert (record["iterations"], record["dead_rollouts"],
            record["terminal_reselections"]) == (1000, 91, 422)


def test_oracle_score_equals_score_mol_on_the_benchmark_rollouts(tmp_path):
    # SurrogateOracle.score is the one path from a SMILES to its scores, which
    # eval and search share; score_mol of the validated molecule defines them.
    ckpt, _ = _train(tmp_path)
    rollouts = tmp_path / "rollouts.jsonl"
    _search(ckpt, rollouts)
    oracle = SurrogateOracle(load_profile("parp1"))
    distinct = dict.fromkeys(json.loads(line)["smiles"]
                             for line in rollouts.read_text().splitlines())
    assert len(distinct) > 100
    for smiles in distinct:
        scored = oracle.score(smiles)
        assert scored.smiles == smiles
        assert scored.scores == oracle.score_mol(validate_smiles(smiles)), smiles

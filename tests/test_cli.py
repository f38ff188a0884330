"""CLI exit codes, stream formats, config precedence, rerun identity."""

import argparse
import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from blockmol import cli, data, decode, fragment, metrics, parallel
from blockmol.cli import DEFAULTS, SETTINGS, main
from blockmol.data import toy_candidates
from blockmol.decode import BudgetExhausted, DecodeConfig, Decoder
from blockmol.fragment import FragmentConfig
from blockmol.oracle import PROFILE_DIR, SurrogateOracle
from blockmol.search import GateConfig, SearchConfig

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which RFC 8259 JSON lacks."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ck") / "toy.ckpt.npz"
    code = main(["train", "--toy", "60", "--epochs", "1", "--dim", "8",
                 "--window", "4", "--out", str(path)])
    assert code == 0
    return str(path)


@pytest.fixture(scope="module")
def grid_checkpoint(tmp_path_factory):
    """The benchmark's predictor, 2 epochs on every 62nd grid candidate.
    Unlike ``checkpoint`` it decodes valid molecules, so a search logs rollouts."""
    work = tmp_path_factory.mktemp("grid")
    corpus = work / "corpus.smi"
    corpus.write_text("\n".join(toy_candidates.__wrapped__(3)[::62]) + "\n")
    path = work / "grid.ckpt"
    assert main(["train", "--in", str(corpus), "--out", str(path),
                 "--epochs", "2", "--seed", "0"]) == 0
    return str(path)


def test_train_with_no_example_fails(tmp_path, capsys, caplog):
    infile = tmp_path / "in.smi"
    out_path = tmp_path / "x.ckpt"
    for text, message in (("C" * 47 + "\n",  # over the L - 2 = 46 body tokens
                           "no training examples (1 over-length skipped)"),
                          ("", "no training examples")):
        infile.write_text(text)
        caplog.clear()
        code, out, _ = run_cli(["train", "--in", str(infile), "--out", str(out_path)],
                               capsys)
        assert code == 2 and out == "" and not out_path.exists()
        assert f"{infile}: {message}\n" in caplog.text


def test_no_command_prints_help_and_fails(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_help_exits_zero(capsys):
    assert run_cli(["--help"], capsys)[0] == 0


def test_readme_usage_block_lists_exactly_the_parsers_commands():
    # A README line for a command the parser lacks, or a command with no line.
    readme = (SRC_DIR.parent / "README.md").read_text()
    usage = readme.split("\n## CLI\n")[1].split("```sh\n")[1].split("```")[0]
    listed = set(re.findall(r"^blockmol (\S+)", usage, re.MULTILINE))
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert listed == set(commands)


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    infile = tmp_path / "in.smi"
    infile.write_text("CCO\n")
    code, _, err = run_cli(["validate", "--in", str(infile), "--bogus"], capsys)
    assert code == 1
    assert "error" in err.lower()


def test_missing_required_flag_is_usage_error(capsys):
    assert run_cli(["validate"], capsys)[0] == 1


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"search.nope": 1}))
    code, _, err = run_cli(["train", "--toy", "10", "--out",
                            str(tmp_path / "x.npz"), "--config", str(cfg)],
                           capsys)
    assert code == 1
    assert "search.nope" in err


def test_missing_checkpoint_is_runtime_error(tmp_path, capsys):
    code, _, _ = run_cli(["sample", "--checkpoint",
                          str(tmp_path / "missing.npz"), "--n", "1"], capsys)
    assert code == 2


@pytest.mark.parametrize("flags,key", [
    (["--epochs", "0"], "train.epochs"),
    (["--epochs", "-1"], "train.epochs"),
    (["--lr", "nan"], "train.lr"),
    (["--lr", "inf"], "train.lr"),
    (["--lr", "-0.1"], "train.lr"),
    (["--lr", "0"], "train.lr"),
    (["--dim", "0"], "train.dim"),
    (["--window", "-1"], "train.window"),
])
def test_train_rejects_hyperparameters_that_cannot_train(flags, key, tmp_path,
                                                        capsys, caplog):
    out = tmp_path / "t.ckpt"
    code, stdout, _ = run_cli(["train", "--toy", "10", "--out", str(out), *flags],
                              capsys)
    assert code == 2 and stdout == ""
    assert not out.exists()
    assert key in caplog.text


@pytest.mark.parametrize("record", [
    {"train.epochs": 0}, {"train.lr": -0.1}, {"train.dim": 0},
    {"train.window": -1}, {"train.epochs": 1.5}, {"train.lr": "0.1"},
    {"search.M": 0},  # before, only search rejected it: a key other commands read
])
def test_train_rejects_such_config_keys_too(record, tmp_path, capsys, caplog):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(record))
    out = tmp_path / "t.ckpt"
    code, stdout, _ = run_cli(["train", "--toy", "10", "--out", str(out),
                               "--config", str(cfg)], capsys)
    assert code == 2 and stdout == ""
    assert not out.exists()
    assert next(iter(record)) in caplog.text


def _argv(command, checkpoint, tmp_path):
    """A short run of ``command`` that exits 0 with default settings."""
    return {"train": ["train", "--toy", "10", "--epochs", "1", "--dim", "8", "--window", "4",
                      "--out", str(tmp_path / "t.ckpt")],
            "sample": ["sample", "--checkpoint", checkpoint, "--n", "3", "--length", "48"],
            "search": ["search", "--target", "parp1", "--checkpoint", checkpoint,
                       "--budget", "5", "--m", "8", "--length", "32"]}[command]


@pytest.mark.parametrize("command,record", [
    ("search", {"search.C": "x"}), ("search", {"search.M": "8"}),
    ("search", {"search.M": True}), ("search", {"sample.K": 8.0}),
    ("search", {"gate.R_pen": None}), ("sample", {"seed": 1.5}),
    ("sample", {"sample.mode": "greedy"}), ("sample", {"sample.temperature": "1"}),
    ("train", {"train.K": [8]}),
    ("train", {"search.M": 8.0}),  # a key only search reads is checked too
])
def test_config_value_of_the_wrong_type_exits_2_naming_the_key(
        command, record, checkpoint, tmp_path, capsys, caplog):
    # Before, a string, bool or float reached the code as it was: "search.M":
    # "8" raised a TypeError traceback, "search.M": true ran with m = True and
    # "seed": 1.5 printed seed 1.5 on every line while drawing with seed 1.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(record))
    code, stdout, err = run_cli(_argv(command, checkpoint, tmp_path) + ["--config", str(cfg)],
                                capsys)
    assert code == 2 and stdout == ""
    assert "Traceback" not in err + caplog.text
    (key, value), = record.items()
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    assert errors[0].startswith(f"{cfg}: {key} must be ")
    assert errors[0].endswith(f"got {value!r}")


def test_manifest_holds_the_settings_the_command_read(checkpoint, tmp_path, capsys):
    # Keys for other commands are checked, then ignored: neither the run nor
    # its manifest sees them.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train.epochs": 3, "sample.mode": "confidence",
                               "search.D_max": 50, "seed": 5}))
    read = {"train": {k for k in DEFAULTS if k.startswith("train.")} | {"seed"},
            "sample": {k for k in DEFAULTS if k.startswith("sample.")} | {"seed"},
            "search": {k for k in DEFAULTS if k.startswith(("search.", "gate.", "sample."))
                       and k != "sample.mode"} | {"seed"}}
    for command, keys in read.items():
        manifest = tmp_path / f"{command}.json"
        argv = _argv(command, checkpoint, tmp_path) + ["--config", str(cfg),
                                                       "--manifest", str(manifest)]
        assert run_cli(argv, capsys)[0] == 0, command
        config = strict_json(manifest.read_text())["config"]
        assert set(config) == keys, command
        assert config["seed"] == 5
    assert "sample.mode" not in config and not any(k.startswith("train.") for k in config)
    assert config["search.D_max"] == 50
    config = strict_json((tmp_path / "sample.json").read_text())["config"]
    assert not any(k.startswith("search.") for k in config)


def test_cli_search_defaults_match_the_library():
    # The CLI reads its seed, search.*, gate.* and sample.* defaults and intervals
    # from SearchConfig, GateConfig and DecodeConfig; this pins each key to its field.
    libraries = {"search": SearchConfig(), "gate": GateConfig(), "sample": DecodeConfig()}
    checked = 0
    for key, (_, _, default, interval) in SETTINGS.items():
        group, name = key.split(".") if "." in key else ("sample", key)
        library = libraries.get(group)
        if library is not None:
            field = {"lambda": "lam", "nucleus": "nucleus_p", "K": "block", "L": "length",
                     "T": "budget"}.get(name, name.lower())
            assert getattr(library, field) == default, key
            intervals = type(library).INTERVALS
            if group == "sample":  # the fragment's block and length, the decoder's own
                intervals = FragmentConfig.INTERVALS | intervals
            assert interval == intervals.get(field), key
            checked += 1
    assert checked == 21
    assert SETTINGS["sample.mode"][1] == DecodeConfig.MODES


def test_unconstrained_search_with_a_gate_flag_is_usage_error(checkpoint, tmp_path, capsys):
    # Before, "--unconstrained --qed 0.9 --sa 2" ran with 0.0 and inf, dropping both flags.
    search = _argv("search", checkpoint, tmp_path) + ["--unconstrained"]
    for flags in (["--qed", "0.9", "--sa", "2"], ["--qed", "0.9"], ["--sa", "2"]):
        code, out, err = run_cli(search + flags, capsys)
        assert code == 1 and out == ""
        assert "--qed" in err and "--sa" in err
    # A config file's gate keys yield to the flag, as any key does.
    cfg, manifest = tmp_path / "cfg.json", tmp_path / "m.json"
    cfg.write_text(json.dumps({"gate.tau_qed": 0.9, "gate.tau_sa": 2.0}))
    assert run_cli(search + ["--config", str(cfg), "--manifest", str(manifest)],
                   capsys)[0] == 0
    config = strict_json(manifest.read_text())["config"]
    assert config["gate.tau_qed"] == 0.0 and config["gate.tau_sa"] is None


def test_train_writes_no_diverged_checkpoint(tmp_path, capsys, caplog):
    # lr 1e300 overflows the tables; the NELBO history turns NaN.
    out = tmp_path / "t.ckpt"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        code, stdout, _ = run_cli(["train", "--toy", "30", "--epochs", "1",
                                   "--dim", "8", "--window", "4", "--lr",
                                   "1e300", "--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert not out.exists()
    assert "no checkpoint written" in caplog.text


def test_non_finite_checkpoint_fails_sample_and_search(checkpoint, tmp_path,
                                                      capsys, caplog):
    record = json.loads(Path(checkpoint).read_text())
    record["embeddings"] = [math.nan] * len(record["embeddings"])
    broken = tmp_path / "nan.ckpt"
    broken.write_text(json.dumps(record))
    for argv in (["sample", "--checkpoint", str(broken), "--n", "3",
                  "--length", "48"],
                 ["search", "--target", "parp1", "--checkpoint", str(broken),
                  "--budget", "5", "--m", "8", "--length", "32"]):
        code, stdout, _ = run_cli(argv, capsys)
        assert code == 2 and stdout == "", argv[0]
    assert "checkpoint table embeddings holds non-finite values" in caplog.text


@pytest.mark.parametrize("text, message", [
    ('{"version": 1}', "missing key 'vocab'"),
    ("[1, 2]", "must hold one JSON object"),
    # A truncated checkpoint: before, the bare parser message, naming no file.
    ('{"version": 1, "vocab": ["[PA',
     "not a JSON file (Unterminated string starting at: line 1 column 26 (char 25))"),
])
def test_malformed_checkpoint_fails_sample_and_search_naming_it(tmp_path, capsys, caplog,
                                                                text, message):
    broken = tmp_path / "broken.ckpt"
    broken.write_text(text)
    for argv in (["sample", "--checkpoint", str(broken), "--n", "3", "--length", "48"],
                 ["search", "--target", "parp1", "--checkpoint", str(broken),
                  "--budget", "5", "--m", "8", "--length", "32"]):
        caplog.clear()
        code, stdout, _ = run_cli(argv, capsys)
        assert code == 2 and stdout == "", argv[0]
        assert f"{broken}: {message}" in caplog.text


@pytest.mark.parametrize("kind, text", [
    pytest.param("config", b"{\n", id="config"),
    pytest.param("config", b"\xff\xfe{}", id="config-utf16"),  # UTF-16's byte order mark
    pytest.param("config", b"[" * 10**5 + b"]" * 10**5, id="config-nested"),
    pytest.param("profile", b'{"name": "x",\n}', id="profile"),
])
def test_a_config_or_profile_that_is_not_json_names_itself(checkpoint, tmp_path, capsys,
                                                           caplog, kind, text):
    # Before, each exited 2 with the parser's bare message, such as
    # "Expecting property name enclosed in double quotes: line 2 column 1 (char 2)"
    # or "maximum recursion depth exceeded while decoding a JSON array ...", naming no file.
    broken = tmp_path / "broken.json"
    broken.write_bytes(text)
    samples = tmp_path / "s.smi"
    samples.write_text("CCO\n")
    argv = {"config": _argv("sample", checkpoint, tmp_path) + ["--config", str(broken)],
            "profile": ["eval", "--in", str(samples), "--target", str(broken)]}[kind]
    try:
        json.loads(broken.read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as err:
        want = f"{broken}: not a JSON file ({err})"
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 2 and stdout == ""
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [want]


@pytest.mark.parametrize("field, value, message", [
    ("dim", True, "dim must be a JSON integer, got True"),
    ("seed", None, "seed must be a JSON integer, got None"),
    ("gains", [0.5], "table 'gains' is not (9, 8) numbers"),
    ("bias", ["x"], "table 'bias' is not (15,) numbers"),
    ("vocab", ["[PAD]", "[BOS]", "[EOS]", "[MASK]", 7],
     "field 'vocab' holds a token that is not a string"),
    # Before, numpy's reshape read -1 as "infer": these loaded and sampled, exit 0.
    ("dim", -1, "dim must lie in [1, 2**63), got -1"),
    ("window", -1, "window must lie in [0, 2**63), got -1"),
    ("dim", 0, "dim must lie in [1, 2**63), got 0"),
])
def test_checkpoint_field_of_the_wrong_type_or_shape_names_it(checkpoint, tmp_path, capsys,
                                                             caplog, field, value, message):
    record = json.loads(Path(checkpoint).read_text())
    record[field] = value
    broken = tmp_path / "field.ckpt"
    broken.write_text(json.dumps(record))
    code, stdout, _ = run_cli(["sample", "--checkpoint", str(broken), "--n", "3"], capsys)
    assert code == 2 and stdout == ""
    assert f"{broken}: {message}" in caplog.text


def test_malformed_profile_fails_eval_and_search_naming_it(checkpoint, tmp_path, capsys,
                                                          caplog):
    samples = tmp_path / "s.smi"
    samples.write_text("CCO\n")
    parp1 = json.loads((PROFILE_DIR / "parp1.json").read_text())
    # Before, a NaN or infinite threshold_ds ran eval to exit 0 with hit_ratio 0.0,
    # and 10**400 as threshold_ds or size_optimum ended in an OverflowError traceback.
    big = f"{10**400}"
    for record, message in (({"name": "x"}, "missing key 'seed_smiles'"),
                            ({"name": "x", "threshold_ds": -10.0, "seed_smiles": "C1CC",
                              "size_optimum": 26},
                             "seed_smiles does not parse: ring 1 never closed"),
                            ({**parp1, "threshold_ds": math.nan},
                             "threshold_ds must lie in (-inf, inf), got nan"),
                            ({**parp1, "threshold_ds": math.inf},
                             "threshold_ds must lie in (-inf, inf), got inf"),
                            ({**parp1, "threshold_ds": -math.inf},
                             "threshold_ds must lie in (-inf, inf), got -inf"),
                            ({**parp1, "threshold_ds": 10**400},
                             f"threshold_ds must lie in (-inf, inf), got {big}"),
                            ({**parp1, "size_optimum": 10**400},
                             f"size_optimum must lie in [0, 2**20], got {big}")):
        profile = tmp_path / "bad.json"
        profile.write_text(json.dumps(record))
        for argv in (["eval", "--in", str(samples), "--target", str(profile)],
                     ["search", "--target", str(profile), "--checkpoint", checkpoint,
                      "--budget", "2", "--m", "8", "--length", "32"]):
            caplog.clear()
            code, stdout, err = run_cli(argv, capsys)
            assert code == 2 and stdout == "", argv[0]
            assert "Traceback" not in err + caplog.text
            assert f"{profile}: {message}" in caplog.text


@pytest.mark.parametrize("error, logged", [
    (MemoryError("Unable to allocate 32.0 TiB for an array"),
     "Unable to allocate 32.0 TiB for an array"),
    (MemoryError(), "MemoryError"),  # no message: the class names the failure
])
def test_an_allocation_that_fails_exits_2(checkpoint, capsys, caplog, monkeypatch,
                                          error, logged):
    # numpy raises a MemoryError subclass when it cannot allocate, as for
    # search --m 1099511627776; raised here so that nothing is allocated.
    def no_memory(*_args, **_kwargs):
        raise error
    monkeypatch.setattr(cli, "run_search", no_memory)
    code, stdout, _ = run_cli(["search", "--target", "parp1", "--checkpoint", checkpoint,
                               "--budget", "2", "--m", "8", "--length", "32"], capsys)
    assert code == 2 and stdout == ""
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [logged]


def test_validate_reports_per_line(tmp_path, capsys):
    infile = tmp_path / "in.smi"
    infile.write_text("CCO\n\nCC(\nc1ccccc1\n")
    code, out, _ = run_cli(["validate", "--in", str(infile)], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    # One verdict per input line; the blank one is an empty molecule.
    assert [r["valid"] for r in rows] == [True, False, False, True]
    assert (rows[1]["smiles"], rows[1]["error"]) == ("", "EmptyMolecule")
    assert rows[2]["error"] == "UnbalancedBranch"
    assert isinstance(rows[2]["position"], int)
    assert rows[0]["error"] is None


def test_curate_writes_survivors_and_report(tmp_path, capsys):
    infile = tmp_path / "in.smi"
    infile.write_text("CCCCCCCCCCCCCCCC\nCC(=O)Nc1ccc(O)cc1\nCC(=O)Nc1ccc(O)cc1\n")
    out_path, report_path = tmp_path / "keep.smi", tmp_path / "report.json"
    code, _, _ = run_cli(["curate", "--in", str(infile), "--out", str(out_path),
                          "--report", str(report_path)], capsys)
    assert code == 0
    assert out_path.read_text().splitlines() == ["CC(=O)Nc1ccc(O)cc1"]
    report = json.loads(report_path.read_text())
    assert report["input"] == 3 and report["accepted"] == 1
    assert report["rejections"]["physchem"] == 1
    assert report["rejections"]["diversity"] == 1


@pytest.mark.parametrize("command", ["validate", "curate", "eval"])
@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_validate_and_curate_fail_on_input_with_no_molecule(tmp_path, capsys, caplog,
                                                            command, text):
    # Before, validate and curate exited 0, and curate wrote an empty --out
    # and an input-0 report; eval exited 2 with a bare "no samples".
    infile = tmp_path / "in.smi"
    infile.write_text(text)
    out_path, report_path = tmp_path / "keep.smi", tmp_path / "report.json"
    argv = [command, "--in", str(infile)]
    if command == "curate":
        argv += ["--out", str(out_path), "--report", str(report_path)]
    elif command == "eval":
        argv += ["--target", "parp1"]
    elif text:  # validate gives each blank line its verdict
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and len(out.splitlines()) == 2
        return
    code, out, _ = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert not out_path.exists() and not report_path.exists()
    what = {"validate": "lines to validate", "curate": "molecules to curate",
            "eval": "samples to evaluate"}[command]
    assert f"{infile}: no {what}" in caplog.text


@pytest.mark.parametrize("command", ["validate", "curate", "train", "eval"])
def test_an_input_byte_that_is_not_utf8_names_its_file_and_line(tmp_path, capsys, caplog,
                                                                command):
    # Before, each exited 2 with "'utf-8' codec can't decode byte 0xe9 in
    # position 6: invalid continuation byte", naming neither file nor line,
    # and validate had already written line 1's verdict.  No command writes
    # to stdout before its last line is read.
    infile = tmp_path / "in.smi"
    infile.write_bytes(b"CCO\nCC\xe9O\nCCN\n")  # a Latin-1 e-acute on line 2
    out_path = tmp_path / "out"
    argv = [command, "--in", str(infile)] + {
        "validate": [], "curate": ["--out", str(out_path)], "eval": ["--target", "parp1"],
        "train": ["--epochs", "1", "--dim", "8", "--window", "4", "--out", str(out_path)],
    }[command]
    code, out, _ = run_cli(argv, capsys)
    assert code == 2 and out == "" and not out_path.exists()
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        f"{infile}:2: not UTF-8 (byte 0xe9 at column 3)"]


def test_curate_that_rejects_every_line_exits_0(tmp_path, capsys):
    infile = tmp_path / "in.smi"
    infile.write_text("CCCCCCCCCCCCCCCC\nC1CC\n")
    out_path, report_path = tmp_path / "keep.smi", tmp_path / "report.json"
    code, _, _ = run_cli(["curate", "--in", str(infile), "--out", str(out_path),
                          "--report", str(report_path)], capsys)
    assert code == 0 and out_path.read_text() == ""
    report = json.loads(report_path.read_text())
    assert (report["input"], report["accepted"], report["parse_failures"]) == (2, 0, 1)
    assert report["rules"] == {"physchem.qed": 1}


def test_train_reports_history(tmp_path, capsys):
    code, out, _ = run_cli(["train", "--toy", "30", "--epochs", "2", "--dim",
                            "8", "--window", "4", "--out",
                            str(tmp_path / "t.npz")], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["examples"] <= 30 and record["vocab_size"] > 4
    assert len(record["nelbo_history"]) == 2
    assert all(x > 0 for x in record["nelbo_history"])


def test_train_from_smiles_file(tmp_path, capsys):
    infile = tmp_path / "in.smi"
    infile.write_text("".join(s + "\n" for s in (
        "CCO", "CCN", "c1ccccc1", "CC(=O)O", "CCCC", "C1CCCC1")))
    code, out, _ = run_cli(["train", "--in", str(infile), "--epochs", "1",
                            "--dim", "8", "--window", "4", "--out",
                            str(tmp_path / "t.npz")], capsys)
    assert code == 0
    assert json.loads(out)["examples"] == 6


@pytest.mark.parametrize("toy", ["5", "0"])
def test_train_with_both_toy_and_in_is_a_usage_error(tmp_path, capsys, toy):
    # Before, "--toy 5" with a 20-line file trained 20 examples and exited 0,
    # and "--toy 0" exited 2 over a flag that was never read.
    infile = tmp_path / "in.smi"
    infile.write_text("".join(s + "\n" for s in toy_candidates(3)[:20]))
    out = tmp_path / "t.npz"
    code, stdout, err = run_cli(["train", "--in", str(infile), "--toy", toy,
                                 "--out", str(out)], capsys)
    assert code == 1 and stdout == "" and not out.exists()
    assert err.endswith("error: argument --toy: not allowed with argument --in\n")


def test_train_names_the_file_and_line_that_does_not_tokenize(tmp_path, capsys, caplog):
    # Before, the message named neither: "unknown character '$'".
    infile = tmp_path / "in.smi"
    infile.write_text("CCO\n\nCCN\nC$C\nCCCC\n")
    out = tmp_path / "t.npz"
    code, stdout, _ = run_cli(["train", "--in", str(infile), "--out", str(out)], capsys)
    assert code == 2 and stdout == "" and not out.exists()
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"{infile}:4: unknown character '$'"]


def test_sample_stream_shape(checkpoint, capsys):
    code, out, _ = run_cli(["sample", "--checkpoint", checkpoint, "--n", "4",
                            "--length", "48", "--seed", "7"], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 4
    for row in rows:
        assert set(row) == {"smiles", "valid", "completed", "block_count", "seed"}
        assert row["seed"] == 7


def test_sample_prefix_is_respected(checkpoint, capsys):
    code, out, _ = run_cli(["sample", "--checkpoint", checkpoint, "--n", "2",
                            "--length", "48", "--prefix", "c1ccc"], capsys)
    assert code == 0
    for line in out.splitlines():
        assert json.loads(line)["smiles"].startswith("c1ccc")


def test_eval_reports_metrics(checkpoint, tmp_path, capsys):
    infile = tmp_path / "set.smi"
    infile.write_text("CC(=O)Nc1ccc(O)cc1\nCCN(CC)C(=O)c1ccncc1\nCCO\n")
    code, out, _ = run_cli(["eval", "--in", str(infile), "--target", "parp1"],
                           capsys)
    assert code == 0
    report = json.loads(out)
    assert report["validity"] == 1.0
    assert report["uniqueness"] == 1.0
    assert 0.0 <= report["diversity"] <= 1.0


def test_eval_accepts_jsonl_input(checkpoint, tmp_path, capsys):
    code, out, _ = run_cli(["sample", "--checkpoint", checkpoint, "--n", "3",
                            "--length", "48", "--mode", "sample", "--seed",
                            "11"], capsys)
    assert code == 0
    jsonl = tmp_path / "samples.jsonl"
    jsonl.write_text(out)
    code, out, _ = run_cli(["eval", "--in", str(jsonl), "--target", "parp1"],
                           capsys)
    assert code == 0
    assert set(json.loads(out)) >= {"validity", "uniqueness", "diversity"}


def test_eval_names_the_line_without_smiles(checkpoint, tmp_path, capsys, caplog):
    # search stdout ends with a summary record that has no "smiles".
    code, out, _ = run_cli(["search", "--target", "parp1", "--checkpoint",
                            checkpoint, "--budget", "5", "--m", "8", "--length",
                            "32"], capsys)
    assert code == 0
    summary = out.splitlines()[-1]
    assert "smiles" not in json.loads(summary)
    records = tmp_path / "records.jsonl"
    records.write_text('{"smiles": "CCO"}\n\n{"smiles": "CCN"}\n')  # a blank line counts
    assert run_cli(["eval", "--in", str(records), "--target", "parp1"], capsys)[0] == 0

    for tail, problem in ((summary, 'JSON line has no string "smiles" field'),
                          ('{"smiles": 3}', 'JSON line has no string "smiles" field'),
                          ('{"smiles": "CC', "not a JSON line")):
        path = tmp_path / "with_tail.jsonl"
        path.write_text(records.read_text() + tail + "\n")
        code, out, _ = run_cli(["eval", "--in", str(path), "--target", "parp1"], capsys)
        assert code == 2 and out == ""
        assert f"{path}:4: {problem}" in caplog.text


def test_config_file_and_flag_precedence(checkpoint, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sample.temperature": 0.5, "seed": 9}))
    manifest = tmp_path / "m.json"
    base = ["sample", "--checkpoint", checkpoint, "--n", "1", "--length",
            "48", "--config", str(cfg), "--manifest", str(manifest)]
    assert run_cli(base, capsys)[0] == 0
    resolved = strict_json(manifest.read_text())["config"]
    assert resolved["sample.temperature"] == 0.5  # file overrides default
    assert resolved["seed"] == 9
    assert resolved["sample.K"] == DEFAULTS["sample.K"]

    assert run_cli(base + ["--temp", "1.3"], capsys)[0] == 0
    resolved = strict_json(manifest.read_text())["config"]
    assert resolved["sample.temperature"] == 1.3  # flag overrides file
    assert resolved["seed"] == 9


def test_module_entry_point_passes_exit_code(blockmol_cli, tmp_path):
    proc = blockmol_cli([], returncode=1)
    assert "usage" in proc.stderr.decode().lower()
    blockmol_cli(["sample", "--checkpoint", str(tmp_path / "missing.npz"),
                  "--n", "1"], returncode=2)


def test_sample_rerun_is_byte_identical(blockmol_cli, checkpoint):
    argv = ["sample", "--checkpoint", checkpoint, "--n", "6",
            "--length", "48", "--mode", "sample", "--seed", "5"]
    first = blockmol_cli(argv).stdout
    second = blockmol_cli(argv, hashseed=1).stdout
    assert first == second and first
    other = blockmol_cli(argv[:-1] + ["6"]).stdout
    assert other != first


def test_confidence_mode_warns_that_seed_changes_nothing(blockmol_cli, checkpoint):
    # Confidence mode commits each row's argmax; the seed keys only the
    # diffusion time, which the predictor ignores.  --temp and --nucleus can
    # change the output, so they draw no warning.
    base = ["sample", "--checkpoint", checkpoint, "--n", "3", "--length", "48"]
    seeded = blockmol_cli(base + ["--seed", "7"])
    unseeded = blockmol_cli(base + ["--temp", "0.5", "--nucleus", "0.5"])
    drawn = blockmol_cli(base + ["--seed", "7", "--mode", "sample"])
    assert b"--seed changes nothing in confidence mode" in seeded.stderr
    assert b"--seed" not in unseeded.stderr and b"--seed" not in drawn.stderr
    rows = [json.loads(line) for line in seeded.stdout.splitlines()]
    assert len(rows) == 3 and {row["seed"] for row in rows} == {7}


def test_search_rerun_is_byte_identical(blockmol_cli, grid_checkpoint, tmp_path):
    manifest = tmp_path / "m.json"
    rollouts = [tmp_path / "r0.jsonl", tmp_path / "r1.jsonl"]
    argv = ["search", "--target", "parp1", "--checkpoint", grid_checkpoint,
            "--budget", "15", "--n-sim", "8", "--nucleus", "0.95", "--temp", "1.0",
            "--length", "48", "--steps", "130", "--seed", "3",
            "--manifest", str(manifest)]
    first = blockmol_cli(argv + ["--rollouts", str(rollouts[0])]).stdout
    second = blockmol_cli(argv + ["--rollouts", str(rollouts[1])], hashseed=1).stdout
    assert first == second
    assert rollouts[0].read_bytes() == rollouts[1].read_bytes()
    # stream ends with a one-line run summary
    tail = json.loads(first.decode().splitlines()[-1])
    assert {"best_smiles", "best_reward", "unique_count",
            "gate_pass_count"} == set(tail)
    recorded = strict_json(manifest.read_text())
    assert recorded["command"] == "search"
    assert recorded["iterations"] == 15 and recorded["aborted"] is False
    lines = rollouts[0].read_text().splitlines()
    assert lines
    for line in lines:
        assert "smiles" in json.loads(line)


@pytest.mark.parametrize("prefix,token,offset", [
    ("[BOS]C", "[BOS]", 0), ("C[EOS]", "[EOS]", 1), ("CC[PAD]", "[PAD]", 2),
    ("C[MASK]C", "[MASK]", 1)])
def test_sample_prefix_rejects_control_tokens(checkpoint, capsys, caplog, prefix, token,
                                              offset):
    code, out, _ = run_cli(["sample", "--checkpoint", checkpoint, "--n", "2",
                            "--length", "48", "--prefix", prefix], capsys)
    assert code == 2 and out == ""
    assert f"prefix token {token} at offset {offset} is a control token" in caplog.text


# The config key, or flag, that names each library field in the CLI's message.
FIELD_KEYS = {"block": "sample.K", "temperature": "sample.temperature", "n_max": "search.N_max",
              "c": "search.C", "beta": "search.beta", "tau_qed": "gate.tau_qed",
              "tau_sa": "gate.tau_sa", "c_init": "search.C_init", "n": "--n",
              "c_min": "search.C_min", "toy corpus size": "--toy"}


@pytest.mark.parametrize("command,flags,field", [
    ("sample", ["--k-sample", "0"], "block"),
    ("search", ["--k-sample", "0"], "block"),
    ("sample", ["--temp", "nan"], "temperature"),
    ("search", ["--budget", "-1"], "n_max"),
    ("search", ["--c", "nan"], "c"),
    ("search", ["--beta", "nan"], "beta"),
    ("search", ["--qed", "nan"], "tau_qed"),
    ("search", ["--sa", "nan"], "tau_sa"),
    ("train", ["--toy", "-1"], "toy corpus size"),
    ("search", ["--c-init", "0"], "c_init"),
    ("sample", ["--n", "-3"], "n"),
    ("search", ["--c-init", "10", "--c-min", "0", "--c-max", "0"], "c_min"),
    ("search", ["--c-min", "-3", "--c-max", "-1"], "c_min"),
    ("sample", ["--mode", "sample", "--temp", "1e-320"], "temperature"),
    ("search", ["--temp", "1e-320"], "temperature"),
])
def test_invalid_settings_exit_2_naming_the_field(checkpoint, tmp_path, capsys, caplog,
                                                  command, flags, field):
    # Before, these raised ZeroDivisionError or AttributeError, or ran anyway:
    # "--temp nan" wrote empty molecules, "--budget -1" reported one iteration,
    # "train --toy -1" trained on 600 molecules, "--c-init 0" wrote only a
    # summary line and a manifest that claimed one iteration, and "--c-min 0"
    # let a node's capacity fall to 0, so 300 iterations made 12 rollouts.
    # "--temp 1e-320" overflowed logits / T, and softmax's NaN rows printed
    # lines of 47 's' tokens with exit 0.
    out = tmp_path / "t.ckpt"
    argv = {"sample": ["sample", "--checkpoint", checkpoint, "--n", "3", "--length", "48"],
            "search": ["search", "--target", "parp1", "--checkpoint", checkpoint,
                       "--budget", "50", "--m", "8", "--length", "32"],
            "train": ["train", "--out", str(out)]}[command]
    code, stdout, _ = run_cli(argv + flags, capsys)  # a later flag wins
    assert code == 2 and stdout == ""
    assert not out.exists()
    name = FIELD_KEYS.get(field, field)
    assert any(r.getMessage().startswith(f"{name} must") for r in caplog.records), caplog.text


@pytest.mark.parametrize("n", ["0", "-1"])
def test_sample_of_no_molecule_exits_2_naming_the_flag(checkpoint, tmp_path, capsys, caplog,
                                                       n):
    # Before, "--n 0" exited 0 with empty output, and the message of "--n -1"
    # did not name the flag.
    manifest = tmp_path / "m.json"
    code, stdout, _ = run_cli(["sample", "--checkpoint", checkpoint, "--n", n, "--length",
                               "48", "--manifest", str(manifest)], capsys)
    assert code == 2 and stdout == ""
    assert not manifest.exists()
    assert f"--n must lie in [1, 2**20], got {n}" in caplog.text


@pytest.mark.parametrize("toy", ["0", "602", "100000"])
def test_a_toy_size_beyond_the_grid_exits_2_naming_the_flag(tmp_path, capsys, caplog, toy):
    # Before, "--toy 100000" curated the grid, then exited 2 with "toy grid
    # yields only 601 curated molecules", naming neither the flag nor its bound.
    out = tmp_path / "t.ckpt"
    code, stdout, _ = run_cli(["train", "--toy", toy, "--out", str(out)], capsys)
    assert code == 2 and stdout == "" and not out.exists()
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"--toy must lie in [1, 601], got {toy}"]


def test_the_toy_interval_ends_at_the_curated_grid():
    assert data.TOY_INTERVAL == f"[1, {len(data._curated(3))}]"


@pytest.mark.parametrize("command,flags,key", [
    ("search", ["--c", "inf"], "search.C"),
    ("search", ["--beta", "inf"], "search.beta"),
    ("sample", ["--temp", "inf"], "sample.temperature"),
    ("search", ["--qed", "inf"], "gate.tau_qed"),
    ("search", ["--sa=-inf"], "gate.tau_sa"),
    ("search", [], "search.C"),  # from the config file below
    ("train", [], "train.lr"),  # a config file int too large for a float
    ("search", ["--m", str(10**30)], "search.M"),  # ints beyond the int64 range
    ("search", [], "search.M"),
    ("search", ["--n-sim", str(10**30)], "search.n_sim"),
])
def test_infinite_settings_exit_2_before_the_run(checkpoint, tmp_path, capsys, caplog,
                                                 command, flags, key):
    # Before, these ran the whole command; with --manifest it then exited 2
    # on a manifest that strict JSON cannot hold, and without it exited 0.
    # The int too large for a float, and an int setting beyond the int64
    # range, ended in an OverflowError traceback with exit 1.
    cfg, manifest, out = tmp_path / "cfg.json", tmp_path / "m.json", tmp_path / "t.ckpt"
    cfg.write_text("{}" if flags else {"search.C": '{"search.C": Infinity}',
                                       "train.lr": '{"train.lr": 1%s}' % ("0" * 400),
                                       "search.M": '{"search.M": %d}' % 10**30}[key])
    # No --m, which would win over the config file's search.M.
    argv = {"sample": ["sample", "--checkpoint", checkpoint, "--n", "3", "--length", "48"],
            "search": ["search", "--target", "parp1", "--checkpoint", checkpoint,
                       "--budget", "5", "--length", "32"],
            "train": ["train", "--out", str(out)]}[command]
    code, stdout, _ = run_cli(argv + flags + ["--config", str(cfg), "--manifest",
                                              str(manifest)], capsys)
    assert code == 2 and stdout == ""
    assert not manifest.exists() and not out.exists()
    assert f"{key} must lie in {SETTINGS[key][3]}, got " in caplog.text


def _ends(interval):
    """(lo, hi) of an interval as SETTINGS writes it: "inf", an integer or b**k."""
    ends = []
    for text in interval[1:-1].split(", "):
        base, _, power = text.partition("**")
        ends.append(float(text) if "inf" in text else int(base) ** int(power or 1))
    return ends


def _around(interval, kind):
    """(the value at or just inside each end of the interval, the values just
    outside each end), as ``kind``; NaN lies outside every float interval."""
    inside, outside = [], [math.nan] if kind is float else []
    for end, closed, out in zip(_ends(interval), (interval[0] == "[", interval[-1] == "]"),
                                (-1, 1)):
        if not closed:
            outside.append(kind(end))
            inside.append(end - out if kind is int else
                          math.nextafter(float(end), -out * math.inf))
        elif kind is int:
            inside.append(end)
            outside.append(end + out)
        else:
            inside.append(float(end))
            if not math.isinf(end):  # nothing lies beyond a closed infinite end
                outside.append(math.nextafter(float(end), out * math.inf))
    return inside, outside


INTERVAL_KEYS = [key for key in SETTINGS if SETTINGS[key][3]]


@pytest.mark.parametrize("key", INTERVAL_KEYS + ["--n"])
def test_a_value_at_or_just_inside_each_end_is_accepted(key, checkpoint, capsys, caplog,
                                                        monkeypatch):
    if key == "--n":  # a flag, checked once resolve is done, before the checkpoint loads
        def loaded(path):
            raise RuntimeError("checks passed")

        monkeypatch.setattr(cli.diffusion, "load_checkpoint", loaded)
        for n in _around(fragment.ROWS_INTERVAL, int)[0]:
            caplog.clear()
            assert run_cli(["sample", "--checkpoint", checkpoint, "--n", str(n)], capsys)[0] == 2
            assert "checks passed" in caplog.text
        return
    command = next(c for c, keys in cli.COMMAND_KEYS.items() if key in keys)
    inside, _ = _around(SETTINGS[key][3], SETTINGS[key][1])
    assert len(inside) == 2
    for value in inside:
        args = argparse.Namespace(command=command, config=None, **{key: value})
        assert cli.resolve(args)[key] == value


def test_every_default_lies_in_its_interval():
    for key in INTERVAL_KEYS:
        fragment.check_interval(key, DEFAULTS[key], SETTINGS[key][3])
    n = cli.build_parser().parse_args(["sample", "--checkpoint", "c"]).n
    fragment.check_interval("--n", n, fragment.ROWS_INTERVAL)


def _outside_cases():
    for key in INTERVAL_KEYS:
        flag, kind, _, interval = SETTINGS[key]
        for value in _around(interval, kind)[1]:
            yield key, value
    for value in _around(fragment.ROWS_INTERVAL, int)[1]:
        yield "--n", value
    # numpy's bare "array is too big" before, and "Unable to allocate 384. TiB"
    yield from (("search.M", 2**62), ("sample.L", 2**62), ("--n", 2**62),
                ("search.M", 1099511627776), ("train.window", 2**40),
                ("sample.temperature", 0.0))  # the end of the interval before its floor


@pytest.mark.parametrize("key,value", list(_outside_cases()))
def test_a_value_outside_its_interval_exits_2_naming_the_key(
        key, value, checkpoint, tmp_path, capsys, caplog):
    flag, kind, _, interval = SETTINGS.get(key, ("--n", int, None, fragment.ROWS_INTERVAL))
    command = "sample" if key == "--n" else next(
        c for c, keys in cli.COMMAND_KEYS.items() if key in keys)
    manifest, cfg = tmp_path / "m.json", tmp_path / "cfg.json"
    cfg.write_text(json.dumps({} if flag else {key: value}))
    argv = _argv(command, checkpoint, tmp_path)
    code, stdout, _ = run_cli(argv + ([f"{flag}={value!r}"] if flag else []) + [
        "--config", str(cfg), "--manifest", str(manifest)], capsys)
    assert code == 2 and stdout == ""
    assert not manifest.exists() and not (tmp_path / "t.ckpt").exists()
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    where = "" if flag else f"{cfg}: "  # a config file's value names the file too
    assert errors == [f"{where}{key} must lie in {interval}, got {value!r}"]


def test_an_infinite_sa_bound_runs_and_is_recorded_as_null(checkpoint, tmp_path, capsys):
    manifest = tmp_path / "m.json"
    code, _, _ = run_cli(["search", "--target", "parp1", "--checkpoint", checkpoint,
                          "--budget", "5", "--m", "8", "--length", "32", "--sa", "inf",
                          "--manifest", str(manifest)], capsys)
    assert code == 0
    assert strict_json(manifest.read_text())["config"]["gate.tau_sa"] is None


def test_curate_has_no_config_flag(tmp_path, capsys):
    # Curation has no config keys; a --config that was read by nothing let a
    # missing file and an unknown key both exit 0.
    infile = tmp_path / "in.smi"
    infile.write_text("CC(=O)Nc1ccc(O)cc1\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"search.nope": 1}))
    for path in (cfg, tmp_path / "missing.json"):
        code, out, err = run_cli(["curate", "--in", str(infile), "--config",
                                  str(path)], capsys)
        assert code == 1 and out == ""
        assert "--config" in err


def test_sample_with_exhausted_budget_fails(checkpoint, capsys):
    # Block 0 of a length-48, K=8 layout needs 7 predictor calls; 4 aborts.
    code, out, _ = run_cli(["sample", "--checkpoint", checkpoint, "--n", "5",
                            "--length", "48", "--steps", "4"], capsys)
    assert code == 2
    assert out == ""


def test_workers_flag_and_key_are_gone(tmp_path, capsys):
    # Nothing ever read --workers or the "workers" key, so a run asking for
    # two workers silently got one.
    infile = tmp_path / "in.smi"
    infile.write_text("CCO\n")
    for argv in (["--workers=2", "validate", "--in", str(infile)],
                 ["validate", "--in", str(infile), "--workers", "2"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert "unrecognized arguments: --workers" in err
    assert "workers" not in DEFAULTS
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2}))
    code, _, err = run_cli(["train", "--toy", "10", "--out", str(tmp_path / "x.npz"),
                            "--config", str(cfg)], capsys)
    assert code == 1
    assert "unknown config keys: workers" in err


@pytest.mark.parametrize("command,flag", [
    ("search", "--rollouts"), ("search", "--manifest"), ("sample", "--manifest"),
    ("train", "--out"), ("curate", "--out"), ("curate", "--report")])
def test_an_output_path_in_a_missing_directory_fails_before_any_work(
        checkpoint, tmp_path, capsys, caplog, monkeypatch, command, flag):
    # Before, search ran all its iterations and printed its results, and
    # only then failed to open --rollouts or --manifest.
    def work(*args, **kwargs):
        raise AssertionError("the command began its work")

    for name in ("run_search", "curate_stream", "Decoder", "pad_and_partition"):
        monkeypatch.setattr(cli, name, work)
    infile = tmp_path / "in.smi"
    infile.write_text("CCO\n")
    path = tmp_path / "missing" / "out"
    argv = {"search": ["search", "--target", "parp1", "--checkpoint", checkpoint,
                       "--budget", "50", "--m", "8", "--length", "32"],
            "sample": ["sample", "--checkpoint", checkpoint, "--n", "3", "--length", "48"],
            "train": ["train", "--toy", "10"],
            "curate": ["curate", "--in", str(infile)]}[command]
    code, out, _ = run_cli(argv + [flag, str(path)], capsys)
    assert code == 2 and out == ""
    assert f"[Errno 2] No such file or directory: '{path}'" in caplog.text
    assert not path.parent.exists()


@pytest.mark.parametrize("command,flag", [
    ("sample", "--manifest"), ("search", "--rollouts"), ("train", "--out"),
    ("curate", "--report")])
def test_a_dash_output_path_fails_before_any_work(checkpoint, tmp_path, capsys, caplog,
                                                  monkeypatch, command, flag):
    # Only curate --out writes to stdout; these wrote a file named "-".
    def work(*args, **kwargs):
        raise AssertionError("the command began its work")

    for name in ("run_search", "curate_stream", "Decoder", "pad_and_partition"):
        monkeypatch.setattr(cli, name, work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.smi").write_text("CCO\n")
    argv = {"search": ["search", "--target", "parp1", "--checkpoint", checkpoint],
            "sample": ["sample", "--checkpoint", checkpoint, "--n", "3"],
            "train": ["train", "--toy", "10"],
            "curate": ["curate", "--in", "in.smi"]}[command]
    code, out, _ = run_cli(argv + [flag, "-"], capsys)
    assert code == 2 and out == ""
    assert "'-' names no file: only curate --out writes to stdout" in caplog.text
    assert sorted(os.listdir(tmp_path)) == ["in.smi"]


def test_curate_out_dash_writes_to_stdout(tmp_path, capsys):
    infile = tmp_path / "in.smi"
    infile.write_text("CC(=O)Nc1ccc(O)cc1\n")
    code, out, _ = run_cli(["curate", "--in", str(infile), "--out", "-",
                            "--report", str(tmp_path / "r.json")], capsys)
    assert code == 0 and out == "CC(=O)Nc1ccc(O)cc1\n"


@pytest.mark.parametrize("prefix,error", [
    ("((((", "UnbalancedBranch at offset 0: branch with no preceding atom"),
    ("C)", "UnbalancedBranch at offset 1: ')' without matching '('"),
    ("C(", None),  # an open branch or ring may still close
    ("C1CC", None),
])
def test_sample_rejects_a_prefix_that_is_already_broken(checkpoint, capsys, caplog,
                                                        prefix, error):
    # Before, "((((" and "C)" printed n lines that could never be valid.
    code, out, _ = run_cli(["sample", "--checkpoint", checkpoint, "--n", "2",
                            "--length", "48", "--prefix", prefix], capsys)
    if error is None:
        assert code == 0 and len(out.splitlines()) == 2
    else:
        assert code == 2 and out == ""
        assert f"--prefix {prefix!r} cannot begin a valid molecule: {error}" in caplog.text


def force_processes(monkeypatch, count: int):
    """Chunk every sample and eval over ``count`` processes, whatever its size."""
    monkeypatch.setattr(parallel, "cpu_count", lambda: count)
    monkeypatch.setattr(cli, "MIN_CHUNK_ROWS", 1)
    monkeypatch.setattr(metrics, "MIN_CHUNK_MOLECULES", 1)


@pytest.mark.parametrize("prefix", [None, "c1cc"])
def test_sample_lines_do_not_depend_on_the_process_count(checkpoint, capsys, caplog,
                                                         monkeypatch, prefix):
    argv = ["sample", "--checkpoint", checkpoint, "--n", "7", "--length", "48",
            "--mode", "sample", "--seed", "11"] + (["--prefix", prefix] if prefix else [])
    code, want, _ = run_cli(argv, capsys)
    assert code == 0 and len(set(want.splitlines())) > 1
    caplog.set_level(logging.INFO, logger="blockmol")
    for count, sizes in ((1, "7"), (2, "3, 4"), (3, "2, 2, 3")):
        force_processes(monkeypatch, count)
        caplog.clear()
        code, out, _ = run_cli(["-v"] + argv, capsys)
        assert code == 0 and out == want
        assert f"sample: processes {count}, rows per chunk {sizes}" in caplog.messages


def test_sample_logs_its_predictor_rows_against_its_row_steps(checkpoint, capsys, caplog,
                                                              monkeypatch):
    argv = ["sample", "--checkpoint", checkpoint, "--n", "200", "--length", "48",
            "--mode", "sample", "--seed", "11"]
    code, want, _ = run_cli(argv, capsys)
    assert code == 0
    caplog.set_level(logging.INFO, logger="blockmol")
    counts = {}
    for count, group_rows in ((1, decode.GROUP_ROWS), (2, decode.GROUP_ROWS),
                              (3, decode.GROUP_ROWS), (2, 201)):
        force_processes(monkeypatch, count)
        monkeypatch.setattr(decode, "GROUP_ROWS", group_rows)
        caplog.clear()
        code, out, _ = run_cli(["-v"] + argv, capsys)
        assert code == 0 and out == want
        logged = re.search(r"^sample: ([\d,]+) predictor rows for ([\d,]+) row-steps\n"
                           r"sample: ([\d,]+) rows judged invalid from their ids, ",
                           "\n".join(caplog.messages), re.MULTILINE)
        counts[count, group_rows] = tuple(int(n.replace(",", "")) for n in logged.groups())
    (one, steps, judged), (two, *_), (three, *_), (each, *_) = counts.values()
    # Chunks share no predictor rows, and every row-step and judged row is its own row's.
    assert {(s, j) for _, s, j in counts.values()} == {(steps, judged)}
    assert steps >= 1000 and judged > 0
    assert one < two <= three < each == steps


def test_a_count_that_never_happened_reads_0(checkpoint, tmp_path, capsys, caplog):
    # Criterion 12's search reselects no terminal leaf, yet its manifest and
    # its -v line name that count, as 0.
    caplog.set_level(logging.INFO, logger="blockmol")
    manifest = tmp_path / "search.json"
    code, out, _ = run_cli(["-v", "search", "--target", "parp1", "--checkpoint", checkpoint,
                            "--budget", "25", "--m", "8", "--length", "32", "--steps", "64",
                            "--seed", "3", "--manifest", str(manifest)], capsys)
    assert code == 0 and out
    assert json.loads(manifest.read_text())["terminal_reselections"] == 0
    assert any(re.fullmatch(r"search: 25 iterations, \d+ rollouts skipped from a dead "
                            r"prefix, 0 terminal reselections", m) for m in caplog.messages)


def test_sample_below_the_minimum_chunk_forks_nothing(checkpoint, capsys, monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    n = 2 * cli.MIN_CHUNK_ROWS - 1
    code, out, _ = run_cli(["sample", "--checkpoint", checkpoint, "--n", str(n),
                            "--length", "48"], capsys)
    assert code == 0 and len(out.splitlines()) == n


@pytest.mark.parametrize("error,logged", [
    (ValueError("no such lane"), ["chunk 1 failed: ValueError: no such lane"]),
    (BudgetExhausted(8, 7, 1), [  # only the children's chunks abort
        "decode aborted: block 1 needs 8 predictor calls but the budget is 7",
        "sample: decoding was aborted, so no molecule was written; raise --steps "
        "(sample.T)"]),
])
def test_a_chunk_failing_in_a_child_exits_2_and_leaves_no_child(
        checkpoint, capsys, caplog, monkeypatch, error, logged):
    decode = Decoder.decode

    def failing(self, n, prefix=None, first_lane=0):
        if first_lane:
            raise error
        return decode(self, n, prefix, first_lane)

    force_processes(monkeypatch, 3)
    monkeypatch.setattr(Decoder, "decode", failing)
    code, out, _ = run_cli(["sample", "--checkpoint", checkpoint, "--n", "6",
                            "--length", "48"], capsys)
    assert code == 2 and out == ""
    assert caplog.messages == logged
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Distinct grid candidates, lines that do not parse, and repeats.
EVAL_LINES = list(toy_candidates.__wrapped__(3)[::4001]) + ["C1CC", "((", "CCO"]


@pytest.mark.parametrize("count,sizes", [(1, "11"), (2, "5, 6"), (3, "3, 4, 4")])
def test_eval_report_does_not_depend_on_the_process_count(tmp_path, capsys, caplog,
                                                          monkeypatch, count, sizes):
    infile = tmp_path / "in.smi"
    infile.write_text("\n".join(EVAL_LINES + EVAL_LINES[::3]) + "\n")
    argv = ["eval", "--in", str(infile), "--target", "parp1"]
    code, want, _ = run_cli(argv, capsys)
    assert code == 0 and 0 < json.loads(want)["validity"] < 1
    force_processes(monkeypatch, count)
    caplog.set_level(logging.INFO, logger="blockmol")
    code, out, _ = run_cli(["-v"] + argv, capsys)
    assert code == 0 and out == want
    assert caplog.messages == [f"eval: processes {count}, molecules per chunk {sizes}"]


def test_eval_below_the_minimum_chunk_forks_nothing(tmp_path, capsys, monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    distinct = toy_candidates.__wrapped__(3)[: 2 * metrics.MIN_CHUNK_MOLECULES - 1]
    infile = tmp_path / "in.smi"
    infile.write_text("\n".join(distinct + distinct[:5]) + "\n")  # more lines than that
    code, out, _ = run_cli(["eval", "--in", str(infile), "--target", "parp1"], capsys)
    assert code == 0 and json.loads(out)["total"] == len(distinct) + 5


def test_an_eval_chunk_failing_in_a_child_exits_2_and_leaves_no_child(tmp_path, capsys,
                                                                      caplog, monkeypatch):
    score = SurrogateOracle.score

    def failing(oracle, smiles):
        if smiles == "CCO":
            raise ValueError("no such molecule")
        return score(oracle, smiles)

    force_processes(monkeypatch, 3)
    monkeypatch.setattr(SurrogateOracle, "score", failing)
    infile = tmp_path / "in.smi"
    infile.write_text("\n".join(EVAL_LINES) + "\n")
    code, out, _ = run_cli(["eval", "--in", str(infile), "--target", "parp1"], capsys)
    assert code == 2 and out == ""
    assert caplog.messages == ["chunk 2 failed: ValueError: no such molecule"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_budget_abort_in_every_chunk_is_logged_once(checkpoint):
    # Block 0 needs 7 predictor calls, so each of the three chunks aborts.
    script = ("import sys\n"
              "from blockmol import cli, parallel\n"
              "parallel.cpu_count = lambda: int(sys.argv[1])\n"
              "cli.MIN_CHUNK_ROWS = 1\n"
              "sys.exit(cli.main(sys.argv[2:]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH")) if p))
    stderr = []
    for count in ("1", "3"):
        proc = subprocess.run([sys.executable, "-c", script, count, "sample",
                               "--checkpoint", checkpoint, "--n", "6", "--length", "48",
                               "--steps", "3"], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        stderr.append(proc.stderr)
    assert stderr[0] == stderr[1]
    assert stderr[0].splitlines() == [
        "WARNING blockmol.decode: decode aborted: block 0 needs 7 predictor calls "
        "but the budget is 3",
        "ERROR blockmol: sample: decoding was aborted, so no molecule was written; "
        "raise --steps (sample.T)"]

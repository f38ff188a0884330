"""Command line interface for the whole pipeline.

Data goes to stdout, diagnostics to stderr, so streams can be piped and
compared byte for byte.  Exit codes: 0 success, 1 usage error, 2 runtime
error.  Each setting is declared once, in ``SETTINGS``; its flag's --help
names its config key and default.  A command resolves the keys it reads
from the defaults, then a JSON config file of flat namespaced keys (e.g.
"search.C"), then explicit flags.  An unknown key is a usage error and a
value of the wrong type exits 2 naming its key; keys that only other
commands read are checked, then ignored.  A --manifest records only the
settings the command read.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import chem, data, diffusion, metrics, parallel
from .chem import Vocab, tokenize, try_parse
from .curate import CurationConfig, curate_stream
from .decode import BudgetExhausted, DecodeConfig, Decoder, log_abort, write_jsonl
from .fragment import FragmentConfig, pad_and_partition
from .oracle import SurrogateOracle, list_profiles, load_profile
from .search import GateConfig, SearchConfig, run_search

log = logging.getLogger("blockmol")

# config key -> (flag, or None if only a config file sets it, type or choices, default);
# search.* and gate.* defaults are the library's, sample.* ones differ on purpose.
SETTINGS = {
    "seed": ("--seed", int, 42),
    "search.N_max": ("--budget", int, SearchConfig.n_max),
    "search.C": ("--c", float, SearchConfig.c),
    "search.lambda": ("--lam", float, SearchConfig.lam),
    "search.beta": ("--beta", float, SearchConfig.beta),
    "search.C_init": ("--c-init", int, SearchConfig.c_init),
    "search.C_base": ("--c-base", int, SearchConfig.c_base),
    "search.C_min": ("--c-min", int, SearchConfig.c_min),
    "search.C_max": ("--c-max", int, SearchConfig.c_max),
    "search.M": ("--m", int, SearchConfig.m),
    "search.n_sim": ("--n-sim", int, SearchConfig.n_sim),
    "search.D_max": ("--d-max", int, SearchConfig.d_max),
    "gate.tau_qed": ("--qed", float, GateConfig.tau_qed),
    "gate.tau_sa": ("--sa", float, GateConfig.tau_sa),
    "gate.R_pen": (None, float, GateConfig.r_pen),
    "sample.temperature": ("--temp", float, 1.1),
    "sample.nucleus": ("--nucleus", float, 1.0),
    "sample.K": ("--k-sample", int, 8),
    "sample.L": ("--length", int, 512),
    "sample.T": ("--steps", int, 128),
    "sample.mode": ("--mode", ("confidence", "sample"), "confidence"),
    "train.epochs": ("--epochs", int, 5),
    "train.lr": ("--lr", float, 0.1),
    "train.dim": ("--dim", int, 24),
    "train.window": ("--window", int, 12),
    "train.K": ("--block", int, 8),
    "train.L": ("--length", int, 48),
}
DEFAULTS = {key: default for key, (_, _, default) in SETTINGS.items()}

# The keys each command reads; its setting flags, settings and manifest hold no other,
# and search, which always draws, reads no sample.mode.
_DECODE_KEYS = ("sample.K", "sample.L", "sample.T", "sample.temperature", "sample.nucleus",
                "seed")
COMMAND_KEYS = {
    "train": ("train.epochs", "train.lr", "train.dim", "train.window", "train.K", "train.L",
              "seed"),
    "sample": _DECODE_KEYS + ("sample.mode",),
    "search": tuple(k for k in SETTINGS if k.startswith(("search.", "gate."))) + _DECODE_KEYS,
}


class UsageError(Exception):
    """Raised instead of argparse's default SystemExit(2)."""


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_help(sys.stderr)
        raise UsageError(message)


def _check_type(key: str, value):
    """A config file value must have its key's type; an int passes for a float."""
    kind = SETTINGS[key][1]
    if isinstance(kind, tuple):
        ok, want = value in kind, f"one of {', '.join(kind)}"
    else:
        ok = not isinstance(value, bool) and isinstance(value, (int, kind))
        want = "a number" if kind is float else "an integer"
    if not ok:
        raise ValueError(f"{key} must be {want}, got {value!r}")


def resolve(args) -> dict:
    """The settings ``args.command`` reads: defaults <- config file <- flags."""
    keys = COMMAND_KEYS[args.command]
    cfg = {key: DEFAULTS[key] for key in keys}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: a config file holds one JSON object")
        unknown = sorted(set(loaded) - set(SETTINGS))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in loaded.items():
            _check_type(key, value)
        cfg.update((key, loaded[key]) for key in keys if key in loaded)
    cfg.update((key, vars(args)[key]) for key in keys if vars(args).get(key) is not None)
    for key, value in cfg.items():  # NaN is left to each config's own range check
        # abs, as math.isinf cannot convert an int too large for a float
        if SETTINGS[key][1] is float and abs(value) > sys.float_info.max and \
                (key, value) != ("gate.tau_sa", math.inf):  # +inf: no SA bound
            raise ValueError(f"{key} must be finite, got {value!r}")
        # numpy takes sizes and counts as C longs; the seed's readers take any int
        if SETTINGS[key][1] is int and key != "seed" and not -2**63 <= value < 2**63:
            raise ValueError(f"{key} must be within the int64 range, got {value!r}")
    return cfg


def _numbered_lines(path, blank: bool = False):
    """(line number, stripped line) for each line of ``path``, blank ones if ``blank``."""
    fh = sys.stdin if path == "-" else open(path)
    try:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if line or blank:
                yield number, line
    finally:
        if fh is not sys.stdin:
            fh.close()


def _read_lines(path, blank: bool = False):
    return (line for _, line in _numbered_lines(path, blank))


def _load_samples(path) -> list[str]:
    """SMILES list from a plain file, or from the JSON lines that ``sample``
    prints and ``search --rollouts`` writes, one record with a string
    "smiles" field per line.

    ``search`` stdout ends with a summary record that has no "smiles"; it is
    rejected like any other such line, with the file and line number.
    """
    out = []
    for number, line in _numbered_lines(path):
        if not line.startswith("{"):
            out.append(line)
            continue
        where = f"{path}:{number}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(f"{where}: not a JSON line ({err.msg})") from None
        smiles = record.get("smiles")  # a line opening with "{" is an object
        if not isinstance(smiles, str):
            raise ValueError(f'{where}: JSON line has no string "smiles" field')
        out.append(smiles)
    return out


def _check_writable(*paths):
    """Raise the error opening each output path to write would raise on a
    missing or read-only directory, before the command does any work; no
    file is created or truncated.  None is skipped; "-" is no file here."""
    if "-" in paths:
        raise ValueError("'-' names no file: only curate --out writes to stdout")
    for path in paths:
        if path is None:
            continue
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise OSError(code, os.strerror(code), path)


def _manifest(path, command: str, cfg: dict, extra: dict):
    if not path:
        return
    record = {"command": command, "config": cfg, **extra,
              "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    text = json.dumps(record, indent=2, allow_nan=False)  # strict JSON, RFC 8259
    with open(path, "w") as fh:
        fh.write(text + "\n")


# -- subcommands


def cmd_validate(args) -> int:
    failures = total = 0
    # One verdict per input line: a blank line is an EmptyMolecule.
    for total, smiles in enumerate(_read_lines(args.infile, blank=True), start=1):
        _, err = try_parse(smiles)
        if err is not None:
            failures += 1
        sys.stdout.write(json.dumps({
            "smiles": smiles,
            "valid": err is None,
            "error": type(err).__name__ if err else None,
            "position": getattr(err, "position", None) if err else None,
        }) + "\n")
    if not total:
        raise ValueError(f"{args.infile}: no lines to validate")
    log.info("validate: %d lines, %d failures", total, failures)
    return 0


def cmd_curate(args) -> int:
    _check_writable(None if args.out == "-" else args.out, args.report)
    cfg = CurationConfig()
    accepted, report = curate_stream(_read_lines(args.infile), cfg)
    if not report.input_count:  # all-rejected input still exits 0: its report says why
        raise ValueError(f"{args.infile}: no molecules to curate")
    out = sys.stdout if args.out in (None, "-") else open(args.out, "w")
    try:
        for mol in accepted:
            out.write(mol.smiles + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_json() + "\n")
    else:
        sys.stderr.write(report.to_json() + "\n")
    return 0


def _tokenized_corpus(lines, frag: FragmentConfig, source: str):
    token_lists, skipped = [], 0
    for smiles in lines:
        tokens = tokenize(smiles)
        if len(tokens) > frag.length - 2:
            skipped += 1
            continue
        token_lists.append(tokens)
    if not token_lists:
        skips = f" ({skipped} over-length skipped)" if skipped else ""
        raise ValueError(f"{source}: no training examples{skips}")
    if skipped:
        log.warning("skipped %d over-length molecules", skipped)
    return token_lists


def _check_train_config(cfg: dict):
    """Reject hyperparameters that cannot train, naming the offending key."""
    for key, least in (("train.epochs", 1), ("train.dim", 1), ("train.window", 0)):
        if cfg[key] < least:
            raise ValueError(f"{key} must be an integer >= {least}, got {cfg[key]!r}")
    lr = cfg["train.lr"]
    if not math.isfinite(lr) or lr <= 0:
        raise ValueError(f"train.lr must be a finite number > 0, got {lr!r}")


def cmd_train(args) -> int:
    _check_writable(args.out, args.manifest)
    cfg = resolve(args)
    _check_train_config(cfg)
    frag = FragmentConfig(cfg["train.L"], cfg["train.K"])
    lines = data.toy_corpus(args.toy) if args.infile is None \
        else list(_read_lines(args.infile))
    token_lists = _tokenized_corpus(lines, frag, args.infile or "toy corpus")
    vocab = Vocab.build(token_lists)
    corpus = np.array([pad_and_partition(t, frag, vocab) for t in token_lists],
                      dtype=np.int64).reshape(len(token_lists), frag.length)
    params = diffusion.PredictorParams.init(
        len(vocab), cfg["train.dim"], cfg["train.window"], seed=cfg["seed"])
    params, history = diffusion.train(
        params, corpus, frag.block, epochs=cfg["train.epochs"], lr=cfg["train.lr"],
        seed=cfg["seed"])
    if not all(math.isfinite(x) for x in history):
        raise ValueError(f"training diverged (NELBO history {history}); "
                         "no checkpoint written: lower train.lr")
    diffusion.save_checkpoint(args.out, params, vocab, cfg["seed"])
    sys.stdout.write(json.dumps({
        "examples": len(corpus), "vocab_size": len(vocab),
        "epochs": cfg["train.epochs"], "nelbo_history": history,
    }) + "\n")
    _manifest(args.manifest, "train", cfg, {"checkpoint": args.out})
    return 0


def _decode_config(cfg: dict, mode: str) -> DecodeConfig:
    return DecodeConfig(
        block=cfg["sample.K"], length=cfg["sample.L"], budget=cfg["sample.T"],
        temperature=cfg["sample.temperature"], nucleus_p=cfg["sample.nucleus"],
        mode=mode, seed=cfg["seed"])


# The fewest rows a chunk gets a process for.  Benchmark samples on a 2-core
# VM, median ms of 15 alternating runs, one process -> two: 128 rows 44 -> 69
# (44 -> 39 with single-threaded BLAS), 256 rows 68 -> 55, 512 rows 110 -> 77.
MIN_CHUNK_ROWS = 128


def _sample_prefix(decoder: Decoder, text: str | None) -> list | None:
    """The --prefix tokens, rejected as ``frame`` rejects them or when the
    scan of the prefix alone already fails, so that no continuation parses."""
    if not text:
        return None
    tokens = tokenize(text)
    decoder.frame(0, tokens)
    try:
        chem.scan(tokens)
    except chem.ChemError as err:
        raise ValueError(f"--prefix {text!r} cannot begin a valid molecule: "
                         f"{type(err).__name__} at offset {err.position}: {err}") from None
    return tokens


def cmd_sample(args) -> int:
    cfg = resolve(args)
    if args.n < 1:
        raise ValueError(f"n must be >= 1, got --n {args.n}")
    _check_writable(args.manifest)
    if cfg["sample.mode"] == "confidence" and args.seed is not None:
        log.warning("sample: --seed changes nothing in confidence mode, which "
                    "commits the most likely tokens; use --mode sample to draw")
    params, vocab, _ = diffusion.load_checkpoint(args.checkpoint)
    decoder = Decoder(params, _decode_config(cfg, cfg["sample.mode"]), vocab)
    prefix = _sample_prefix(decoder, args.prefix)

    def lines(lo: int, hi: int):
        """Rows lo..hi as JSON lines, or the BudgetExhausted that stopped them."""
        try:
            records = decoder.decode(hi - lo, prefix, first_lane=lo)
        except BudgetExhausted as err:
            return err
        out = io.StringIO()
        write_jsonl(records, out, cfg["seed"])
        return out.getvalue()

    # Rows draw with their own lanes, so the chunks join to the same bytes
    # whatever their count.
    bounds = parallel.chunk_bounds(args.n, MIN_CHUNK_ROWS)
    log.info("sample: processes %d, rows per chunk %s", len(bounds),
             ", ".join(str(hi - lo) for lo, hi in bounds))
    chunks = parallel.map_chunks(lines, bounds)
    aborts = [chunk for chunk in chunks if isinstance(chunk, BudgetExhausted)]
    if aborts:  # every aborted chunk stopped at the same block
        log_abort(aborts[0])
        log.error("sample: decoding was aborted, so no molecule was written; "
                  "raise --steps (sample.T)")
        return 2
    sys.stdout.write("".join(chunks))
    _manifest(args.manifest, "sample", cfg, {"checkpoint": args.checkpoint, "n": args.n})
    return 0


def cmd_search(args) -> int:
    _check_writable(args.rollouts, args.manifest)
    cfg = resolve(args)
    if args.unconstrained:
        if any(vars(args)[key] is not None for key in ("gate.tau_qed", "gate.tau_sa")):
            raise UsageError("--unconstrained turns the gate off; drop --qed and --sa")
        cfg["gate.tau_qed"], cfg["gate.tau_sa"] = 0.0, math.inf
    params, vocab, _ = diffusion.load_checkpoint(args.checkpoint)
    profile = load_profile(args.target)
    search_cfg = SearchConfig(
        n_max=cfg["search.N_max"], c=cfg["search.C"], lam=cfg["search.lambda"],
        beta=cfg["search.beta"], c_init=cfg["search.C_init"], c_base=cfg["search.C_base"],
        c_min=cfg["search.C_min"], c_max=cfg["search.C_max"], m=cfg["search.M"],
        n_sim=cfg["search.n_sim"], d_max=cfg["search.D_max"],
        decode=_decode_config(cfg, "sample"),
        gate=GateConfig(cfg["gate.tau_qed"], cfg["gate.tau_sa"], cfg["gate.R_pen"]))
    outcome = run_search(search_cfg, params, vocab, SurrogateOracle(profile))
    for result in outcome.results:
        sys.stdout.write(result.to_json_line() + "\n")
    sys.stdout.write(json.dumps(outcome.summary()) + "\n")
    if args.rollouts:
        with open(args.rollouts, "w") as fh:
            for result in outcome.rollouts:
                fh.write(result.to_json_line() + "\n")
    if cfg["gate.tau_sa"] == math.inf:  # no SA bound: null, as JSON has no infinity
        cfg["gate.tau_sa"] = None
    # A search runs its whole budget; perfbench's check_search still reads "aborted".
    _manifest(args.manifest, "search", cfg,
              {"target": profile.name, "checkpoint": args.checkpoint,
               "iterations": outcome.iterations, "aborted": False})
    return 0


def cmd_eval(args) -> int:
    samples = _load_samples(args.infile)
    if not samples:
        raise ValueError(f"{args.infile}: no samples to evaluate")
    oracle = SurrogateOracle(load_profile(args.target))
    report = metrics.standard_metrics(samples, oracle)
    sys.stdout.write(json.dumps(report.to_dict()) + "\n")
    return 0


# -- wiring


def _add_settings(p, command: str):
    """A flag for each setting ``command`` reads, then --config and --manifest."""
    for key in COMMAND_KEYS[command]:
        flag, kind, default = SETTINGS[key]
        if flag:
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            p.add_argument(flag, dest=key, help=f"config key {key}, default {default}",
                           **typed)
    p.add_argument("--config", help="JSON file of config keys")
    p.add_argument("--manifest", help="JSON record of the run and the settings it read")


def build_parser() -> Parser:
    parser = Parser(prog="blockmol", description=__doc__)
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", parser_class=Parser)

    p = sub.add_parser("validate", help="per-line SMILES validity report")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("curate", help="run the curation pipeline")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("train", help="train the reference predictor")
    p.add_argument("--in", dest="infile", default=None,
                   help="SMILES file; omit to use the built-in toy corpus")
    p.add_argument("--toy", type=int, default=500,
                   help="toy corpus size when --in is omitted")
    p.add_argument("--out", required=True, help="checkpoint path")
    _add_settings(p, "train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="generate molecules from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--prefix", default=None)
    _add_settings(p, "sample")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("search", help="gated tree search against a target")
    p.add_argument("--target", required=True,
                   help=f"profile name ({', '.join(list_profiles())}) or path")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--unconstrained", action="store_true", help="no gate; not with --qed, --sa")
    _add_settings(p, "search")
    p.add_argument("--rollouts", default=None,
                   help="also write every valid rollout to this file")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="metrics report over a sample file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as usage:
        sys.stderr.write(f"error: {usage}\n")
        return 1
    except SystemExit as stop:  # --help
        return int(stop.code or 0)
    level = (logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)]
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    if not getattr(args, "command", None):
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as usage:
        sys.stderr.write(f"error: {usage}\n")
        return 1
    except (OSError, ValueError, RuntimeError) as failure:
        log.error("%s", failure)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface for the whole pipeline.

Data goes to stdout, diagnostics to stderr, so streams can be piped and
compared byte for byte.  Exit codes: 0 success, 1 usage error, 2 runtime
error.  Each setting is declared once, in ``SETTINGS``, with the interval
its value lies in; its flag's --help names its config key, default and
interval.  A command resolves the keys it reads from the defaults, then a
JSON config file of flat namespaced keys (e.g. "search.C"), then explicit
flags.  An unknown key is a usage error; a value of the wrong type, or
outside its interval, exits 2 naming its key (and file) before any work.
Keys that only other commands read are checked alike, then ignored.  A
--manifest records only the settings the command read, and the stream version.
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
from collections import Counter

import numpy as np

from . import STREAM_VERSION, chem, data, diffusion, metrics, parallel
from .chem import Vocab, tokenize, try_parse
from .curate import curate_stream
from .decode import BudgetExhausted, DecodeConfig, Decoder, log_abort, write_jsonl
from .fragment import (ROWS_INTERVAL, FragmentConfig, check_interval, check_record,
                       load_record, pad_and_partition)
from .oracle import SurrogateOracle, list_profiles, load_profile
from .search import GateConfig, SearchConfig, run_search

log = logging.getLogger("blockmol")

# config key -> (flag or None (config file only), type or choices, default, interval or None);
# the seed and the search.*, gate.* and sample.* defaults and intervals are the library's.
SETTINGS = {
    "seed": ("--seed", int, DecodeConfig.seed, None),
    "search.N_max": ("--budget", int, SearchConfig.n_max, SearchConfig.INTERVALS["n_max"]),
    "search.C": ("--c", float, SearchConfig.c, SearchConfig.INTERVALS["c"]),
    "search.lambda": ("--lam", float, SearchConfig.lam, SearchConfig.INTERVALS["lam"]),
    "search.beta": ("--beta", float, SearchConfig.beta, SearchConfig.INTERVALS["beta"]),
    "search.C_init": ("--c-init", int, SearchConfig.c_init, SearchConfig.INTERVALS["c_init"]),
    "search.C_base": ("--c-base", int, SearchConfig.c_base, SearchConfig.INTERVALS["c_base"]),
    "search.C_min": ("--c-min", int, SearchConfig.c_min, SearchConfig.INTERVALS["c_min"]),
    "search.C_max": ("--c-max", int, SearchConfig.c_max, SearchConfig.INTERVALS["c_max"]),
    "search.M": ("--m", int, SearchConfig.m, SearchConfig.INTERVALS["m"]),
    "search.n_sim": ("--n-sim", int, SearchConfig.n_sim, SearchConfig.INTERVALS["n_sim"]),
    "search.D_max": ("--d-max", int, SearchConfig.d_max, SearchConfig.INTERVALS["d_max"]),
    "gate.tau_qed": ("--qed", float, GateConfig.tau_qed, GateConfig.INTERVALS["tau_qed"]),
    "gate.tau_sa": ("--sa", float, GateConfig.tau_sa, GateConfig.INTERVALS["tau_sa"]),
    "gate.R_pen": (None, float, GateConfig.r_pen, GateConfig.INTERVALS["r_pen"]),
    "sample.temperature": ("--temp", float, DecodeConfig.temperature,
                           DecodeConfig.INTERVALS["temperature"]),
    "sample.nucleus": ("--nucleus", float, DecodeConfig.nucleus_p,
                       DecodeConfig.INTERVALS["nucleus_p"]),
    "sample.K": ("--k-sample", int, DecodeConfig.block, FragmentConfig.INTERVALS["block"]),
    "sample.L": ("--length", int, DecodeConfig.length, FragmentConfig.INTERVALS["length"]),
    "sample.T": ("--steps", int, DecodeConfig.budget, DecodeConfig.INTERVALS["budget"]),
    "sample.mode": ("--mode", DecodeConfig.MODES, DecodeConfig.mode, None),
    # Training's (d, L, 2L) offset gains hold <= 2**60 bytes (FragmentConfig), its gains 2**36.
    "train.epochs": ("--epochs", int, 5, "[1, 2**63)"),
    "train.lr": ("--lr", float, 0.1, "(0, inf)"),
    "train.dim": ("--dim", int, 24, "[1, 2**16]"),
    "train.window": ("--window", int, 12, "[0, 2**16]"),
    "train.K": ("--block", int, 8, FragmentConfig.INTERVALS["block"]),
    "train.L": ("--length", int, 48, FragmentConfig.INTERVALS["length"]),
}
DEFAULTS = {key: default for key, (_, _, default, _) in SETTINGS.items()}

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


def resolve(args) -> dict:
    """The settings ``args.command`` reads: defaults <- config file <- flags."""
    keys = COMMAND_KEYS[args.command]
    cfg = {key: DEFAULTS[key] for key in keys}
    if args.config:
        loaded = load_record(args.config, {})  # one JSON object, whose keys come next
        unknown = sorted(set(loaded) - set(SETTINGS))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        check_record(loaded, {key: (SETTINGS[key][1], SETTINGS[key][3]) for key in loaded},
                     args.config)
        cfg.update((key, loaded[key]) for key in keys if key in loaded)
    flags = {key: vars(args)[key] for key in keys if vars(args).get(key) is not None}
    for key, value in flags.items():
        if SETTINGS[key][3]:
            check_interval(key, value, SETTINGS[key][3])
    return cfg | flags


def _numbered_lines(path, blank: bool = False):
    """(line number, stripped line) for each line of ``path``, blank ones if ``blank``;
    raises ValueError naming the path and line of a byte that is not UTF-8."""
    # An undecodable byte reads as a lone surrogate, which no UTF-8 text holds.
    fh = sys.stdin if path == "-" else open(path, encoding="utf-8", errors="surrogateescape")
    try:
        for number, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as err:
                    byte = ord(line[err.start]) - 0xDC00
                    raise ValueError(f"{path}:{number}: not UTF-8 (byte {byte:#04x} "
                                     f"at column {err.start + 1})") from None
            line = line.strip()
            if line or blank:
                yield number, line
    finally:
        if fh is not sys.stdin:
            fh.close()


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
    record = {"command": command, "stream_version": STREAM_VERSION, "config": cfg, **extra,
              "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    text = json.dumps(record, indent=2, allow_nan=False)  # strict JSON, RFC 8259
    with open(path, "w") as fh:
        fh.write(text + "\n")


# -- subcommands


def cmd_validate(args) -> int:
    failures = total = 0
    # One verdict per input line (a blank line is an EmptyMolecule), and none
    # before every line is read, so that a read error writes none.
    for total, smiles in list(_numbered_lines(args.infile, blank=True)):
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
    accepted, report = curate_stream(line for _, line in _numbered_lines(args.infile))
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


def _tokenized_corpus(numbered, frag: FragmentConfig, source: str):
    """Token lists of ``source``'s (line number, SMILES) pairs that fit ``frag``."""
    token_lists, skipped = [], 0
    for number, smiles in numbered:
        try:
            tokens = tokenize(smiles)
        except chem.ChemError as err:
            raise ValueError(f"{source}:{number}: {err}") from None
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


def cmd_train(args) -> int:
    _check_writable(args.out, args.manifest)
    cfg = resolve(args)
    toy = 500 if args.toy is None else args.toy
    check_interval("--toy", toy, data.TOY_INTERVAL)
    frag = FragmentConfig(cfg["train.L"], cfg["train.K"])
    numbered = enumerate(data.toy_corpus(toy), start=1) if args.infile is None \
        else _numbered_lines(args.infile)
    token_lists = _tokenized_corpus(numbered, frag, args.infile or "toy corpus")
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
    check_interval("--n", args.n, ROWS_INTERVAL)
    _check_writable(args.manifest)
    if cfg["sample.mode"] == "confidence" and args.seed is not None:
        log.warning("sample: --seed changes nothing in confidence mode, which "
                    "commits the most likely tokens; use --mode sample to draw")
    params, vocab, _ = diffusion.load_checkpoint(args.checkpoint)
    decoder = Decoder(params, _decode_config(cfg, cfg["sample.mode"]), vocab)
    prefix = _sample_prefix(decoder, args.prefix)

    def lines(lo: int, hi: int):
        """Rows lo..hi as JSON lines with the decoder's counts, the SMILES
        parsed among them, or the BudgetExhausted that stopped them.  Each
        process decodes one chunk, so the counts are the chunk's."""
        try:
            records = decoder.decode(hi - lo, prefix, first_lane=lo)
        except BudgetExhausted as err:
            return err
        out = io.StringIO()
        decoder.counts["parsed"] += write_jsonl(records, out, cfg["seed"])
        return out.getvalue(), decoder.counts

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
    counts = sum((chunk_counts for _, chunk_counts in chunks), Counter())
    log.info("sample: %s predictor rows for %s row-steps", f"{counts['predicted_rows']:,}",
             f"{counts['row_steps']:,}")
    log.info("sample: %s rows judged invalid from their ids, %s SMILES parsed",
             f"{counts['judged_rows']:,}", f"{counts['parsed']:,}")
    sys.stdout.write("".join(text for text, _ in chunks))
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
    counts = outcome.counts  # by name: a count that never happened reads 0
    log.info("search: %d iterations, %d rollouts skipped from a dead prefix, "
             "%d terminal reselections", outcome.iterations, counts["dead_rollouts"],
             counts["terminal_reselections"])
    log.info("search: %d rollout rows judged invalid from their ids, %d SMILES parsed",
             counts["judged_rows"], counts["parsed"])
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
               "iterations": outcome.iterations, "aborted": False,
               "dead_rollouts": counts["dead_rollouts"],
               "terminal_reselections": counts["terminal_reselections"]})
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
        flag, kind, default, interval = SETTINGS[key]
        if flag:
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            within = f", in {interval}" if interval else ""
            p.add_argument(flag, dest=key, help=f"config key {key}, default {default}{within}",
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
    corpus = p.add_mutually_exclusive_group()
    corpus.add_argument("--in", dest="infile", default=None,
                        help="SMILES file; omit to use the built-in toy corpus")
    corpus.add_argument("--toy", type=int, default=None,
                        help=f"toy corpus size, default 500, in {data.TOY_INTERVAL}")
    p.add_argument("--out", required=True, help="checkpoint path")
    _add_settings(p, "train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="generate molecules from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=int, default=1000,
                   help=f"molecules to generate, in {ROWS_INTERVAL}")
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
    except (OSError, ValueError, RuntimeError, MemoryError) as failure:
        log.error("%s", str(failure) or type(failure).__name__)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Parallel curation against the one-process reference.

The reference below is the original ``curate_stream`` loop: it parses,
scores, classifies and fingerprints each line and admits it for diversity
before it reads the next.  ``curate_stream`` now screens windows of lines in
consecutive chunks, one forked process per CPU, and admits the results in
input order in this process; its accepted list and report must equal the
reference's, byte for byte, for any process count and window size.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmol import cli, curate, parallel
from blockmol.chem import descriptors, fingerprint, tanimoto, try_parse
from blockmol.curate import CuratedMol, CurationReport, classify, curate_stream
from blockmol.data import toy_candidates
from blockmol.oracle import surrogate_qed, surrogate_sa
from conftest import counting_forks

# --- reference: the one-process curation loop ----------------------------------


def reference_curate(lines):
    report = CurationReport()
    accepted = []
    buckets = {}

    def charge(stage, rule):
        report.rejections[stage] += 1
        key = f"{stage}.{rule}"
        report.rule_counts[key] = report.rule_counts.get(key, 0) + 1

    for raw in lines:
        smiles = raw.strip()
        if not smiles:
            continue
        report.input_count += 1
        mol, err = try_parse(smiles)
        if err is not None:
            report.parse_failures += 1
            continue
        d = descriptors(mol)
        qed, sa = surrogate_qed(d), surrogate_sa(d)
        verdict = classify(mol, d, qed, sa)
        if verdict is not None:
            charge(verdict.stage, verdict.rule)
            continue
        lo, hi = curate.HEAVY_RANGE
        if not lo <= d.heavy_atoms <= hi:
            charge("diversity", "size_bucket")
            continue
        fp = fingerprint(mol)
        bucket = buckets.setdefault(d.heavy_atoms, [])
        if any(tanimoto(fp, other) >= curate.TANIMOTO_MAX for other in bucket):
            charge("diversity", "similarity")
            continue
        bucket.append(fp)
        accepted.append(CuratedMol(smiles, qed, sa, d.heavy_atoms))
        report.accepted_count += 1

    report.bucket_sizes = {k: len(v) for k, v in buckets.items()}
    assert report.reconciles()
    return accepted, report


# --- helpers -------------------------------------------------------------------

GRID = toy_candidates.__wrapped__(3)


def force_processes(mp, count: int, window: int = curate.WINDOW_LINES):
    """Chunk every window of ``window`` lines over ``count`` processes."""
    mp.setattr(parallel, "cpu_count", lambda: count)
    mp.setattr(curate, "MIN_CHUNK_ROWS", 1)
    mp.setattr(curate, "WINDOW_LINES", window)


# Grid lines, lines that do not parse, blanks, padded lines, and near
# duplicates of grid lines (one more atom); duplicates come from repeats.
grid_line = st.sampled_from(GRID[::29])
line = st.one_of(
    grid_line,
    grid_line,
    st.sampled_from(["C1CC", "not a molecule", "((", "c1ccc", "CC(", "[Xx]", "C)"]),
    st.sampled_from(["", "   ", "\t"]),
    st.builds(lambda s, pad: pad + s + pad, grid_line, st.sampled_from([" ", "\t"])),
    st.builds(lambda s, tail: s + tail, grid_line, st.sampled_from(["C", "O", "F", "N"])),
)


@st.composite
def corpora(draw):
    lines = draw(st.lists(line, max_size=40))
    repeats = draw(st.lists(st.integers(0, max(len(lines) - 1, 0)), max_size=8))
    for at in repeats:
        if lines:
            lines.insert(draw(st.integers(0, len(lines))), lines[at])
    return lines


@settings(max_examples=40, deadline=None)
@given(lines=corpora(), window=st.sampled_from([3, 7, 16, 1 << 13]))
def test_curation_matches_the_reference_at_any_process_count(lines, window):
    want, want_report = reference_curate(lines)
    for count in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            force_processes(mp, count, window)
            forks = counting_forks(mp)
            got, report = curate_stream(iter(lines))
        assert got == want, count
        assert report.to_json() == want_report.to_json(), count
        nonblank = [s for s in lines if s.strip()]
        windows = [len(nonblank[lo:lo + window]) for lo in range(0, len(nonblank), window)]
        assert len(forks) == sum(min(count, n) - 1 for n in windows)


@pytest.mark.parametrize("count,sizes", [(1, "200"), (2, "100, 100"), (3, "66, 67, 67")])
def test_curate_files_do_not_depend_on_the_process_count(tmp_path, capsys, caplog,
                                                         monkeypatch, count, sizes):
    lines = list(GRID[::159][:196]) + ["C1CC", "", "C[Si](C)(C)OC(=O)Nc1ccc(N)cc1",
                                       "not a molecule", GRID[0]]
    infile = tmp_path / "in.smi"
    infile.write_text("\n".join(lines) + "\n")
    want, want_report = reference_curate(lines)
    assert len(want) > 20 and len(want_report.rule_counts) > 3
    force_processes(monkeypatch, count)
    caplog.set_level("INFO", logger="blockmol")
    out, rep = tmp_path / "kept.smi", tmp_path / "report.json"
    assert cli.main(["-v", "curate", "--in", str(infile), "--out", str(out),
                     "--report", str(rep)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == "".join(m.smiles + "\n" for m in want)
    assert rep.read_text() == want_report.to_json() + "\n"
    assert caplog.messages == [f"curate: processes {count}, rows per chunk {sizes}"]


def test_curate_below_the_minimum_chunk_forks_nothing(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
    lines = GRID[: 2 * curate.MIN_CHUNK_ROWS]
    want = reference_curate(lines)
    with monkeypatch.context() as mp:
        forks = counting_forks(mp)
        assert curate_stream(lines) == want
    assert len(forks) == 1
    monkeypatch.setattr(os, "fork", fork)
    assert curate_stream(lines[:-1]) == reference_curate(lines[:-1])


def test_a_chunk_failing_in_a_child_exits_2_and_leaves_no_child(tmp_path, capsys, caplog,
                                                                monkeypatch):
    screen = curate.screen

    def failing(smiles):
        if smiles == "CCO":
            raise ValueError("no such molecule")
        return screen(smiles)

    force_processes(monkeypatch, 3)
    monkeypatch.setattr(curate, "screen", failing)
    infile = tmp_path / "in.smi"
    infile.write_text("\n".join(list(GRID[:4]) + ["CCO"] + list(GRID[4:7])) + "\n")
    out = tmp_path / "kept.smi"
    assert cli.main(["curate", "--in", str(infile), "--out", str(out)]) == 2
    assert capsys.readouterr().out == "" and not out.exists()
    assert caplog.messages == ["chunk 1 failed: ValueError: no such molecule"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

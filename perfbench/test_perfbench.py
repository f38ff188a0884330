"""Quick test of the benchmark: every workload at a tiny size through every check."""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(grid_limit=1000, build_shards=2, build_epochs=3,
                       corpus_stride=200, setup_epochs=4,
                       sample_n=40, probe_n=8, search_budget=30)
# Operations per tiny run: set-up trainings, the commands of min_rounds
# rounds, and for sample the three rerun-identity probes.
ATTEMPTED = {"build": 2 + 2, "sample": 2 + 2 * 3 + 3, "search": 2 + 2 * 2}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_passes_every_check(workload, tmp_path):
    result = run.measure(workloads, workload, 3, 0.0, TINY, tmp_path)
    assert result["failed"] == 0 and result["correct"], result
    assert result["attempted"] == ATTEMPTED[workload]
    metrics = result["metrics"]
    assert list(metrics) == list(run.END_TO_END)
    # A predictor trained on 156 molecules may decode nothing valid, so the
    # yield can be 0 here; at full size it never is.
    assert metrics.pop("first_cmd_yield_per_s")["value"] >= 0
    assert all(m["value"] > 0 for m in metrics.values()), metrics


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer(workload, tmp_path):
    result = run.measure_traced(workloads, spans, workload, 3, TINY, tmp_path)
    assert result["failed"] == 0 and result["correct"], result
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(values) == [m["name"] for m in spans.per_layer_spec()]
    reached = {"build": ["curate.curate_stream", "chem.tanimoto", "diffusion.loss_gradient"],
               "sample": ["decode.Decoder.decode_block", "diffusion.predict",
                          "metrics.standard_metrics"],
               "search": ["search.TreeSearch.expand", "oracle.SurrogateOracle.score_mol",
                          "decode.key_uniform"]}[workload]
    for name in reached + ["cli.main"]:
        assert values[f"{name}.calls"] > 0, name
        assert 0 < values[f"{name}.self_s"] <= values[f"{name}.busy_s"], name
    # Only the traced round's commands are spans of cli.main.
    assert values["cli.main.calls"] == {"build": TINY.build_shards + 2, "sample": 3,
                                        "search": 2}[workload]
    assert values["trace.spans"] > values["cli.main.calls"]
    assert values["trace.span_cost_us"] > 0
    assert values["trace.overhead_est_s"] == pytest.approx(
        values["trace.span_cost_us"] * 1e-6 * values["trace.spans"])
    assert (tmp_path / f"spans-{workload}.npz").is_file()
    if workload == "search":
        assert values["search.novel_ratio.base"] == values["search.TreeSearch.expand.calls"]
        assert values["search.tree_nodes"] > 1
    if workload == "sample":
        assert values["diffusion.predict.rows_per_call"] > 1
        assert values["decode.valid_ratio.base"] == TINY.sample_n


def test_tracer_restores_every_reference(tmp_path):
    from blockmol import chem, cli, curate, decode
    before = (chem.try_parse, curate.try_parse, cli.try_parse, decode.Decoder.decode_block)
    with spans.Tracer():
        assert curate.try_parse is chem.try_parse is cli.try_parse
        assert curate.try_parse.__wrapped__ is before[0]
        assert decode.Decoder.decode_block.__wrapped__ is before[3]
    assert (chem.try_parse, curate.try_parse, cli.try_parse,
            decode.Decoder.decode_block) == before


def test_corrupted_output_counts_as_failed_operation(tmp_path, monkeypatch):
    real = workloads.run_cli

    corrupted = []

    def corrupting(argv):
        command = real(argv)
        if argv[0] == "curate" and not corrupted:  # one survivor written twice
            out = Path(argv[argv.index("--out") + 1])
            out.write_text(out.read_text() + out.read_text().splitlines()[0] + "\n")
            corrupted.append(argv)
        return command

    monkeypatch.setattr(workloads, "run_cli", corrupting)
    result = run.measure(workloads, "build", 3, 0.0, TINY, tmp_path)
    assert result["attempted"] == ATTEMPTED["build"]
    assert result["failed"] == 1 and not result["correct"]


@pytest.mark.parametrize("workload, command", [("build", "curate"), ("search", "search")])
def test_failed_exit_is_incorrect_and_not_timed(workload, command, tmp_path, monkeypatch):
    real = workloads.run_cli
    calls = []

    def failing(argv):
        if argv[0] == command:
            calls.append(argv)
            if len(calls) == 2:  # exits 1 at once, so its time would read fast
                return workloads.Command(argv, 1, "", time.perf_counter(), 1e-9)
        return real(argv)

    monkeypatch.setattr(workloads, "run_cli", failing)
    result = run.measure(workloads, workload, 3, 0.0, TINY, tmp_path)
    assert result["failed"] >= 1 and not result["correct"], result
    rate = result["metrics"]["first_cmd_items_per_s"]["value"]
    assert 0 < rate < 1e6, rate


def test_check_that_raises_is_one_failed_operation():
    ledger = workloads.Ledger()
    command = workloads.Command(["eval"], 0, "", 0.0, 0.1)
    assert not ledger.record(command, lambda: workloads.check_eval("", [], []))
    assert not ledger.record(command, lambda: 1 / 0)
    assert ledger.record(command, lambda: [])
    assert (ledger.attempted, ledger.failed) == (3, 2)


def test_meter_scales_wall_time_by_the_sampled_speed():
    meter = speed.Meter()
    meter.start()
    begin = time.perf_counter()
    while time.perf_counter() - begin < 0.3:
        pass
    end = time.perf_counter()
    meter.stop()
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert len(meter.speeds) >= 5
    whole = meter.seconds(begin, end)
    assert whole > 0
    # Half the interval at the same sampled speeds is half the reference time.
    assert meter.seconds(begin, begin + (end - begin) / 2) == pytest.approx(whole / 2, rel=0.5)
    # An interval with no sample takes the run's mean speed.
    assert meter.seconds(end + 1, end + 2) == pytest.approx(
        sum(meter.speeds) / len(meter.speeds) * speed.REFERENCE_PROBE_S)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert spec["per_layer"] == spans.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

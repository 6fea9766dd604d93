"""CLI smoke tests."""

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for exp_id in ("e1", "e3", "e7"):
        assert exp_id in out


def test_e1_prints_table(capsys):
    assert main(["e1"]) == 0
    out = capsys.readouterr().out
    assert "lines of code" in out
    assert "LoC reduction" in out


def test_e6_single_variant(capsys):
    assert main(["e6", "--variant", "mencius", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "mencius" in out
    assert "committed=50/50" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["zzz"])


def test_e5_setting_validated():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["e5", "--setting", "bogus"])


def test_parser_defaults():
    args = build_parser().parse_args(["e3"])
    assert args.seeds == [1]
    assert args.variant is None


@pytest.mark.parametrize("exp_id", ["e2", "e3", "e4", "e5", "e6"])
def test_every_seed_and_the_variant_reach_the_runner(exp_id, monkeypatch, capsys):
    import repro.eval
    from repro.cli import RUNS

    calls = []

    class Result:
        depth_after_join = depth_after_rejoin = 3

        def summary(self):
            return "ran"

    def runner(variant, seed, **extra):
        calls.append((variant, seed, extra))
        return Result()

    runner_name, variants_name, _default = RUNS[exp_id]
    monkeypatch.setattr(repro.eval, runner_name, runner)
    variant = getattr(repro.eval, variants_name)[-1]
    argv = [exp_id, "--variant", variant, "--seeds", "1", "2"]
    extra = {}
    if exp_id == "e5":
        argv += ["--setting", "abundant"]
        extra = {"setting": "abundant"}
    assert main(argv) == 0
    assert calls == [(variant, 1, extra), (variant, 2, extra)]


def test_e7_runs_the_one_seed_it_accepts(monkeypatch):
    """e7 sweeps one world: several seeds are refused, not cut to the first."""
    import repro.statemachine

    with pytest.raises(SystemExit):
        build_parser().parse_args(["e7", "--seeds", "1", "2"])

    class Built(Exception):
        pass

    def cluster(n, factory, seed, resolver_factory):
        raise Built(seed)

    monkeypatch.setattr(repro.statemachine, "Cluster", cluster)
    with pytest.raises(Built) as built:
        main(["e7", "--seed", "7", "--max-depth", "1"])
    assert built.value.args == (7,)


def test_trace_requires_known_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", "e2"])


def test_trace_explain_prints_causal_chain(capsys):
    assert main(["trace", "e6", "--explain"]) == 0
    out = capsys.readouterr().out
    assert "steered=" in out
    assert "choice proposer" in out      # the chain's root
    assert "steer: drop" in out          # the steering action
    assert "predicted continuation" in out


def test_trace_writes_artifacts(tmp_path, capsys):
    json_path = tmp_path / "TRACE_EXPLAIN.json"
    md_path = tmp_path / "TRACE_EXPLAIN.md"
    jsonl_path = tmp_path / "trace.jsonl"
    assert main(["trace", "e6", "--json", str(json_path),
                 "--markdown", str(md_path), "--jsonl", str(jsonl_path)]) == 0
    import json as jsonlib

    explanation = jsonlib.loads(json_path.read_text())
    assert explanation["steps"][0]["category"] == "choice.resolve"
    assert "Causal chain" in md_path.read_text()
    first = jsonlib.loads(jsonl_path.read_text().splitlines()[0])
    assert "category" in first


def test_trace_markdown_format(capsys):
    assert main(["trace", "e6", "--explain", "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert "### Why:" in out


# ----------------------------------------------------------------------
# Streaming telemetry commands: t1 / tail / top
# ----------------------------------------------------------------------

def _write_demo_stream(path, finish=True):
    from repro.obs.stream import RunStream

    stream = RunStream(str(path), kind="demo", run_id="r-demo",
                       config={"seed": 7})
    stream.write_sample({"ops": 10, "lat": 0.25}, t=1.0)
    stream.write_sample({"ops": 25, "lat": 0.5}, t=2.0)
    stream.write_event("safety.probe", t=2.5, agreement=True)
    if finish:
        stream.write_summary(t=3.0, committed=25)
    else:
        stream.close()


def test_tail_missing_file_is_error(tmp_path, capsys):
    assert main(["tail", str(tmp_path / "nope.jsonl")]) == 2
    assert "no stream at" in capsys.readouterr().err


def test_tail_renders_records(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    _write_demo_stream(path)
    assert main(["tail", str(path)]) == 0
    out = capsys.readouterr().out
    assert "# demo run r-demo" in out
    assert "ops=10" in out and "ops=25" in out
    assert "event safety.probe" in out
    assert "== summary" in out and "committed=25" in out


def test_tail_json_emits_valid_jsonl(tmp_path, capsys):
    import json as jsonlib

    path = tmp_path / "run.jsonl"
    _write_demo_stream(path)
    assert main(["tail", str(path), "--json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [jsonlib.loads(l)["type"] for l in lines] == \
        ["header", "sample", "sample", "event", "summary"]


def test_top_renders_series_and_status(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    _write_demo_stream(path)
    assert main(["top", str(path)]) == 0
    out = capsys.readouterr().out
    assert "run r-demo" in out and "finished" in out
    assert "samples=2" in out
    assert "ops" in out and "lat" in out
    assert "== summary" in out


def test_top_shows_running_without_summary(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    _write_demo_stream(path, finish=False)
    assert main(["top", str(path)]) == 0
    assert "RUNNING" in capsys.readouterr().out


def test_t1_quick_streams_run(tmp_path, capsys):
    from repro.obs.stream import read_stream

    path = tmp_path / "t1.jsonl"
    assert main(["t1", "--quick", "--stream", str(path)]) == 0
    out = capsys.readouterr().out
    assert "committed" in out
    records = read_stream(str(path))
    types = [r["type"] for r in records]
    assert types[0] == "header" and types[-1] == "summary"
    assert types.count("sample") == 15  # one per second over the horizon


def test_t1_reports_each_resolution_once(capsys):
    """A denied or deferred resolution also ends as a fallback: the
    reported total is what the runtimes resolved, not the sum of every
    path counter."""
    from repro.eval import run_throughput_experiment

    result = run_throughput_experiment(
        "amortized", seed=3, total_requests=300, horizon=6.0)
    steering = result.metrics["steering"]
    resolved = sum(
        node["runtime"]["choices_resolved"] for node in result.metrics["nodes"].values())
    assert steering["counters"]["deferred"] > 0
    assert steering["resolutions"] == resolved
    assert main(["t1", "--steering", "amortized", "--seed", "3",
                 "--requests", "300", "--horizon", "6"]) == 0
    assert f" / {resolved} resolutions," in capsys.readouterr().out


def test_t1_parser_defaults():
    args = build_parser().parse_args(["t1"])
    assert args.steering == "on"
    assert args.seed == 1
    assert args.cadence == 1.0
    assert args.stream is None


def test_fuzz_parser_accepts_stream():
    args = build_parser().parse_args(
        ["fuzz", "--stream", "f.jsonl", "--progress-every", "10"])
    assert args.stream == "f.jsonl"
    assert args.progress_every == 10

"""The benchmark's own checks: run with `python3 -m pytest perfbench` from the root."""

import io
import json
import random
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import gen
import run
import workloads
from scylla import asm, attacks, cli, engine, image
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
KEY = bytes(range(16))


@pytest.fixture(scope="module")
def corpus():
    return workloads.Corpus(ROOT)


@pytest.fixture(scope="module")
def corpus_pass(corpus, tmp_path_factory):
    """Corpus programs plus the committed scenarios, one repeat."""
    workdir = tmp_path_factory.mktemp("corpus")
    inputs = corpus.campaign(0, 0, workdir)
    committed = [op for op in inputs.attacks if op.must_detect]
    assert len(committed) == 6
    return workloads.run_pass(workloads.PassInputs(KEY, inputs.programs, committed), workdir)


def test_corpus_counts_match_manifest(corpus, corpus_pass):
    assert corpus_pass.mismatches == []
    fields = ("instructions", "blocks", "edges", "retired", "key_switches")
    expected = {name: {f: truth[f] for f in fields} for name, truth in corpus.manifest.items()}
    assert corpus_pass.counts == expected


def test_committed_scenarios_end_detected(corpus_pass):
    outcomes = [json.loads(rec[3]) for rec in corpus_pass.records if rec[0] == "attack"]
    assert len(outcomes) == 6
    assert all(o["detected"] and o["outcome"] == "integrity-fault" for o in outcomes)


def test_corpus_overhead_matches_cli_bench(corpus_pass):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["bench", str(ROOT / "corpus"), "--seed", KEY.hex(),
                         "--decrypt-cost", "1", "--switch-cost", "4"])
    assert code == 0
    rows = out.getvalue().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == [f"{o:.6f}" for o in corpus_pass.overheads]


@pytest.mark.parametrize("seed", range(6))
def test_loop_nest_ground_truth(seed, tmp_path):
    programs = [gen.loop_nest(random.Random(f"t{seed}:{i}"), f"p{i}") for i in range(3)]
    result = workloads.run_pass(workloads.PassInputs(KEY, [
        workloads.Program(p.name, p.source, p.retired, p.key_switches, {10: p.result})
        for p in programs], []), tmp_path)
    assert result.mismatches == []
    assert all(10_000 <= p.retired <= 60_000 for p in programs)
    assert [result.counts[p.name]["blocks"] for p in programs] == [p.blocks for p in programs]


def test_block_chain_ground_truth(tmp_path):
    p = gen.block_chain(random.Random("chain"), "c")
    result = workloads.run_pass(workloads.PassInputs(KEY, [
        workloads.Program(p.name, p.source, p.retired, p.key_switches, {10: p.result})], []),
        tmp_path)
    assert result.mismatches == []
    assert result.counts["c"]["blocks"] == p.blocks > 1024


def test_block_chain_analysis_work_is_steady_across_seeds():
    """diversification_report is quadratic in word repeats; seeds must not swing it."""
    pairs = []
    for seed in range(4):
        p = gen.block_chain(random.Random(f"steady{seed}"), "c")
        words = image.layout_image(asm.parse_assembly(p.source)).text_words()
        pairs.append(sum(n * (n - 1) // 2 for n in Counter(words).values()))
    assert max(pairs) < 1.25 * min(pairs)


def test_host_seconds_are_scaled_to_reference_speed():
    fast, slow = workloads.PassResult(), workloads.PassResult()
    for result, factor in ((fast, 1.0), (slow, 1.8)):
        result.times = {phase: factor * 0.5 for phase in workloads.PHASES}
        result.reference = {phase: factor * run.REFERENCE_S / 2 for phase in workloads.PHASES}
        result.retired = result.trials = 1000
    for results in ([fast], [slow]):
        values = run._host_metrics(results)
        assert values["setup_s"] == pytest.approx(1.0)
        assert values["plain_ips"] == values["trials_per_s"] == pytest.approx(1000.0)


def test_ground_truth_mismatch_is_counted(tmp_path):
    p = gen.loop_nest(random.Random("wrong"), "p")
    result = workloads.run_pass(workloads.PassInputs(KEY, [
        workloads.Program(p.name, p.source, p.retired + 1, p.key_switches, {10: p.result})],
        []), tmp_path)
    assert [m.split(":")[0] for m in result.mismatches] == ["p.plain", "p.enc"]


def test_injection_targets_hold_the_payload():
    size = len(attacks.hijack_payload(0x10000, attacks.DEFAULT_SENTINEL_VALUE))
    segments = [(0, 40), (0x10000, 24), (0x20000, 8)]
    for i in range(200):
        target = gen.injection_target(random.Random(i), segments, size)
        assert target % 4 == 0
        assert any(base <= target and target + size <= base + n for base, n in segments)
    assert gen.injection_target(random.Random(0), [(0, 12), (0x10000, 0)], size) is None


def test_fingerprint_repeats_and_survives_tracing(tmp_path):
    inputs = workloads.exec_loop(5, 0, tmp_path)
    inputs.programs = inputs.programs[:2]
    names = {p.name for p in inputs.programs}
    inputs.attacks = [op for op in inputs.attacks if op.label.split(".")[0] in names]
    first = workloads.run_pass(inputs, tmp_path)
    again = workloads.run_pass(inputs, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        traced = workloads.run_pass(inputs, tmp_path)
    finally:
        tracer.remove()
    prints = {workloads.fingerprint([r]) for r in (first, again, traced)}
    assert len(prints) == 1
    assert first.mismatches == first.failures == []
    layers = tracer.metrics()
    assert layers["engine.retired"][0] > 2 * first.retired      # plus the attack runs
    assert layers["attacks.trials"][0] == first.trials


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == [u for u, _ in run.END_TO_END.values()]
    layers = Tracer().metrics()
    assert [m["name"] for m in spec["per_layer"]] == [*layers, "trace.overhead"]
    assert [m["unit"] for m in spec["per_layer"]][:-1] == [u for _, u in layers.values()]


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "exec-loop", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_traced_run_fails_when_a_wrapped_name_is_gone(monkeypatch, capsys):
    decode = engine.decode
    monkeypatch.delattr(engine, "keystream_word")
    monkeypatch.delattr(engine.Memory, "load_word")
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.chdir(ROOT)
    with pytest.raises(LookupError, match=r"scylla\.engine\.keystream_word, "
                                          r"scylla\.engine\.Memory\.load_word"):
        run.main(["--workload", "exec-loop", "--seed", "1", "--seconds", "1", "--trace", "1"])
    assert capsys.readouterr().out == ""
    assert engine.decode is decode      # nothing left wrapped
    assert not (ROOT / ".perfbench_work").exists()

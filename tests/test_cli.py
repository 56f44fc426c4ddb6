import argparse
import hashlib
import json
import random
import shlex
import shutil
import struct
from collections import Counter
from pathlib import Path

import pytest

from scylla import cli
from scylla.cli import main
from scylla.engine import Engine

SEED = "000102030405060708090a0b0c0d0e0f"


@pytest.fixture()
def workdir(tmp_path, corpus_dir, monkeypatch):
    monkeypatch.delenv("SCYLLA_SEED", raising=False)
    for name in ("fib", "diamond"):
        (tmp_path / f"{name}.s").write_text((corpus_dir / f"{name}.s").read_text())
    return tmp_path


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def test_assemble_encrypt_run_pipeline(workdir, capsys):
    code, _ = run_cli(capsys, "assemble", workdir / "fib.s")
    assert code == 0
    assert (workdir / "fib.img").exists()

    code, _ = run_cli(capsys, "encrypt", workdir / "fib.img", "--seed", SEED)
    assert code == 0
    assert (workdir / "fib.eimg").exists()

    code, out = run_cli(capsys, "run", workdir / "fib.eimg")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "halt"
    assert doc["regs"]["x10"] == 55
    assert doc["counters"]["instructions_retired"] == 62
    assert doc["counters"]["key_switches"] == 13


def test_run_plaintext_image(workdir, capsys):
    run_cli(capsys, "assemble", workdir / "diamond.s")
    code, out = run_cli(capsys, "run", workdir / "diamond.img")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "halt"
    assert doc["counters"]["keystream_invocations"] == 0


def test_encrypt_deterministic(workdir, capsys):
    run_cli(capsys, "assemble", workdir / "fib.s")
    run_cli(capsys, "encrypt", workdir / "fib.img", "--seed", SEED,
            "--out", workdir / "a.eimg")
    run_cli(capsys, "encrypt", workdir / "fib.img", "--seed", SEED,
            "--out", workdir / "b.eimg")
    assert (workdir / "a.eimg").read_bytes() == (workdir / "b.eimg").read_bytes()


def test_encrypt_seed_from_env(workdir, capsys, monkeypatch):
    run_cli(capsys, "assemble", workdir / "fib.s")
    monkeypatch.setenv("SCYLLA_SEED", SEED)
    code, _ = run_cli(capsys, "encrypt", workdir / "fib.img",
                      "--out", workdir / "env.eimg")
    assert code == 0
    run_cli(capsys, "encrypt", workdir / "fib.img", "--seed", SEED,
            "--out", workdir / "flag.eimg")
    assert (workdir / "env.eimg").read_bytes() == (workdir / "flag.eimg").read_bytes()


def test_encrypt_without_seed_is_usage_error(workdir, capsys):
    run_cli(capsys, "assemble", workdir / "fib.s")
    with pytest.raises(SystemExit) as exc:
        main(["encrypt", str(workdir / "fib.img")])
    assert exc.value.code == 2


def test_bad_seed_is_usage_error(workdir, capsys):
    run_cli(capsys, "assemble", workdir / "fib.s")
    with pytest.raises(SystemExit) as exc:
        main(["encrypt", str(workdir / "fib.img"), "--seed", "abc"])
    assert exc.value.code == 2


def test_domain_error_exit_code(workdir, capsys):
    bad = workdir / "bad.s"
    bad.write_text("beq x1, x0, nowhere\necall\n")
    code = main(["assemble", str(bad)])
    assert code == 1


def test_attack_scenario_file(workdir, corpus_dir, capsys):
    run_cli(capsys, "assemble", workdir / "fib.s")
    run_cli(capsys, "encrypt", workdir / "fib.img", "--seed",
            "000000000000000000000000000000" + "2a")
    code, out = run_cli(capsys, "attack", workdir / "fib.eimg",
                        corpus_dir / "scenarios" / "rogue_fib.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["detected"] is True
    assert doc["outcome"] == "integrity-fault"
    assert doc["hijack_succeeded"] is False


def test_attack_batch_csv(workdir, capsys):
    run_cli(capsys, "assemble", workdir / "fib.s")
    run_cli(capsys, "encrypt", workdir / "fib.img", "--seed", SEED)
    code, out = run_cli(capsys, "attack", workdir / "fib.eimg",
                        "--kind", "rogue-edge", "--trials", "30",
                        "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "trial,detected,latency"
    assert len(rows) == 31


def test_attack_fault_is_still_exit_zero(workdir, corpus_dir, capsys):
    # faults are data: the tool succeeded at measuring one
    run_cli(capsys, "assemble", workdir / "fib.s")
    run_cli(capsys, "encrypt", workdir / "fib.img", "--seed",
            "000000000000000000000000000000" + "2a")
    code, out = run_cli(capsys, "attack", workdir / "fib.eimg",
                        corpus_dir / "scenarios" / "inject_fib_early.json")
    assert code == 0
    assert json.loads(out)["outcome"] == "integrity-fault"


_INJECT = (Path(__file__).resolve().parent.parent / "corpus" / "scenarios"
           / "inject_fib_early.json").read_text()


@pytest.mark.parametrize("text", [
    _INJECT.replace('"trigger_step": 4', '"trigger_step": "3"'),
    _INJECT.replace('"target": 65552', '"target": "16"'),
    "[1, 2]",
    _INJECT.replace('"payload_hex": "b702', '"payload_hex": "zz'),
    _INJECT.replace('"target": 65552', '"target": 1e3'),
    "kind: code-injection\n",
    "[" * 100_000 + "]" * 100_000,
    _INJECT.replace('"sentinel_addr": 65584', '"sentinel_addr": 3'),
    _INJECT.replace('"sentinel_addr": 65584', '"sentinel_addr": -4'),
    _INJECT.replace('"sentinel_value": 3237998146', '"sentinel_value": -1'),
    _INJECT.replace('"sentinel_value": 3237998146', '"sentinel_value": 8589934592'),
], ids=["string-trigger", "string-target", "not-an-object", "non-hex-payload",
        "float-target", "not-json", "nested-too-deep", "misaligned-sentinel",
        "negative-sentinel", "negative-sentinel-value", "sentinel-value-past-32-bits"])
def test_attack_rejects_malformed_scenario_file(workdir, capsys, text):
    run_cli(capsys, "assemble", workdir / "fib.s")
    run_cli(capsys, "encrypt", workdir / "fib.img", "--seed", SEED)
    assert text != _INJECT
    scenario = workdir / "scenario.json"
    scenario.write_text(text)
    code = main(["attack", str(workdir / "fib.eimg"), str(scenario)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("scylla: error:")


def test_analyze_outputs_report(workdir, capsys):
    run_cli(capsys, "assemble", workdir / "fib.s")
    run_cli(capsys, "encrypt", workdir / "fib.img", "--seed", SEED)
    code, out = run_cli(capsys, "analyze", workdir / "fib.img", workdir / "fib.eimg")
    assert code == 0
    doc = json.loads(out)
    assert doc["ciphertext_entropy"] > doc["plaintext_entropy"]
    assert doc["repeated_instruction_diversification"] == 1.0


def test_bench_rows_sorted(workdir, corpus_dir, capsys):
    code, out = run_cli(capsys, "bench", corpus_dir, "--seed", SEED,
                        "--decrypt-cost", "1", "--switch-cost", "4")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "program,retired,key_switches,plain_cycles,enc_cycles,overhead"
    names = [row.split(",")[0] for row in rows[1:]]
    assert names == sorted(names)
    assert len(names) >= 8
    fib_row = next(row for row in rows if row.startswith("fib,"))
    fields = fib_row.split(",")
    assert fields[1] == "62" and fields[2] == "13"
    assert float(fields[5]) == pytest.approx((62 + 52) / 62)


def test_run_human_format(workdir, capsys):
    run_cli(capsys, "assemble", workdir / "diamond.s")
    code, out = run_cli(capsys, "run", workdir / "diamond.img", "--format", "human")
    assert code == 0
    assert "outcome: halt" in out


@pytest.mark.parametrize("extra", [("--trials", "0"), ("--trials", "-3"),
                                   ("--trials", "99", "--curve", "curve.csv")])
def test_attack_trial_count_usage_errors(workdir, capsys, monkeypatch, extra):
    run_cli(capsys, "assemble", workdir / "fib.s")
    run_cli(capsys, "encrypt", workdir / "fib.img", "--seed", SEED)

    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran before the usage check")

    monkeypatch.setattr("scylla.cli.run_trials", no_trials)
    monkeypatch.chdir(workdir)
    with pytest.raises(SystemExit) as exc:
        main(["attack", str(workdir / "fib.eimg"), "--kind", "rogue-edge", *extra])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert not (workdir / "curve.csv").exists()


@pytest.mark.parametrize("source, extra", [
    ("fib.s", ["--text-base", "-4"]),
    ("fib.s", ["--text-base", "0xFFFFFFF0"]),   # block entries would pass 2^32
    ("low_data.s", []),
])
def test_assemble_outside_address_space_is_domain_error(workdir, capsys, source, extra):
    (workdir / "low_data.s").write_text(".data -8\n    .word 1\n.text\n    ecall\n")
    code = main(["assemble", str(workdir / source), *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    # a text base is a layout error; a negative .data base, an assembler error at its line
    error = "line 1: data base -0x8 " if source == "low_data.s" else "text ["
    assert captured.err.startswith("scylla: error: " + error)
    assert "outside the 32-bit address space" in captured.err
    assert not (workdir / source).with_suffix(".img").exists()


@pytest.mark.parametrize("suffix", ["img", "eimg"])
@pytest.mark.parametrize("field, value", [
    (12, 2),          # text_base not a multiple of 4
    (20, 246),        # text length not a multiple of 4
    (32, 10 ** 6),    # block records overrun the container
    (36, 10 ** 6),    # edge records overrun the container
    (24, 0),          # data_base 0: the data lies over the text
    (24, 0xFFFFFFF0), # the 64 data bytes run past 2^32
])
def test_run_rejects_malformed_container(workdir, capsys, suffix, field, value):
    run_cli(capsys, "assemble", workdir / "fib.s")
    run_cli(capsys, "encrypt", workdir / "fib.img", "--seed", SEED)
    path = workdir / f"fib.{suffix}"
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, field, value)
    path.write_bytes(bytes(blob))
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "scylla: error:" in captured.err


def test_encrypt_rejects_a_block_longer_than_the_offset_range(workdir, capsys, monkeypatch):
    # shrink the offset range below fib's longest block (5 words)
    run_cli(capsys, "assemble", workdir / "fib.s")
    monkeypatch.setattr("scylla.crypto.MAX_WORD_OFFSET", 4)
    code = main(["encrypt", str(workdir / "fib.img"), "--seed", SEED])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert captured.err.startswith("scylla: error: a block of 5 words exceeds the 4-word")
    assert not (workdir / "fib.eimg").exists()


@pytest.mark.parametrize("command", ["encrypt", "run"])
def test_forged_block_length_exits_at_once(workdir, capsys, command):
    # block 0 of fib.img claims 2^28 words: a keystream of that length would
    # take 1 GiB, so the load refuses the table before anything reads it
    run_cli(capsys, "assemble", workdir / "fib.s")
    path = workdir / "fib.img"
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 44, 1 << 28)
    path.write_bytes(bytes(blob))
    argv = [command, str(path)] + (["--seed", SEED] if command == "encrypt" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "block 1 starts at 0xc, not at 0x40000000" in captured.err
    assert not (workdir / "fib.eimg").exists()


def _mutants(blob: bytes, rng: random.Random, count: int):
    """`count` copies of blob, each truncated or with 1-3 bits flipped."""
    for _ in range(count):
        mutant = bytearray(blob)
        if rng.random() < 0.125:
            del mutant[rng.randrange(len(mutant)):]
        else:
            for _ in range(rng.randint(1, 3)):
                bit = rng.randrange(8 * len(mutant))
                mutant[bit // 8] ^= 1 << (bit % 8)
        yield bytes(mutant)


def test_mutated_containers_end_in_a_result_or_a_domain_error(workdir, capsys):
    run_cli(capsys, "assemble", workdir / "fib.s")
    run_cli(capsys, "encrypt", workdir / "fib.img", "--seed", SEED)
    rng = random.Random(7)
    path, out = workdir / "mutant.bin", workdir / "out.bin"
    codes = Counter()
    for name in ("fib.img", "fib.eimg"):
        # analyze reads the mutant in its own place, next to the intact partner
        pair = (path, workdir / "fib.eimg") if name == "fib.img" else (workdir / "fib.img", path)
        for mutant in _mutants((workdir / name).read_bytes(), rng, 150):
            path.write_bytes(mutant)
            # an exception other than a domain error escapes main as a traceback
            for argv in (["run", path, "--step-limit", 2000],
                         ["encrypt", path, "--seed", SEED, "--out", out],
                         ["attack", path, "--kind", "rogue-edge", "--trials", 5],
                         ["analyze", *pair]):
                codes[main([str(a) for a in argv])] += 1
                capsys.readouterr()
    assert set(codes) == {0, 1}


def test_mutated_sources_end_in_a_result_or_a_domain_error(workdir, corpus_dir, capsys):
    rng = random.Random(11)
    source, img, eimg = workdir / "mutant.s", workdir / "mutant.img", workdir / "mutant.eimg"
    codes, not_utf8 = Counter(), 0
    for path in sorted(corpus_dir.glob("*.s")):
        for mutant in _mutants(path.read_bytes(), rng, 30):
            source.write_bytes(mutant)
            # each stage reads the one before it, so the chain stops at the first error;
            # an exception other than a domain error escapes main as a traceback
            for argv in (["assemble", source, "--out", img],
                         ["encrypt", img, "--seed", SEED, "--out", eimg],
                         ["run", eimg, "--step-limit", 2000]):
                code = main([str(a) for a in argv])
                codes[code] += 1
                not_utf8 += "is not UTF-8 text" in capsys.readouterr().err
                if code:
                    break
    assert set(codes) == {0, 1}
    assert not_utf8 > 0


def test_attack_code_injection_campaign_needs_scenario_file(workdir, capsys, monkeypatch):
    run_cli(capsys, "assemble", workdir / "fib.s")
    run_cli(capsys, "encrypt", workdir / "fib.img", "--seed", SEED)
    runs = []

    def counting(name):
        method = getattr(Engine, name)

        def wrapped(self, *args, **kwargs):
            runs.append(name)
            return method(self, *args, **kwargs)
        return wrapped

    for name in ("run", "advance"):
        monkeypatch.setattr(Engine, name, counting(name))
    code = main(["attack", str(workdir / "fib.eimg"), "--kind", "code-injection",
                 "--trials", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "scenario file" in captured.err
    assert runs == []


SEED_B = "0x" + "F0E1D2C3B4A5968778695A4B3C2D1E0F"

# Every retained flag and value of every subcommand, run in order in a
# directory holding a copy of corpus/. Each step is (environment, argv).
GOLDEN_CLI_STEPS = [
    ({}, ["assemble", "corpus/fib.s"]),
    ({}, ["assemble", "corpus/diamond.s", "--out", "diamond.img"]),
    ({}, ["assemble", "corpus/loop_sum.s", "--text-base", "0x100", "--out", "loop.img"]),
    ({}, ["encrypt", "corpus/fib.img", "--seed", SEED]),
    ({"SCYLLA_SEED": SEED_B}, ["encrypt", "diamond.img", "--out", "diamond.eimg"]),
    ({"SCYLLA_SEED": SEED_B}, ["encrypt", "loop.img", "--seed", SEED, "--out", "loop.eimg"]),
    ({}, ["run", "corpus/fib.img"]),
    ({}, ["run", "corpus/fib.eimg", "--format", "human"]),
    ({}, ["run", "corpus/fib.img", "--format", "human", "--step-limit", "20"]),
    ({}, ["run", "diamond.eimg", "--format", "json", "--step-limit", "5",
          "--decrypt-cost", "3", "--switch-cost", "9"]),
    ({}, ["run", "loop.img", "--decrypt-cost", "2", "--switch-cost", "0",
          "--out", "run_loop.json"]),
    ({}, ["run", "loop.eimg", "--format", "human", "--decrypt-cost", "0",
          "--switch-cost", "7", "--out", "run_loop.txt"]),
    ({}, ["attack", "corpus/fib.eimg", "corpus/scenarios/rogue_fib.json"]),
    ({}, ["attack", "corpus/fib.eimg", "corpus/scenarios/inject_fib_early.json",
          "--format", "human", "--harness-seed", "7", "--step-limit", "300"]),
    ({}, ["attack", "corpus/fib.eimg", "corpus/scenarios/replay_fib.json",
          "--format", "json", "--harness-seed", "3", "--out", "replay.json"]),
    ({}, ["attack", "corpus/fib.eimg", "corpus/scenarios/midblock_fib_loop.json",
          "--format", "human", "--out", "midblock.txt"]),
    ({}, ["attack", "corpus/fib.eimg", "--kind", "rogue-edge", "--trials", "100",
          "--harness-seed", "5", "--step-limit", "500", "--curve", "rogue.curve.csv"]),
    ({}, ["attack", "corpus/fib.eimg", "--kind", "patch-replay", "--trials", "20",
          "--format", "csv", "--harness-seed", "2", "--out", "replay.csv"]),
    ({}, ["attack", "loop.eimg", "--kind", "mid-block-entry", "--trials", "120",
          "--format", "csv", "--curve", "mid.curve.csv"]),
    ({}, ["attack", "loop.eimg", "--kind", "rogue-edge", "--format", "json",
          "--out", "loop.trials.json"]),
    ({}, ["analyze", "corpus/fib.img", "corpus/fib.eimg"]),
    ({}, ["analyze", "diamond.img", "diamond.eimg", "--format", "human"]),
    ({}, ["analyze", "loop.img", "loop.eimg", "--format", "json", "--out", "an.json"]),
    ({}, ["bench", "corpus", "--seed", SEED, "--decrypt-cost", "2", "--switch-cost", "5"]),
    ({"SCYLLA_SEED": SEED_B}, ["bench", "corpus", "--step-limit", "2000",
                               "--out", "bench.csv"]),
]

# Computed before the per-subcommand parsers replaced the shared flags.
GOLDEN_CLI_SHA256 = "4c77b4ae32590ff17270ef1eba0112e674459a09542b7b3895e1b53a3c74ec7e"


def test_cli_outputs_match_golden(tmp_path, corpus_dir, monkeypatch, capsys):
    monkeypatch.delenv("SCYLLA_SEED", raising=False)
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for env, argv in GOLDEN_CLI_STEPS:
        with monkeypatch.context() as m:
            for name, value in env.items():
                m.setenv(name, value)
            code = main(argv)
        out = capsys.readouterr().out
        digest.update(repr((argv, code, out)).encode())
        for path in sorted(tmp_path.rglob("*")):
            if path.is_file():
                digest.update(repr((path.relative_to(tmp_path).as_posix(),
                                    hashlib.sha256(path.read_bytes()).hexdigest())).encode())
    assert digest.hexdigest() == GOLDEN_CLI_SHA256


@pytest.fixture()
def built(workdir, corpus_dir, capsys, monkeypatch):
    """fib.img, fib.eimg and a scenario file in the working directory."""
    monkeypatch.chdir(workdir)
    run_cli(capsys, "assemble", "fib.s")
    run_cli(capsys, "encrypt", "fib.img", "--seed", SEED)
    shutil.copy(corpus_dir / "scenarios" / "rogue_fib.json", workdir / "scenario.json")
    return workdir


# A working command per subcommand; each writes new.out and nothing else.
BASE_COMMANDS = {
    "assemble": ["assemble", "fib.s", "--out", "new.out"],
    "encrypt": ["encrypt", "fib.img", "--seed", SEED, "--out", "new.out"],
    "run": ["run", "fib.eimg", "--out", "new.out"],
    "attack": ["attack", "fib.eimg", "--kind", "rogue-edge", "--trials", "5",
               "--out", "new.out"],
    "analyze": ["analyze", "fib.img", "fib.eimg", "--out", "new.out"],
    "bench": ["bench", ".", "--seed", SEED, "--out", "new.out"],
}

# Flags each subcommand parsed and then ignored before they were removed.
REMOVED_FLAGS = [
    ("assemble", "--seed", SEED), ("assemble", "--step-limit", "10"),
    ("assemble", "--decrypt-cost", "1"), ("assemble", "--switch-cost", "4"),
    ("assemble", "--format", "json"),
    ("encrypt", "--step-limit", "10"), ("encrypt", "--decrypt-cost", "1"),
    ("encrypt", "--switch-cost", "4"), ("encrypt", "--format", "json"),
    ("run", "--seed", SEED),
    ("attack", "--seed", SEED), ("attack", "--decrypt-cost", "100"),
    ("attack", "--switch-cost", "4"),
    ("analyze", "--seed", SEED), ("analyze", "--step-limit", "10"),
    ("analyze", "--decrypt-cost", "1"), ("analyze", "--switch-cost", "4"),
    ("bench", "--format", "csv"),
]

REJECTED_COMBINATIONS = [
    ["attack", "fib.eimg", "--out", "new.out"],
    ["attack", "fib.eimg", "scenario.json", "--kind", "rogue-edge", "--out", "new.out"],
    ["attack", "fib.eimg", "scenario.json", "--trials", "7", "--out", "new.out"],
    ["attack", "fib.eimg", "scenario.json", "--curve", "new.csv"],
    ["attack", "fib.eimg", "scenario.json", "--kind", "rogue-edge", "--trials", "7",
     "--curve", "new.csv"],
    ["attack", "fib.eimg", "scenario.json", "--format", "csv", "--out", "new.out"],
    ["attack", "fib.eimg", "--kind", "rogue-edge", "--format", "human",
     "--out", "new.out"],
    ["run", "fib.eimg", "--format", "csv", "--out", "new.out"],
    ["analyze", "fib.img", "fib.eimg", "--format", "csv", "--out", "new.out"],
]


@pytest.mark.parametrize("command", sorted(BASE_COMMANDS))
def test_base_commands_write_their_output(built, capsys, command):
    code, out = run_cli(capsys, *BASE_COMMANDS[command])
    assert code == 0 and out == ""
    assert (built / "new.out").exists()


@pytest.mark.parametrize("argv", [BASE_COMMANDS[command] + [flag, value]
                                  for command, flag, value in REMOVED_FLAGS]
                         + REJECTED_COMBINATIONS, ids=" ".join)
def test_unread_flags_and_combinations_are_usage_errors(built, capsys, argv):
    before = sorted(built.iterdir())
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert sorted(built.iterdir()) == before


def test_seed_variable_is_read_only_by_seeded_commands(built, capsys, monkeypatch):
    monkeypatch.setenv("SCYLLA_SEED", "zz")
    for argv in (["assemble", "fib.s"], ["run", "fib.eimg"],
                 ["attack", "fib.eimg", "--kind", "rogue-edge", "--trials", "5"],
                 ["attack", "fib.eimg", "scenario.json"],
                 ["analyze", "fib.img", "fib.eimg"],
                 ["encrypt", "fib.img", "--seed", SEED]):
        assert run_cli(capsys, *argv)[0] == 0
    for argv in (["encrypt", "fib.img"], ["bench", ".", "--decrypt-cost", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def readme_commands() -> list[list[str]]:
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("scylla ")]


def test_readme_commands_run(tmp_path, corpus_dir, capsys, monkeypatch):
    monkeypatch.delenv("SCYLLA_SEED", raising=False)
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(BASE_COMMANDS)
    for argv in commands:
        assert main(argv) == 0, argv


# Steps run in order in one process, each (value of SCYLLA_SEED or None
# for unset, argv, expected exit code); the variable changes between calls.
SEED_ENV_STEPS = [
    (None, ["encrypt", "fib.img", "--out", "a.eimg"], 2),
    (SEED, ["encrypt", "fib.img", "--out", "a.eimg"], 0),
    (SEED_B, ["encrypt", "fib.img", "--out", "b.eimg"], 0),
    ("zz", ["encrypt", "fib.img", "--out", "c.eimg"], 2),
    ("zz", ["run", "b.eimg", "--format", "human"], 0),
    ("zz", ["bench", ".", "--out", "zz.csv"], 2),
    ("zz", ["encrypt", "fib.img", "--seed", SEED, "--out", "c.eimg"], 0),
    ("", ["encrypt", "fib.img", "--out", "d.eimg"], 2),
    (SEED, ["bench", ".", "--out", "bench.csv"], 0),
    (None, ["bench", ".", "--seed", SEED_B, "--out", "bench_b.csv"], 0),
    (SEED_B, ["attack", "a.eimg", "--kind", "rogue-edge", "--trials", "5"], 0),
    (None, ["analyze", "fib.img", "b.eimg"], 0),
    (None, ["encrypt", "fib.img"], 2),
]


def call_cli(capsys, argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one `main` call, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_seed_env_steps(directory, capsys, monkeypatch, *, fresh_parser: bool) -> list:
    monkeypatch.chdir(directory)
    results = []
    for value, argv, _ in SEED_ENV_STEPS:
        if value is None:
            monkeypatch.delenv("SCYLLA_SEED", raising=False)
        else:
            monkeypatch.setenv("SCYLLA_SEED", value)
        if fresh_parser:   # as if each call were its own process
            cli.build_parser.cache_clear()
        files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
        results.append((argv, call_cli(capsys, argv), files))
    return results


def test_seed_variable_changes_between_calls_in_one_process(built, capsys, monkeypatch):
    separate = built.parent / "separate"
    shutil.copytree(built, separate)
    together = built.parent / "together"
    shutil.copytree(built, together)
    expected = run_seed_env_steps(separate, capsys, monkeypatch, fresh_parser=True)
    got = run_seed_env_steps(together, capsys, monkeypatch, fresh_parser=False)
    assert got == expected
    assert [code for _, (code, _, _), _ in got] == [step[2] for step in SEED_ENV_STEPS]
    for (value, argv, code), (_, (_, out, err), _) in zip(SEED_ENV_STEPS, got):
        if code == 2:
            assert out == "" and "Traceback" not in err
            assert ("'zz'" in err) == (value == "zz"), argv
            assert argv[0] in ("encrypt", "bench"), argv


def test_usage_error_leaves_the_next_call_correct(built, capsys, monkeypatch):
    good = ["attack", "fib.eimg", "--kind", "patch-replay", "--trials", "7",
            "--format", "csv", "--harness-seed", "3"]
    cli.build_parser.cache_clear()
    reference = call_cli(capsys, good)
    assert reference[0] == 0 and reference[1]
    for bad in (["attack", "fib.eimg", "--kind", "rogue-edge", "--format", "human"],
                ["attack", "fib.eimg", "scenario.json", "--trials", "7"],
                ["attack", "fib.eimg", "--kind", "no-such-kind"],
                ["attack", "fib.eimg", "--kind", "rogue-edge", "--trials", "x"],
                ["run", "fib.eimg", "--seed", SEED],
                ["encrypt", "fib.img", "--seed", "zz"],
                ["frobnicate"],
                []):
        code, out, err = call_cli(capsys, bad)
        assert code == 2 and out == "" and "Traceback" not in err, bad
        assert call_cli(capsys, good) == reference, bad
    assert call_cli(capsys, ["run", "missing.eimg"])[0] == 1   # a domain error too
    assert call_cli(capsys, good) == reference


def test_parser_is_built_once_per_seed_value(built, capsys, monkeypatch):
    builds = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "scylla":   # the top-level parser, not a subcommand's
            builds.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    argv = ["run", "fib.eimg"]
    for value, total in ((None, 1), (None, 1), (SEED, 2), (SEED, 2), (None, 2),
                         ("", 2), (SEED_B, 3), (SEED, 3)):
        if value is None:
            monkeypatch.delenv("SCYLLA_SEED", raising=False)
        else:
            monkeypatch.setenv("SCYLLA_SEED", value)
        assert call_cli(capsys, argv)[0] == 0
        assert len(builds) == total, value

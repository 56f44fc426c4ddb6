import json

import pytest

from scylla.cli import main

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

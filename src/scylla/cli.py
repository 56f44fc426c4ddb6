"""Command-line pipeline: assemble, encrypt, run, attack, analyze, bench.

Each subcommand declares only the flags it reads, so any other flag is
a usage error. `attack` takes a scenario file or `--kind` trials, never
both; its counters use the default costs (1 and 4). `$SCYLLA_SEED`
stands in for `--seed`, which only `encrypt` and `bench` take.

Every command is deterministic given its flags and inputs; faults are
data, so a run that ends in an integrity fault still exits 0. Exit
code 1 means a domain error (bad program, malformed container), 2 a
usage error.

The parser is built once per process for each value of `$SCYLLA_SEED`,
which sets `--seed`'s default and whether the flag is required; `main`
reads the variable on every call, and argparse converts the default
when it parses. The parser holds the `cmd_*` functions only; they look
up the library functions they call through this module's globals when
they run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from functools import lru_cache
from pathlib import Path

from .analysis import (
    MIN_SURVIVAL_SAMPLES,
    MismatchError,
    diversification_report,
    fit_survival,
    write_survival_csv,
)
from .asm import AsmError, parse_assembly
from .attacks import (
    SCENARIO_KINDS,
    HarnessError,
    load_scenario,
    run_attack,
    run_trials,
    write_trials_csv,
)
from .cfg import AnalysisError
from .crypto import (
    EncryptedImage,
    KeyScheduleError,
    encrypt_pipeline,
    dump_encrypted_image,
    load_encrypted_image_bytes,
)
from .engine import (
    DEFAULT_DECRYPT_COST,
    DEFAULT_STEP_LIMIT,
    DEFAULT_SWITCH_COST,
    Engine,
    ReportError,
    overhead_report,
)
from .image import (
    FLAG_ENCRYPTED,
    ImageFormatError,
    LayoutError,
    container_flags,
    dump_image,
    layout_image,
    load_image_bytes,
    parse_container,   # unused here but stays importable: perfbench/tracer.py wraps it by name
)
from .isa import exact_valid_decode_fraction

SEED_ENV = "SCYLLA_SEED"

DOMAIN_ERRORS = (AsmError, AnalysisError, LayoutError, ImageFormatError,
                 KeyScheduleError, HarnessError, ReportError, MismatchError,
                 FileNotFoundError, IsADirectoryError)


def _seed(text: str) -> bytes:
    cleaned = text.strip().lower().removeprefix("0x")
    if len(cleaned) != 32 or any(c not in "0123456789abcdef" for c in cleaned):
        raise argparse.ArgumentTypeError(
            f"must be exactly 32 hex digits (from --seed or ${SEED_ENV}), got {text!r}")
    return bytes.fromhex(cleaned)


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_doc(doc: dict, args) -> None:
    if args.format == "human":
        _emit(_humanize(doc) + "\n", args.out)
    else:
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)


def _humanize(doc: dict, indent: str = "") -> str:
    lines = []
    for key, value in doc.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_humanize(value, indent + "  "))
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines)


def _load_any_image(path: str):
    """The Image or EncryptedImage in a container, by its flag; the loader
    parses and validates the whole container once."""
    blob = Path(path).read_bytes()
    if container_flags(blob) & FLAG_ENCRYPTED:
        return load_encrypted_image_bytes(blob)
    return load_image_bytes(blob)


def cmd_assemble(args, parser) -> int:
    program = parse_assembly(Path(args.source).read_text())
    image = layout_image(program, text_base=args.text_base)
    out = args.out or str(Path(args.source).with_suffix(".img"))
    Path(out).write_bytes(dump_image(image))
    return 0


def cmd_encrypt(args, parser) -> int:
    image = load_image_bytes(Path(args.image).read_bytes())
    eimage = encrypt_pipeline(image, args.seed)
    out = args.out or str(Path(args.image).with_suffix(".eimg"))
    Path(out).write_bytes(dump_encrypted_image(eimage))
    return 0


def cmd_run(args, parser) -> int:
    engine = Engine(_load_any_image(args.image),
                    decrypt_cost=args.decrypt_cost, switch_cost=args.switch_cost)
    report = engine.run(args.step_limit)
    doc = report.to_json_dict()
    doc["regs"] = {f"x{i}": value
                   for i, value in enumerate(engine.state.regs) if value}
    _emit_doc(doc, args)
    return 0


def cmd_attack(args, parser) -> int:
    if args.scenario is not None:
        if args.trials is not None or args.curve is not None or args.format == "csv":
            parser.error("a scenario file takes no --trials, --curve or --format csv")
    elif args.format == "human":
        parser.error("--kind writes --format json or csv")
    trials = 100 if args.trials is None else args.trials
    if trials < 1:
        parser.error("--trials must be positive")
    if args.curve and trials < MIN_SURVIVAL_SAMPLES:
        parser.error(f"--curve needs --trials of at least {MIN_SURVIVAL_SAMPLES}")
    eimage = _load_any_image(args.image)
    if not isinstance(eimage, EncryptedImage):
        raise HarnessError("attack needs an encrypted image (.eimg)")
    if args.scenario is not None:
        scenario = load_scenario(args.scenario)
        outcome = run_attack(eimage, scenario, seed=args.harness_seed,
                             step_limit=args.step_limit)
        _emit_doc(outcome.to_json_dict(), args)
        return 0
    outcomes = run_trials(eimage, args.kind, trials, seed=args.harness_seed,
                          step_limit=args.step_limit)
    if args.curve:
        latencies = [o.censored_latency(args.step_limit) for o in outcomes]
        fit = fit_survival(latencies, exact_valid_decode_fraction())
        with open(args.curve, "w", newline="") as fh:
            write_survival_csv(fit, fh)
    if args.format == "json":
        _emit_doc({"trials": [o.to_json_dict() for o in outcomes]}, args)
    else:
        buf = io.StringIO()
        write_trials_csv(outcomes, buf, step_limit=args.step_limit)
        _emit(buf.getvalue(), args.out)
    return 0


def cmd_analyze(args, parser) -> int:
    image = _load_any_image(args.image)
    if isinstance(image, EncryptedImage):
        raise MismatchError("first operand must be the plaintext image")
    eimage = _load_any_image(args.eimage)
    if not isinstance(eimage, EncryptedImage):
        raise MismatchError("second operand must be the encrypted image")
    report = diversification_report(image, eimage)
    _emit_doc(report.to_json_dict(), args)
    return 0


def cmd_bench(args, parser) -> int:
    sources = sorted(Path(args.corpus).glob("*.s"))
    if not sources:
        raise HarnessError(f"no .s files under {args.corpus}")
    costs = {"decrypt_cost": args.decrypt_cost, "switch_cost": args.switch_cost}
    rows = []
    for path in sources:
        image = layout_image(parse_assembly(path.read_text()))
        eimage = encrypt_pipeline(image, args.seed)
        plain = Engine(image, **costs).run(args.step_limit)
        enc = Engine(eimage, **costs).run(args.step_limit)
        overhead = overhead_report(plain, enc, args.decrypt_cost, args.switch_cost)
        rows.append((path.stem, plain.counters.instructions_retired,
                     enc.counters.key_switches, plain.counters.cycles,
                     enc.counters.cycles, f"{overhead:.6f}"))
    lines = ["program,retired,key_switches,plain_cycles,enc_cycles,overhead"]
    lines += [",".join(str(field) for field in row) for row in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


@lru_cache
def build_parser(env_seed: str | None) -> argparse.ArgumentParser:
    """The parser for `main`, given the value of `$SCYLLA_SEED` (None if
    unset or empty); cached, so each value builds it once per process."""
    parser = argparse.ArgumentParser(
        prog="scylla",
        description="Execution-integrity laboratory: encrypt programs per "
                    "basic block, run them on a fetch-decrypting simulator, "
                    "attack them, and measure the fallout.")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--seed": dict(type=_seed, default=env_seed, required=env_seed is None,
                       help=f"128-bit hex key seed (default ${SEED_ENV})"),
        "--step-limit": dict(type=_non_negative, default=DEFAULT_STEP_LIMIT),
        "--decrypt-cost": dict(type=_non_negative, default=DEFAULT_DECRYPT_COST,
                               help="cycles charged per fetch decryption"),
        "--switch-cost": dict(type=_non_negative, default=DEFAULT_SWITCH_COST,
                              help="cycles charged per key switch"),
        "--format": dict(choices=("json", "human"), default="json"),
        "--out": dict(help="output path (default stdout or derived)"),
    }

    def command(name, func, help, positionals, names):
        p = sub.add_parser(name, help=help)
        for positional in positionals:
            p.add_argument(positional)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func)
        return p

    costs = ["--decrypt-cost", "--switch-cost"]
    p = command("assemble", cmd_assemble, "parse .s source into a .img container",
                ["source"], ["--out"])
    p.add_argument("--text-base", type=lambda v: int(v, 0), default=0)
    command("encrypt", cmd_encrypt, "encrypt a .img into a .eimg",
            ["image"], ["--seed", "--out"])
    command("run", cmd_run, "execute a .img or .eimg",
            ["image"], ["--step-limit", *costs, "--format", "--out"])
    p = command("attack", cmd_attack, "run a scenario or randomized trials",
                ["image"], ["--step-limit", "--out"])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("scenario", nargs="?", help="scenario JSON file")
    mode.add_argument("--kind", choices=SCENARIO_KINDS, help="or randomized trials")
    p.add_argument("--trials", type=int, help="number of --kind trials (default 100)")
    p.add_argument("--harness-seed", type=int, default=0)
    p.add_argument("--curve", help="with --kind, also write a survival-curve CSV here")
    p.add_argument("--format", choices=("json", "csv", "human"), default="json",
                   help="csv with --kind only, human with a scenario file only")
    command("analyze", cmd_analyze, "diversification report for img/eimg pair",
            ["image", "eimage"], ["--format", "--out"])
    command("bench", cmd_bench, "overhead table over a corpus directory",
            ["corpus"], ["--seed", "--step-limit", *costs, "--out"])
    return parser


def main(argv=None) -> int:
    parser = build_parser(os.environ.get(SEED_ENV) or None)
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except DOMAIN_ERRORS as exc:
        print(f"scylla: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

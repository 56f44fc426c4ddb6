"""Command-line pipeline: assemble, encrypt, run, attack, analyze, bench.

Every command is deterministic given its flags and inputs; faults are
data, so a run that ends in an integrity fault still exits 0. Exit
code 1 means a domain error (bad program, malformed container), 2 a
usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import dataclass
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
    KeyScheduleError,
    encrypt_pipeline,
    dump_encrypted_image,
    load_encrypted_image_bytes,
)
from .engine import (
    DEFAULT_DECRYPT_COST,
    DEFAULT_STEP_LIMIT,
    DEFAULT_SWITCH_COST,
    ReportError,
    encrypted_engine,
    overhead_report,
    plaintext_engine,
    run_encrypted,
    run_plaintext,
)
from .image import (
    FLAG_ENCRYPTED,
    ImageFormatError,
    LayoutError,
    dump_image,
    layout_image,
    load_image_bytes,
    parse_container,
)
from .isa import exact_valid_decode_fraction

SEED_ENV = "SCYLLA_SEED"

DOMAIN_ERRORS = (AsmError, AnalysisError, LayoutError, ImageFormatError,
                 KeyScheduleError, HarnessError, ReportError, MismatchError,
                 FileNotFoundError, IsADirectoryError)


@dataclass
class CliConfig:
    seed: bytes | None
    step_limit: int
    decrypt_cost: int
    switch_cost: int
    out: str | None
    format: str


def _parse_seed(text: str, parser: argparse.ArgumentParser) -> bytes:
    cleaned = text.strip().lower().removeprefix("0x")
    if len(cleaned) != 32 or any(c not in "0123456789abcdef" for c in cleaned):
        parser.error(f"--seed must be exactly 32 hex digits, got {text!r}")
    return bytes.fromhex(cleaned)


def _config(args, parser) -> CliConfig:
    seed = None
    raw = args.seed if getattr(args, "seed", None) else os.environ.get(SEED_ENV)
    if raw:
        seed = _parse_seed(raw, parser)
    if args.decrypt_cost < 0 or args.switch_cost < 0:
        parser.error("cost parameters must be non-negative")
    if args.step_limit < 0:
        parser.error("--step-limit must be non-negative")
    return CliConfig(seed=seed, step_limit=args.step_limit,
                     decrypt_cost=args.decrypt_cost, switch_cost=args.switch_cost,
                     out=args.out, format=args.format)


def _emit(text: str, config: CliConfig) -> None:
    if config.out:
        Path(config.out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_doc(doc: dict, config: CliConfig) -> None:
    if config.format == "human":
        _emit(_humanize(doc) + "\n", config)
    else:
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", config)


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
    """Returns ('plain', Image) or ('encrypted', EncryptedImage) by container flag."""
    blob = Path(path).read_bytes()
    _, flags, _ = parse_container(blob)
    if flags & FLAG_ENCRYPTED:
        return "encrypted", load_encrypted_image_bytes(blob)
    return "plain", load_image_bytes(blob)


def cmd_assemble(args, parser) -> int:
    config = _config(args, parser)
    program = parse_assembly(Path(args.source).read_text())
    image = layout_image(program, text_base=args.text_base)
    out = config.out or str(Path(args.source).with_suffix(".img"))
    Path(out).write_bytes(dump_image(image))
    return 0


def cmd_encrypt(args, parser) -> int:
    config = _config(args, parser)
    if config.seed is None:
        parser.error(f"encrypt needs --seed or ${SEED_ENV}")
    image = load_image_bytes(Path(args.image).read_bytes())
    eimage = encrypt_pipeline(image, config.seed)
    out = config.out or str(Path(args.image).with_suffix(".eimg"))
    Path(out).write_bytes(dump_encrypted_image(eimage))
    return 0


def cmd_run(args, parser) -> int:
    config = _config(args, parser)
    costs = {"decrypt_cost": config.decrypt_cost, "switch_cost": config.switch_cost}
    kind, image = _load_any_image(args.image)
    if kind == "encrypted":
        engine = encrypted_engine(image, **costs)
    else:
        engine = plaintext_engine(image, **costs)
    report = engine.run(config.step_limit)
    doc = report.to_json_dict()
    doc["regs"] = {f"x{i}": value
                   for i, value in enumerate(engine.state.regs) if value}
    _emit_doc(doc, config)
    return 0


def cmd_attack(args, parser) -> int:
    config = _config(args, parser)
    kind, eimage = _load_any_image(args.image)
    if kind != "encrypted":
        raise HarnessError("attack needs an encrypted image (.eimg)")
    if args.scenario:
        scenario = load_scenario(args.scenario)
        outcome = run_attack(eimage, scenario, seed=args.harness_seed,
                             step_limit=config.step_limit)
        _emit_doc(outcome.to_json_dict(), config)
        return 0
    if not args.kind:
        parser.error("attack needs a scenario file or --kind/--trials")
    if args.trials < 1:
        parser.error("--trials must be positive")
    if args.curve and args.trials < MIN_SURVIVAL_SAMPLES:
        parser.error(f"--curve needs --trials of at least {MIN_SURVIVAL_SAMPLES}")
    outcomes = run_trials(eimage, args.kind, args.trials, seed=args.harness_seed,
                          step_limit=config.step_limit)
    if args.curve:
        latencies = [o.censored_latency(config.step_limit) for o in outcomes]
        fit = fit_survival(latencies, exact_valid_decode_fraction())
        with open(args.curve, "w", newline="") as fh:
            write_survival_csv(fit, fh)
    if config.format == "json":
        _emit_doc({"trials": [o.to_json_dict() for o in outcomes]}, config)
    else:
        buf = io.StringIO()
        write_trials_csv(outcomes, buf, step_limit=config.step_limit)
        _emit(buf.getvalue(), config)
    return 0


def cmd_analyze(args, parser) -> int:
    config = _config(args, parser)
    kind, image = _load_any_image(args.image)
    if kind != "plain":
        raise MismatchError("first operand must be the plaintext image")
    ekind, eimage = _load_any_image(args.eimage)
    if ekind != "encrypted":
        raise MismatchError("second operand must be the encrypted image")
    report = diversification_report(image, eimage)
    _emit_doc(report.to_json_dict(), config)
    return 0


def cmd_bench(args, parser) -> int:
    config = _config(args, parser)
    if config.seed is None:
        parser.error(f"bench needs --seed or ${SEED_ENV}")
    sources = sorted(Path(args.corpus).glob("*.s"))
    if not sources:
        raise HarnessError(f"no .s files under {args.corpus}")
    costs = {"decrypt_cost": config.decrypt_cost, "switch_cost": config.switch_cost}
    rows = []
    for path in sources:
        image = layout_image(parse_assembly(path.read_text()))
        eimage = encrypt_pipeline(image, config.seed)
        plain = run_plaintext(image, step_limit=config.step_limit, **costs)
        enc = run_encrypted(eimage, step_limit=config.step_limit, **costs)
        overhead = overhead_report(plain, enc, config.decrypt_cost, config.switch_cost)
        rows.append((path.stem, plain.counters.instructions_retired,
                     enc.counters.key_switches, plain.counters.cycles,
                     enc.counters.cycles, f"{overhead:.6f}"))
    lines = ["program,retired,key_switches,plain_cycles,enc_cycles,overhead"]
    lines += [",".join(str(field) for field in row) for row in rows]
    _emit("\n".join(lines) + "\n", config)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scylla",
        description="Execution-integrity laboratory: encrypt programs per "
                    "basic block, run them on a fetch-decrypting simulator, "
                    "attack them, and measure the fallout.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", help=f"128-bit hex key seed (default ${SEED_ENV})")
        p.add_argument("--step-limit", type=int, default=DEFAULT_STEP_LIMIT)
        p.add_argument("--decrypt-cost", type=int, default=DEFAULT_DECRYPT_COST,
                       help="cycles charged per fetch decryption")
        p.add_argument("--switch-cost", type=int, default=DEFAULT_SWITCH_COST,
                       help="cycles charged per key switch")
        p.add_argument("--format", choices=("json", "csv", "human"), default="json")
        p.add_argument("--out", help="output path (default stdout or derived)")

    p = sub.add_parser("assemble", help="parse .s source into a .img container")
    p.add_argument("source")
    p.add_argument("--text-base", type=lambda v: int(v, 0), default=0)
    common(p)
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("encrypt", help="encrypt a .img into a .eimg")
    p.add_argument("image")
    common(p)
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("run", help="execute a .img or .eimg")
    p.add_argument("image")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("attack", help="run a scenario or randomized trials")
    p.add_argument("image")
    p.add_argument("scenario", nargs="?", help="scenario JSON file")
    p.add_argument("--kind", choices=SCENARIO_KINDS)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--harness-seed", type=int, default=0)
    p.add_argument("--curve", help="also write a survival-curve CSV here")
    common(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("analyze", help="diversification report for img/eimg pair")
    p.add_argument("image")
    p.add_argument("eimage")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench", help="overhead table over a corpus directory")
    p.add_argument("corpus")
    common(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except DOMAIN_ERRORS as exc:
        print(f"scylla: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

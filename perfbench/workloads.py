"""Workload inputs and the shared repeat that runs and checks them.

A repeat ("pass") takes one PassInputs: programs with independent ground
truth and a list of CLI attack invocations. It runs five phases in order,
timing each library or CLI call on its own (checks and bookkeeping stay
outside the timed calls):

  setup    parse -> layout -> dump .img -> encrypt -> dump .eimg -> load
           both containers from the dumped bytes (the .eimg is then written
           for the CLI, untimed)
  plain    plaintext_engine(image).run()
  enc      encrypted_engine(eimage).run()
  analyze  diversification_report(image, eimage)
  attack   scylla.cli.main(["attack", ...]) per invocation

Around and inside the phases the pass times a fixed chunk of pure-Python
work (`reference_s`, `_Speed`), so every phase's host time comes with the
host's speed measured just before, during and just after it.

Every repeat uses fresh encryption keys, and the exec workloads also use
fresh programs, so no fetch input of one repeat reappears in the next.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from scylla import analysis, asm, attacks, cli, crypto, engine, image

import gen

KINDS = attacks.SCENARIO_KINDS
COSTS = (1, 4)                  # decrypt cost, switch cost of modelled_overhead
CAMPAIGN_TRIALS = 100           # fit_survival needs at least 100 samples
SHORT_CURVE_TRIALS = 50         # below that minimum, see NOTES.md
EARLY_TRIGGER = 2048            # exec workloads attack within the first 2048 steps
# Step limits bound the cost of an attack that is never detected. Under some
# keys a wrong-key prefix re-synchronises with the correct keystream and the
# run loops on corrupted registers; at the CLI default of 10**6 steps, one
# such campaign took minutes. Every corpus program halts within 300 steps.
CORPUS_STEP_LIMIT = 4096
CENSUS_P = 117_637_121 / 2 ** 32
FAULTS = (engine.INTEGRITY_FAULT, engine.MEMORY_FAULT)
PHASES = ("setup", "plain", "enc", "analyze", "attack")
REFERENCE_EVERY_S = 0.1         # longest stretch of a phase without a reference chunk


@dataclass
class Program:
    name: str
    source: str
    retired: int
    key_switches: int
    regs: dict[int, int]        # register index -> expected final value


@dataclass
class AttackOp:
    label: str
    argv: list[str]
    trials: int                 # trials the invocation reports when it succeeds
    curve: str | None = None
    must_detect: bool = False


@dataclass
class PassInputs:
    key: bytes
    programs: list[Program]
    attacks: list[AttackOp]


@dataclass
class PassResult:
    times: dict[str, float] = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    # phase -> mean host seconds of the reference chunks around and inside it
    reference: dict[str, float] = field(default_factory=dict)
    retired: int = 0            # by the plaintext runs; encrypted runs retire the same
    trials: int = 0
    detected: int = 0
    hijacked: int = 0
    latency_sum: int = 0
    overheads: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    records: list = field(default_factory=list)    # simulated outputs, fingerprinted
    counts: dict = field(default_factory=dict)     # program -> structural counts

    def fail(self, label: str, reason: str, mismatch: bool) -> None:
        self.failures.append(f"{label}: {reason}")
        if mismatch:
            self.mismatches.append(f"{label}: {reason}")


# -- inputs ------------------------------------------------------------------

def _rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


def _scenario_file(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _injection(rng, segments, sentinel) -> dict | None:
    payload = attacks.hijack_payload(sentinel, attacks.DEFAULT_SENTINEL_VALUE)
    target = gen.injection_target(rng, segments, len(payload))
    if target is None:
        return None
    return {"kind": attacks.CODE_INJECTION, "target": target,
            "payload_hex": payload.hex(), "sentinel_addr": sentinel}


def _early_attacks(rng, workdir: Path, prog: gen.Generated, eimg: str,
                   per_kind: int) -> list[AttackOp]:
    """Scenario files for every kind, triggered within the first steps.

    Triggers are stratified: one per equal slice of the trigger range, in
    random order, so the prefix work of a pass barely varies between passes.
    """
    segments = [(0, prog.text_bytes), (prog.data_base, prog.data_bytes)]
    limit = min(prog.retired, EARLY_TRIGGER)
    count = len(KINDS) * per_kind
    triggers = [int((j + rng.random()) * limit / count) for j in range(count)]
    rng.shuffle(triggers)
    ops = []
    for kind in KINDS:
        for i in range(per_kind):
            if kind == attacks.CODE_INJECTION:
                doc = _injection(rng, segments, prog.scratch_addr)
            else:
                doc = {"kind": kind, "sentinel_addr": prog.scratch_addr}
            doc["trigger_step"] = triggers.pop()
            label = f"{prog.name}.{kind}.{i}"
            path = _scenario_file(workdir, label, doc)
            ops.append(AttackOp(label, [
                "attack", eimg, path, "--harness-seed", str(rng.getrandbits(32)),
                "--step-limit", str(2 * prog.retired)], trials=1))
    return ops


def _generated(seed, workload, index, workdir, make, count, per_kind) -> PassInputs:
    rng = _rng(seed, workload, index)
    programs, ops = [], []
    for i in range(count):
        prog = make(rng, f"p{index}_{i}")
        programs.append(Program(prog.name, prog.source, prog.retired,
                                prog.key_switches, {10: prog.result}))
        ops += _early_attacks(rng, workdir, prog, str(workdir / f"{prog.name}.eimg"),
                              per_kind)
    return PassInputs(rng.randbytes(16), programs, ops)


def exec_loop(seed: int, index: int, workdir: Path) -> PassInputs:
    return _generated(seed, "exec-loop", index, workdir, gen.loop_nest, 4, 2)


def exec_sprawl(seed: int, index: int, workdir: Path) -> PassInputs:
    return _generated(seed, "exec-sprawl", index, workdir, gen.block_chain, 1, 4)


class Corpus:
    """The committed corpus, its manifest and the committed scenarios."""

    def __init__(self, root: Path):
        self.dir = root / "corpus"
        self.manifest = json.loads((self.dir / "manifest.json").read_text())["programs"]
        self.sources = {name: (self.dir / f"{name}.s").read_text()
                        for name in sorted(self.manifest)}
        self.scenarios = sorted(str(p) for p in (self.dir / "scenarios").glob("*.json"))
        self.segments = {}
        for name, source in self.sources.items():
            img = image.layout_image(asm.parse_assembly(source))
            self.segments[name] = [(img.text_base, len(img.text)),
                                   (img.data_base, len(img.data))]

    def programs(self) -> list[Program]:
        return [Program(name, self.sources[name], truth["retired"], truth["key_switches"],
                        {int(reg[1:]): value for reg, value in truth["regs"].items()})
                for name, truth in self.manifest.items()]

    def campaign(self, seed: int, index: int, workdir: Path) -> PassInputs:
        rng = _rng(seed, "attack-campaign", index)
        ops = []
        for name in self.sources:
            eimg = str(workdir / f"{name}.eimg")
            for kind in KINDS:
                label = f"{name}.{kind}"
                ops.append(AttackOp(label, [
                    "attack", eimg, "--kind", kind, "--trials", str(CAMPAIGN_TRIALS),
                    "--harness-seed", str(rng.getrandbits(32)),
                    "--step-limit", str(CORPUS_STEP_LIMIT),
                    "--curve", str(workdir / f"{label}.curve.csv")],
                    trials=CAMPAIGN_TRIALS, curve=str(workdir / f"{label}.curve.csv")))
            text, data = self.segments[name]
            sentinel = data[0] if data[1] >= 4 else text[0]
            for i in range(2):
                doc = _injection(rng, [text, data], sentinel)
                if doc is None:     # no mapped segment can hold the payload
                    break
                doc["trigger_step"] = rng.randrange(self.manifest[name]["retired"])
                label = f"{name}.inject.{i}"
                ops.append(AttackOp(label, ["attack", eimg, _scenario_file(workdir, label, doc),
                                            "--step-limit", str(CORPUS_STEP_LIMIT)], trials=1))
        ops.append(AttackOp("fib.short-curve", [
            "attack", str(workdir / "fib.eimg"), "--kind", attacks.ROGUE_EDGE,
            "--trials", str(SHORT_CURVE_TRIALS), "--harness-seed", str(rng.getrandbits(32)),
            "--step-limit", str(CORPUS_STEP_LIMIT),
            "--curve", str(workdir / "short.curve.csv")],
            trials=SHORT_CURVE_TRIALS, curve=str(workdir / "short.curve.csv")))
        for path in self.scenarios:
            ops.append(AttackOp(f"fib.{Path(path).stem}",
                                ["attack", str(workdir / "fib.eimg"), path,
                                 "--step-limit", str(CORPUS_STEP_LIMIT)],
                                trials=1, must_detect=True))
        return PassInputs(rng.randbytes(16), self.programs(), ops)


# -- one repeat ----------------------------------------------------------------

class _Counter:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def step(self, amount: int) -> int:
        self.value = (self.value + amount) & 0xFFFF
        return self.value


_REFERENCE_TABLE = dict.fromkeys(range(1024), 0)
_REFERENCE_ITEMS = list(range(2048))
_REFERENCE_COUNTER = _Counter()


def reference_s() -> float:
    """Host seconds that one fixed chunk of pure-Python work takes now.

    The chunk mixes the interpreter work of the phases it is set beside:
    integer arithmetic with dict reads and writes (the engine), list
    indexing and comparisons (the analysis), and method calls with
    attribute access (everything). The VM's slow speed slows each kind of
    work by a different factor, 1.45-1.85x; the mix follows every phase
    more closely than any one kind. It allocates no containers, so the
    garbage collector never runs inside it, and it calls nothing in scylla.
    """
    table, items, counter = _REFERENCE_TABLE, _REFERENCE_ITEMS, _REFERENCE_COUNTER
    acc = differ = 0
    start = perf_counter()
    for i in range(10_000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        table[acc & 1023] += 1
    for _ in range(8):
        for i, item in enumerate(items):
            if items[(i * 7) & 2047] != item:
                differ += 1
    for i in range(10_000):
        acc ^= counter.step(i)
    return perf_counter() - start


class _Speed:
    """Reference chunks timed around and inside the phases of one pass.

    One chunk is timed before the first phase, after each phase, and
    between two operations of a phase once REFERENCE_EVERY_S has passed
    since the last chunk, so a long phase is sampled all through.
    """

    def __init__(self, result: PassResult):
        self.result = result
        self.samples = [reference_s()]
        self.first = 0
        self.since = perf_counter()

    def _sample(self) -> None:
        self.samples.append(reference_s())
        self.since = perf_counter()

    def every(self, items):
        for item in items:
            yield item
            if perf_counter() - self.since >= REFERENCE_EVERY_S:
                self._sample()

    def close(self, phase: str) -> None:
        """Record the phase's reference: the mean chunk from just before to just after it."""
        self._sample()
        chunks = self.samples[self.first:]
        self.result.reference[phase] = sum(chunks) / len(chunks)
        self.first = len(self.samples) - 1


def run_pass(inputs: PassInputs, workdir: Path) -> PassResult:
    result = PassResult()
    speed = _Speed(result)
    loaded = []
    for prog in speed.every(inputs.programs):
        pair = _guard(result, f"{prog.name}.setup", _setup, prog, inputs.key, workdir)
        if pair is not None:
            loaded.append((prog, *pair))
    speed.close("setup")
    plain = {prog.name: _guard(result, f"{prog.name}.plain", _execute, prog, "plain",
                               engine.plaintext_engine, img)
             for prog, img, _ in speed.every(loaded)}
    speed.close("plain")
    for prog, _, eimg in speed.every(loaded):
        enc = _guard(result, f"{prog.name}.enc", _execute, prog, "enc",
                     engine.encrypted_engine, eimg, plain[prog.name])
        if enc is not None and plain[prog.name] is not None:
            result.overheads.append(engine.overhead_report(plain[prog.name], enc, *COSTS))
    speed.close("enc")
    for prog, img, eimg in speed.every(loaded):
        _guard(result, f"{prog.name}.analyze", _analyze, prog, img, eimg)
    speed.close("analyze")
    for op in speed.every(inputs.attacks):
        _attack(result, op)
    speed.close("attack")
    return result


def _guard(result: PassResult, label: str, op, *args):
    """Run one library operation; an exception out of it is a failed operation."""
    try:
        return op(result, *args)
    except Exception as exc:
        result.fail(label, f"{type(exc).__name__}: {exc}", True)
        return None


def _analyze(result: PassResult, prog: Program, img, eimg) -> None:
    result.attempted += 1
    start = perf_counter()
    report = analysis.diversification_report(img, eimg)
    result.times["analyze"] += perf_counter() - start
    doc = report.to_json_dict()
    result.records.append(("analyze", prog.name, doc))
    if not (0 <= doc["repeated_instruction_diversification"] <= 1
            and 0 < doc["ciphertext_entropy"] <= 8
            and doc["valid_decode_p"] == CENSUS_P):
        result.fail(f"{prog.name}.analyze", "report out of range", True)


def _setup(result: PassResult, prog: Program, key: bytes, workdir: Path):
    result.attempted += 1
    start = perf_counter()
    parsed = asm.parse_assembly(prog.source)
    img = image.layout_image(parsed)
    blob = image.dump_image(img)
    eimg = crypto.encrypt_pipeline(img, key)
    eblob = crypto.dump_encrypted_image(eimg)
    loaded_img = image.load_image_bytes(blob)
    loaded_eimg = crypto.load_encrypted_image_bytes(eblob)
    result.times["setup"] += perf_counter() - start
    # the attack phase's CLI reads the .eimg file; file I/O stays out of setup_s
    (workdir / f"{prog.name}.eimg").write_bytes(eblob)

    result.counts[prog.name] = {"instructions": len(parsed.instructions),
                                "blocks": len(img.blocks), "edges": len(img.edges)}
    result.records.append(("setup", prog.name, hashlib.sha256(eblob).hexdigest()))
    if loaded_img != img or loaded_eimg != eimg:
        result.fail(f"{prog.name}.setup", "container round trip changed the image", True)
        return None
    return loaded_img, loaded_eimg


def _execute(result: PassResult, prog: Program, phase: str, make, target,
             plain: engine.RunReport | None = None) -> engine.RunReport | None:
    """One run checked against ground truth; the report, or None if it failed."""
    result.attempted += 1
    start = perf_counter()
    eng = make(target)
    report = eng.run()
    result.times[phase] += perf_counter() - start

    counters = report.counters
    result.records.append((phase, prog.name, report.to_json_dict(), eng.state.regs))
    problems = []
    if report.outcome != engine.HALT:
        problems.append(f"outcome {report.outcome}")
    if counters.instructions_retired != prog.retired:
        problems.append(f"retired {counters.instructions_retired} != {prog.retired}")
    if any(eng.state.regs[i] != v for i, v in prog.regs.items()):
        problems.append("result registers differ from ground truth")
    if phase == "plain":
        result.retired += counters.instructions_retired
    else:
        result.counts[prog.name].update(retired=counters.instructions_retired,
                                        key_switches=counters.key_switches)
        if counters.key_switches != prog.key_switches:
            problems.append(f"key switches {counters.key_switches} != {prog.key_switches}")
        if plain is not None and report.final_state_digest != plain.final_state_digest:
            problems.append("final-state digest differs from the plaintext run")
    if problems:
        result.fail(f"{prog.name}.{phase}", "; ".join(problems), True)
        return None
    return report


def _attack(result: PassResult, op: AttackOp) -> None:
    result.attempted += 1
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:      # an uncaught error is a CLI failure, counted
        code = f"uncaught {type(exc).__name__}: {exc}"
    result.times["attack"] += perf_counter() - start

    curve = Path(op.curve).read_text() if op.curve and code == 0 else None
    result.records.append(("attack", op.label, code, out.getvalue(), curve))
    if code != 0:
        reason = err.getvalue().strip().splitlines()[-1:] or [str(code)]
        result.fail(op.label, f"exit {code}: {reason[0]}" if isinstance(code, int)
                    else code, False)
        return
    doc = json.loads(out.getvalue())
    trials = doc["trials"] if "trials" in doc else [doc]
    problems = []
    if len(trials) != op.trials:
        problems.append(f"{len(trials)} trials reported, {op.trials} requested")
    if curve is not None and len(curve.splitlines()) != 5:
        problems.append("survival curve does not have the four checkpoints")
    for trial in trials:
        detected = trial["detected"]
        if detected != (trial["outcome"] in FAULTS):
            problems.append("detected flag disagrees with the outcome")
        if op.must_detect and not detected:
            problems.append("committed scenario was not detected")
        result.trials += 1
        result.detected += detected
        result.hijacked += trial["hijack_succeeded"]
        if detected:
            result.latency_sum += trial["instructions_until_fault"]
    if problems:
        result.fail(op.label, "; ".join(sorted(set(problems))), True)


def fingerprint(results: list[PassResult]) -> str:
    h = hashlib.sha256()
    for result in results:
        h.update(json.dumps(result.records, sort_keys=True).encode())
    return h.hexdigest()

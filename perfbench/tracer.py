"""Per-layer tracing from outside the program.

The tracer replaces library functions with timing wrappers under the
names their callers look up (`scylla.engine.decode`, `Memory.load_word`,
`scylla.cli.run_trials`, ...), and puts the originals back on `remove()`.
Two kinds of wrapper:

- spans, for coarse calls (parse, layout, encrypt, engine construction,
  a run, a digest, an attack, the CLI): each has a name, a start, an end
  and its parent's id, and is kept in memory;
- aggregated calls, for the per-fetch functions (decode, keystream, key
  update, memory load/store, encode): only a count and a time total.

A layer's self time is its spans' time minus the time of the spans and
aggregated calls made inside them, so the self times of all layers add
up to the traced wall time.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from scylla import analysis, asm, attacks, cli, crypto, engine, image, isa

_NAME, _START, _CHILD = 1, 3, 4      # fields of an open span


def _qualname(owner) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}"
    return owner.__name__


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, int, float, float]] = []  # id, name, parent, start, end
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.call_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [[0, "root", -1, time.perf_counter(), 0.0]]
        self._next_id = 1
        self._seen_words: set[int] = set()
        self._seen_stream: set[tuple[bytes, int]] = set()
        self._keys: set[bytes] = set()
        self._patched: list[tuple[object, str, object]] = []
        self._missing: list[str] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, on_result=None, on_error=None):
        stack, clock = self._stack, time.perf_counter

        def wrapped(*args, **kwargs):
            parent = stack[-1]
            span = [self._next_id, name, parent[0], clock(), 0.0]
            self._next_id += 1
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(span, clock())
                if on_error is not None:
                    on_error(exc)
                raise
            self._close(span, clock())
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return wrapped

    def _close(self, span, end):
        self._stack.pop()
        parent = self._stack[-1]
        duration = end - span[_START]
        self.self_s[span[_NAME]] += duration - span[_CHILD]
        parent[_CHILD] += duration
        self.spans.append((span[0], span[_NAME], span[2], span[_START], end))

    def _call(self, name, fn, hook=None):
        stack, clock = self._stack, time.perf_counter
        calls, call_s = self.calls, self.call_s

        def wrapped(*args):
            start = clock()
            result = fn(*args)
            elapsed = clock() - start
            calls[name] += 1
            call_s[name] += elapsed
            stack[-1][_CHILD] += elapsed
            if hook is not None:
                hook(args, result)
            return result
        return wrapped

    def _patch(self, owner, attr, wrap):
        original = getattr(owner, attr, None)
        if original is None:
            self._missing.append(f"{_qualname(owner)}.{attr}")
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    # -- hooks ------------------------------------------------------------

    def _on_decode(self, args, result):
        word = args[0]
        if word in self._seen_words:
            self.counts["decode_repeats"] += 1
        else:
            self._seen_words.add(word)
        if isinstance(result, isa.DecodeError):
            self.counts["decode_illegal"] += 1

    def _on_keystream(self, args, _result):
        key = args[0]
        if (key, args[1]) in self._seen_stream:
            self.counts["keystream_repeats"] += 1
        else:
            self._seen_stream.add((key, args[1]))
        self._keys.add(key)

    def _on_parse(self, args, _kwargs, _result):
        self.counts["asm.lines"] += len(args[0].splitlines())

    def _on_cfg(self, _args, _kwargs, graph):
        self.counts["cfg.blocks"] += len(graph.blocks)
        self.counts["cfg.edges"] += len(graph.edges)

    def _on_container(self, args, _kwargs, result):
        if self._stack[-1][_NAME] != "image.container":   # outermost only
            blob = result if isinstance(result, bytes) else args[0]
            self.counts["image.container_bytes"] += len(blob)

    def _on_run(self, _args, _kwargs, report):
        c = report.counters
        for key, value in (("retired", c.instructions_retired),
                           ("key_switches", c.key_switches),
                           ("patch_lookups", c.patch_lookups),
                           ("keystream_invocations", c.keystream_invocations),
                           ("cycles", c.cycles)):
            self.counts["engine." + key] += value

    def _on_attack(self, args, kwargs, outcome):
        scenario = kwargs.get("scenario", args[1] if len(args) > 1 else None)
        retired = outcome.report.counters.instructions_retired
        self.counts["attacks.trials"] += 1
        self.counts["attacks.pre_trigger"] += min(scenario.trigger_step, retired)
        self.counts["attacks.retired"] += retired

    def _on_attack_error(self, exc):
        if isinstance(exc, attacks.HarnessError):
            self.counts["attacks.inapplicable"] += 1

    def _on_diversification(self, args, _kwargs, _result):
        repeats = Counter(args[0].text_words()).values()
        self.counts["analysis.repeat_pairs"] += sum(n * (n - 1) // 2 for n in repeats)

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        """Wrap every target; if the program lacks any, wrap none and raise.

        A layer whose function was renamed or inlined would otherwise read
        0 s, which looks like a perfect speed-up.
        """
        def span(name, on_result=None, on_error=None):
            return lambda fn: self._span(name, fn, on_result, on_error)

        def call(name, hook=None):
            return lambda fn: self._call(name, fn, hook)

        for owner in (asm, cli):
            self._patch(owner, "parse_assembly", span("asm.parse", self._on_parse))
        self._patch(image, "build_cfg", span("cfg.build", self._on_cfg))
        for owner in (image, cli):
            self._patch(owner, "layout_image", span("image.layout"))
        container = span("image.container", self._on_container)
        for owner, attrs in ((image, ("dump_image", "parse_container", "load_image_bytes")),
                             (crypto, ("dump_image", "parse_container",
                                       "dump_encrypted_image", "load_encrypted_image_bytes")),
                             (cli, ("dump_image", "parse_container", "load_image_bytes",
                                    "dump_encrypted_image", "load_encrypted_image_bytes"))):
            for attr in attrs:
                self._patch(owner, attr, container)
        for owner in (asm, image, attacks):
            self._patch(owner, "encode", call("isa.encode"))
        self._patch(engine, "decode", call("isa.decode", self._on_decode))
        for owner in (crypto, cli):
            self._patch(owner, "encrypt_pipeline", span("crypto.encrypt"))
        self._patch(engine, "keystream_word", call("crypto.keystream", self._on_keystream))
        for owner in (engine, attacks):
            self._patch(owner, "derive_next_key", call("crypto.key_update"))
        self._patch(engine.Engine, "__init__", span("engine.init"))
        self._patch(engine.Engine, "run", span("engine.run", self._on_run))
        self._patch(engine.MachineState, "digest", span("engine.digest"))
        self._patch(engine.Memory, "load_word", call("engine.mem_load"))
        self._patch(engine.Memory, "store_word", call("engine.mem_store"))
        attack = span("attacks", self._on_attack, self._on_attack_error)
        for owner in (attacks, cli):
            self._patch(owner, "run_attack", attack)
        # an inapplicable trial raises out of run_attack, counted there once
        for attr in ("run_trials", "load_scenario"):
            self._patch(cli, attr, span("attacks"))
        for owner in (analysis, cli):
            self._patch(owner, "diversification_report",
                        span("analysis.diversification", self._on_diversification))
        self._patch(cli, "fit_survival", span("analysis.fit"))
        self._patch(cli, "main", span("cli"))
        if self._missing:
            self.remove()
            raise LookupError("tracer: the program no longer has "
                              + ", ".join(self._missing) + "; update perfbench/tracer.py")

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit)."""
        s, n, calls, call_s = self.self_s, self.counts, self.calls, self.call_s

        def share(part, whole):
            return part / whole if whole else 0.0

        lookups = n["engine.patch_lookups"]
        return {
            "asm.parse_s": (s["asm.parse"], "s"),
            "asm.lines": (n["asm.lines"], "count"),
            "cfg.build_s": (s["cfg.build"], "s"),
            "cfg.blocks": (n["cfg.blocks"], "count"),
            "cfg.edges": (n["cfg.edges"], "count"),
            "image.layout_s": (s["image.layout"], "s"),
            "image.container_s": (s["image.container"], "s"),
            "image.container_bytes": (n["image.container_bytes"], "bytes"),
            "isa.encode_s": (call_s["isa.encode"], "s"),
            "isa.encode_calls": (calls["isa.encode"], "count"),
            "isa.decode_s": (call_s["isa.decode"], "s"),
            "isa.decode_calls": (calls["isa.decode"], "count"),
            "isa.decode_illegal": (n["decode_illegal"], "count"),
            "isa.decode_repeat_share": (
                share(n["decode_repeats"], calls["isa.decode"]), "share"),
            "crypto.encrypt_s": (s["crypto.encrypt"], "s"),
            "crypto.keystream_s": (call_s["crypto.keystream"], "s"),
            "crypto.keystream_calls": (calls["crypto.keystream"], "count"),
            "crypto.keystream_repeat_share": (
                share(n["keystream_repeats"], calls["crypto.keystream"]), "share"),
            "crypto.keystream_distinct_keys": (len(self._keys), "count"),
            "crypto.key_update_s": (call_s["crypto.key_update"], "s"),
            "crypto.key_update_calls": (calls["crypto.key_update"], "count"),
            "engine.run_self_s": (s["engine.run"], "s"),
            "engine.mem_load_s": (call_s["engine.mem_load"], "s"),
            "engine.mem_load_calls": (calls["engine.mem_load"], "count"),
            "engine.mem_store_s": (call_s["engine.mem_store"], "s"),
            "engine.mem_store_calls": (calls["engine.mem_store"], "count"),
            "engine.init_s": (s["engine.init"], "s"),
            "engine.init_calls": (
                sum(1 for span in self.spans if span[1] == "engine.init"), "count"),
            "engine.digest_s": (s["engine.digest"], "s"),
            "engine.retired": (n["engine.retired"], "instr"),
            "engine.key_switches": (n["engine.key_switches"], "count"),
            "engine.patch_lookups": (lookups, "count"),
            "engine.patch_miss_share": (
                share(lookups - n["engine.key_switches"], lookups), "share"),
            "engine.keystream_invocations": (n["engine.keystream_invocations"], "count"),
            "engine.cycles": (n["engine.cycles"], "cycles"),
            "attacks.self_s": (s["attacks"], "s"),
            "attacks.trials": (n["attacks.trials"], "count"),
            "attacks.inapplicable": (n["attacks.inapplicable"], "count"),
            "attacks.reexec_share": (
                share(n["attacks.pre_trigger"], n["attacks.retired"]), "share"),
            "analysis.diversification_s": (s["analysis.diversification"], "s"),
            "analysis.repeat_pairs": (n["analysis.repeat_pairs"], "count"),
            "analysis.fit_s": (s["analysis.fit"], "s"),
            "cli.self_s": (s["cli"], "s"),
        }

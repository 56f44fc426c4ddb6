"""Host-time benchmark of the scylla laboratory.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exec-loop --seed 1 --seconds 36 --trace 0

Single process, single thread, closed loop: every library or CLI call
starts when the previous one has returned. The run repeats whole passes
over freshly generated inputs until --seconds have elapsed (and at least
MIN_PASSES times). Host-time metrics take the median over the passes of
each phase's host time at reference speed (see `_host_metrics`); the
simulated metrics and the fingerprint cover the first MIN_PASSES passes,
whose inputs depend on the seed alone, so they repeat exactly.

With --trace 1 the run executes the first MIN_PASSES passes untraced,
then the same passes again under the tracer, and prints the per-layer
metrics instead of the end-to-end ones.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}; the line before it is a report with the fingerprint, the time
base of every metric, and every failure. NOTES.md explains the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

MIN_PASSES = 4
MAX_PASSES = 200
WORKLOADS = ("exec-loop", "exec-sprawl", "attack-campaign")
REFERENCE_S = 0.005     # nominal host seconds of one reference chunk (full speed, 2-vCPU VM)

# name -> (unit, time base); the order is the order of BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "host"),
    "plain_ips": ("instr/s", "host"),
    "enc_ips": ("instr/s", "host"),
    "analyze_s": ("s", "host"),
    "trials_per_s": ("1/s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "modelled_overhead": ("ratio", "simulated"),
    "detection_rate": ("share", "simulated"),
    "fault_latency_mean": ("instr", "simulated"),
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _host_metrics(results) -> dict[str, float]:
    """Host-time metrics: the median over passes of each per-pass value.

    A phase's host seconds are scaled by REFERENCE_S over the mean time of
    the reference chunks timed around and inside it, which gives the
    seconds the phase would take on a host where the chunk takes
    REFERENCE_S. The shared VM this was written on runs at two speeds,
    1.45-1.85x apart depending on the work, and its share of slow time
    drifts over minutes; the chunk slows with the program, so the ratio
    barely drifts.
    """
    def per_pass(phase, work=None):
        values = []
        for r in results:
            if r.times[phase]:
                seconds = r.times[phase] * REFERENCE_S / r.reference[phase]
                values.append(work(r) / seconds if work else seconds)
        return statistics.median(values) if values else 0.0

    return {
        "setup_s": per_pass("setup"),
        "plain_ips": per_pass("plain", lambda r: r.retired),
        "enc_ips": per_pass("enc", lambda r: r.retired),
        "analyze_s": per_pass("analyze"),
        "trials_per_s": per_pass("attack", lambda r: r.trials),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _simulated_metrics(results) -> dict[str, float]:
    overheads = [o for r in results for o in r.overheads]
    trials = sum(r.trials for r in results)
    detected = sum(r.detected for r in results)
    return {
        "modelled_overhead": statistics.fmean(overheads) if overheads else 0.0,
        "detection_rate": detected / trials if trials else 0.0,
        "fault_latency_mean": sum(r.latency_sum for r in results) / detected if detected else 0.0,
        "hijack_rate": sum(r.hijacked for r in results) / trials if trials else 0.0,
    }


def _bench(args, root: Path, workdir: Path) -> tuple[dict, dict]:
    import workloads
    if args.workload == "attack-campaign":
        make_inputs = workloads.Corpus(root).campaign
    else:
        make_inputs = getattr(workloads, args.workload.replace("-", "_"))

    def run(index):
        return workloads.run_pass(make_inputs(args.seed, index, workdir), workdir)

    if args.trace:
        from tracer import Tracer
        untraced = [run(i) for i in range(MIN_PASSES)]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [run(i) for i in range(MIN_PASSES)]
        finally:
            tracer.remove()
        wall = [sum(sum(r.times.values()) for r in rs) for rs in (untraced, traced)]
        per_layer = tracer.metrics()
        per_layer["trace.overhead"] = (wall[1] / wall[0], "ratio")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in per_layer.items()}
        exact, all_results = untraced, untraced + traced
        extra = {"fingerprint_traced": workloads.fingerprint(traced)}
    else:
        deadline = time.perf_counter() + args.seconds
        all_results = []
        while len(all_results) < MIN_PASSES or (
                time.perf_counter() < deadline and len(all_results) < MAX_PASSES):
            all_results.append(run(len(all_results)))
            if len(all_results) > MIN_PASSES:   # keep memory flat: only exact passes are fingerprinted
                all_results[-1].records.clear()
        exact = all_results[:MIN_PASSES]
        values = _host_metrics(all_results) | _simulated_metrics(exact)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
        extra = {}

    sim = _simulated_metrics(exact)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(all_results), "exact_passes": MIN_PASSES,
        "reference_chunk_s": statistics.median(
            t for r in all_results for t in r.reference.values()),
        "fingerprint": workloads.fingerprint(exact), **extra,
        "hijack_rate": sim["hijack_rate"],
        "time_base": {name: base for name, (_, base) in END_TO_END.items()},
        "failures": sorted({f for r in exact for f in r.failures}),
        "mismatches": sorted({m for r in all_results for m in r.mismatches}),
        "attempted_all_passes": sum(r.attempted for r in all_results),
        "failed_all_passes": sum(len(r.failures) for r in all_results),
    }
    if args.trace and extra["fingerprint_traced"] != report["fingerprint"]:
        report["mismatches"].append("traced passes changed the simulated outputs")
    result = {
        "correct": not report["mismatches"],
        "attempted": sum(r.attempted for r in exact),
        "failed": sum(len(r.failures) for r in exact),
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "scylla").is_dir() or not (root / "corpus" / "manifest.json").is_file():
        print("perfbench: run from the root of a scylla checkout "
              "(needs src/scylla and corpus/manifest.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        report, result = _bench(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

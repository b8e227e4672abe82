"""qmemsim benchmark: one closed-loop workload per run, end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload qft-shots --seed 1 --seconds 30 --trace 0

A single caller sends the next operation only after the last one returns.
Each output is checked against a computation made apart from qmemsim,
outside the timed region. With `--trace 0` the run reports the end-to-end
metrics; with `--trace 1` it alternates untraced and traced rounds and
reports the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Details (latencies, tail, simulated statistics, spans) go to perfbench/out/.
"""

from __future__ import annotations

import os

# One BLAS thread. With two, OpenBLAS's idle worker spins for about 0.1 s
# after each threaded call (reduced_purity, the checks' norms) and, on a
# two-core host, slows whatever the main thread does next by up to 2x: the
# next operation's first steps and the host-speed samples alike.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402  (after the thread settings, before numpy)
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np  # noqa: E402

import workloads as wl
from tracer import Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

# Set-up is measured in this many fresh interpreters and the median reported.
SETUP_PROBES = 9
# A tail percentile needs this many operations beyond it, and a run this many
# operations in all before it reports one.
TAIL_BEYOND = 10
TAIL_MIN_OPS = 40
# Wall-clock cap on the timed loop, so a run ends well within three minutes.
MAX_LOOP_WALL_S = 120
# Failed operations whose messages are kept.
MAX_PROBLEMS = 50

LAYER_METRICS = [
    *(f"statevec.apply_gate.{path}.{what}"
      for path in ("perm", "diag", "dense") for what in ("calls", "self_ms", "amps")),
    "statevec.apply_gates_elided.self_ms",
    "statevec.init_state.calls", "statevec.init_state.self_ms",
    "statevec.embed_low.calls", "statevec.embed_low.self_ms",
    "statevec.reduced_purity.calls", "statevec.reduced_purity.self_ms",
    "statevec.measure.calls", "statevec.measure.self_ms",
    *(f"qram.{fn}.self_ms" for fn in ("prepare_mode_input", "apply_mode",
                                      "entanglement_profile", "run_circuit_mode",
                                      "check_mode")),
    "qram.check_mode.read.ms", "qram.check_mode.write.ms",
    "qram.build_router_program.calls", "qram.build_router_program.self_ms",
    "qram.build_router_program.gates",
    "qram.router_input.support",
    *(f"memdev.{fn}.{what}" for fn in ("raqm_store", "raqm_load", "memory_dump")
      for what in ("calls", "self_ms")),
    "qmasm.validate.calls", "qmasm.validate.self_ms",
    "qmasm.execute.self_ms", "qmasm.run_shots.self_ms",
    "qmasm.parse_program.self_ms",
    "qmasm.trace.gates",
]


def layer_unit(name):
    return "ms" if name.endswith("ms") else "count"


def layer_value(tracer, name):
    base, _, what = name.rpartition(".")
    if what == "calls":
        return tracer.calls[base]
    if what == "self_ms":
        return tracer.self_s[base] * 1e3
    if what == "ms":
        return tracer.total_s[base] * 1e3
    return tracer.counters[name]


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND operations beyond it."""
    if len(latencies) < TAIL_MIN_OPS:
        return None
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / len(ordered), ordered[k]


# Seconds of timed work between host-speed samples, and a sample's time at
# nominal host speed.
REF_EVERY_S = 0.25
REF_NOMINAL_S = 0.017


class HostReference:
    """Host-speed samples from a fixed Python/numpy kernel that does not touch qmemsim.

    The host's speed drifts by tens of percent within minutes, and the
    operations and this kernel slow down together. Each operation's time is
    divided by the mean factor of the samples taken just before and after
    it, so a run reports its times at nominal host speed; the raw times are
    printed and kept in the details file too.

    The kernel is a pure-Python loop plus strided swaps on a 1 MiB array
    that stays cache-resident. It allocates nothing: temporaries of that size
    would come from mmap or from the heap depending on what the workload
    freed before (glibc moves its mmap threshold), which changed the
    kernel's time threefold. One warm-up pass runs untimed.
    """

    def __init__(self):
        self._buf = np.zeros(1 << 16, dtype=np.complex128)
        self._tmp = np.empty(1 << 15, dtype=np.complex128)
        self.samples = []
        self._kernel()

    def _kernel(self):
        acc = 0
        for k in range(100_000):
            acc += k * k
        for k in range(40):
            view = self._buf.reshape(-1, 2, 1 << (k % 12))
            upper = self._tmp.reshape(view.shape[0], view.shape[2])
            np.copyto(upper, view[:, 1, :])
            view[:, 1, :] = view[:, 0, :]
            view[:, 0, :] = upper
        return acc

    def sample(self):
        start = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - start)

    def window_factor(self, k):
        """Host-speed factor of the work done between samples k and k+1."""
        after = self.samples[min(k + 1, len(self.samples) - 1)]
        return 0.5 * (self.samples[k] + after) / REF_NOMINAL_S


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure_setup(workload, seed, ref):
    """Set-up times, from spawning a fresh interpreter to the end of set-up.

    The child imports qmemsim, parses and generates the workload's inputs,
    prints its clock and exits; CLOCK_MONOTONIC is shared between processes.
    Returns the raw and the host-speed-scaled samples; the run reports the
    median of the scaled ones.
    """
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        ref.sample()
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        done = float(child.stdout.split()[-1])
        ref.sample()
        raw.append(done - start)
        scaled.append(raw[-1] / ref.window_factor(len(ref.samples) - 2))
    return raw, scaled


def run_loop(work, seconds, tracer, modules, ref):
    """Whole rounds of operations until `seconds` of timed work is done.

    With a tracer, rounds alternate untraced / traced. Checks, statistics and
    host-speed samples run between operations, outside the timed region.
    Returns per-op (raw seconds, traced?, reference window index).
    """
    ops = []
    problems = []
    failed = 0
    stats = []
    timed = 0.0
    since_ref = 0.0
    i = 0
    wall_limit = time.perf_counter() + min(2 * seconds + 10, MAX_LOOP_WALL_S)
    round_no = 0
    ref.sample()
    while timed < seconds or i < work.stats_ops or (tracer and round_no < 2):
        traced = tracer is not None and round_no % 2 == 1
        if traced:
            tracer.install(modules)
        try:
            for _ in range(work.round_ops):
                if traced:
                    tracer.op_id = i
                start = time.perf_counter()
                try:
                    out = work.op(i)
                except Exception as exc:  # a failed operation, not a failed run
                    out = exc
                elapsed = time.perf_counter() - start
                ops.append((elapsed, traced, len(ref.samples) - 1))
                timed += elapsed
                since_ref += elapsed
                if isinstance(out, Exception):
                    found = [f"{type(out).__name__}: {out}"]
                else:
                    try:
                        found = work.check(i, out)
                        if i < work.stats_ops:
                            stats.append(work.sim_stats(i, out))
                    except Exception as exc:  # output too malformed to check
                        found = [f"check raised {type(exc).__name__}: {exc}"]
                del out
                if found:
                    failed += 1
                    if len(problems) < MAX_PROBLEMS:
                        problems.append((i, found))
                i += 1
                if since_ref >= REF_EVERY_S:
                    ref.sample()
                    since_ref = 0.0
        finally:
            if traced:
                tracer.uninstall()
        round_no += 1
        if time.perf_counter() > wall_limit:
            break
    if since_ref:
        ref.sample()
    return ops, failed, problems, stats


def sim_summary(work, stats):
    """Simulated statistics of the first stats_ops operations: exact per seed."""
    summary = {"ops": len(stats), "router_program_gates": work.router_gates()}
    if stats and "trace_gates" in stats[0]:
        summary["trace_gates"] = sum(s["trace_gates"] for s in stats)
        counts = {}
        for s in stats:
            wl.merge_counts(counts, s["outcomes"])
        summary["outcomes"] = {reg: dict(sorted(c.items())) for reg, c in sorted(counts.items())}
    else:
        summary["per_op"] = stats
    text = json.dumps(summary, sort_keys=True)
    summary["sha256"] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the clock and exit (used for setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    try:
        modules = wl.load_qmemsim()
    except wl.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    make = wl.WORKLOADS[args.workload]

    if args.setup_probe:
        make(modules, args.seed)
        print(f"{time.perf_counter():.9f}")
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(modules)  # set-up parsing shows in the layer metrics
    try:
        work = make(modules, args.seed)
    finally:
        if tracer:
            tracer.uninstall()

    ref = HostReference()
    ops, failed, problems, stats = run_loop(work, args.seconds, tracer, modules, ref)
    run_problems = work.finish()
    summary = sim_summary(work, stats)
    setup_raw, setup_scaled = measure_setup(args.workload, args.seed, ref)
    attempted = len(ops)

    for i, found in problems[:10]:
        print(f"FAILED op {i}: {'; '.join(found[:3])}")
    for found in run_problems:
        print(f"FAILED run check: {found}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops attempted, "
          f"{failed} failed")
    print("sim " + json.dumps(summary, sort_keys=True))

    raw = {False: [], True: []}
    scaled = {False: [], True: []}
    for seconds, traced, window in ops:
        raw[traced].append(seconds)
        scaled[traced].append(seconds / ref.window_factor(window))
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "attempted": attempted, "failed": failed,
               "problems": problems, "run_problems": run_problems,
               "sim": summary, "setup_raw_s": setup_raw, "setup_scaled_s": setup_scaled,
               "ops": ops, "host_reference_s": ref.samples}

    if tracer is None:
        lat = scaled[False]
        metrics = {
            "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "op_ms_p50": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        print(f"raw host time: {len(lat) / sum(raw[False]):.6g} ops/s, p50 "
              f"{statistics.median(raw[False]) * 1e3:.6g} ms, setup "
              f"{statistics.median(setup_raw):.6g} s")
        t = tail(lat)
        if t is None:
            print(f"op_ms_tail: not reported, {len(lat)} ops < {TAIL_MIN_OPS}")
        else:
            print(f"op_ms_tail: p{t[0]:.1f} = {t[1] * 1e3:.3f} ms over {len(lat)} ops")
            details["op_ms_tail"] = {"percentile": t[0], "value_ms": t[1] * 1e3,
                                     "samples": len(lat)}
    else:
        plain, traced = scaled[False], scaled[True]
        plain_rate = len(plain) / sum(plain) if plain else float("nan")
        traced_rate = len(traced) / sum(traced) if traced else float("nan")
        overhead = 100.0 * (plain_rate - traced_rate) / plain_rate
        metrics = {name: {"value": layer_value(tracer, name), "unit": layer_unit(name)}
                   for name in LAYER_METRICS}
        metrics["bench.traced_ops"] = {"value": len(traced), "unit": "count"}
        metrics["bench.trace_overhead"] = {"value": overhead, "unit": "%"}
        metrics["bench.absent_functions"] = {"value": len(tracer.absent), "unit": "count"}
        print(f"tracing overhead: {overhead:.2f} % ({len(plain)} untraced ops at "
              f"{plain_rate:.4g}/s, {len(traced)} traced ops at {traced_rate:.4g}/s)")
        if tracer.absent:
            print("absent (not traced): " + ", ".join(tracer.absent))
        details["absent"] = tracer.absent

    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details["metrics"] = metrics
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1))
    if tracer:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.span_records()))

    correct = not run_problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

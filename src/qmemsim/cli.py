"""Command-line front end: program execution, metrics, QRAM backend checks.

Exit codes: 0 success; 1 diagnostics (parse/validation/dataset/check
failures); 2 runtime errors (missing files, aborted shots).
"""

from __future__ import annotations

import argparse
import collections
import csv
import sys

import numpy as np

from . import assets
from . import metrics as metrics_mod
from . import qmasm, qram
from . import statevec as sv
from .qmasm import nodes
from .errors import (ArgumentError, DatasetError, ParseError, QmemError, ResourceError,
                     ValidationFailure)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qmem",
        description="quantum-memory-aware simulator and metrics toolchain")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="parse, validate and execute a program")
    p_run.add_argument("program")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--shots", type=int, default=1)
    p_run.add_argument("--post-select", action="append", default=[],
                       metavar="BIT=VAL")
    p_run.add_argument("--backend", choices=["functional", "circuit"],
                       default="functional")
    p_run.add_argument("--dump-state", action="store_true")
    p_run.add_argument("--dump-memory", action="store_true")
    p_run.add_argument("--timeline", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_met = sub.add_parser("metrics", help="compute device metrics from a dataset")
    p_met.add_argument("dataset")
    p_met.add_argument("--check-paper", action="store_true",
                       help="regress computed metrics against printed values")
    p_met.add_argument("--fig2", metavar="PATH",
                       help="write the storage-ratio scatter export")
    p_met.set_defaults(func=cmd_metrics)

    p_chk = sub.add_parser("qram-check",
                           help="cross-check circuit vs functional QRAM backends")
    p_chk.add_argument("--addr-bits", type=int, default=2)
    p_chk.add_argument("--modes", default="all",
                       help="'all' or comma-separated mode names")
    p_chk.add_argument("--seeds", type=int, default=50)
    p_chk.set_defaults(func=cmd_qram_check)

    args = parser.parse_args(argv)
    return args.func(args)


def cmd_run(args) -> int:
    path = assets.resolve(args.program)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.program}: {exc}", file=sys.stderr)
        return 2

    try:
        program = qmasm.parse_program(source)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    diagnostics = qmasm.validate(program)
    for d in diagnostics:
        print(str(d), file=sys.stderr)
    if qmasm.has_errors(diagnostics):
        return 1

    if args.shots < 1:
        print("error: --shots must be >= 1", file=sys.stderr)
        return 1
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 1
    declared_bits = {stmt.name: stmt.size for stmt in nodes.walk(program.body)
                     if isinstance(stmt, nodes.BitDecl)}
    post_select = {}
    for spec in args.post_select:
        try:
            name, idx, value = qmasm.parse_post_select(spec)
        except ArgumentError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if name not in declared_bits or not 0 <= idx < declared_bits[name]:
            print(f"error: --post-select names undeclared bit {name}[{idx}]",
                  file=sys.stderr)
            return 1
        post_select[(name, idx)] = value
    config = qmasm.RunConfig(
        post_select=post_select,
        backend=args.backend,
        timing=qmasm.TimingProfile() if args.timeline else None,
    )

    # Shots are tallied as they arrive and only the last result is kept, so
    # memory does not grow with --shots. (No enumerate: its cached tuple
    # would keep the previous result alive while the next shot runs.)
    counts = collections.defaultdict(collections.Counter)  # register -> bitstrings
    failed = []
    remaining = args.shots
    try:
        for result in qmasm.iter_shots(program, args.seed, args.shots, config):
            remaining -= 1
            if result.status != "ok":
                failed.append(f"shot {result.shot_log[0]['shot']}: {result.error}")
            for name, value in result.classical.items():
                if isinstance(value, list):
                    counts[name].update(qmasm.aggregate_counts([result], name))
            if not remaining:
                last = result
            del result
    except (ValidationFailure, ResourceError, QmemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"shots: {args.shots}  seed: {args.seed}  failed: {len(failed)}")
    for line in failed:
        print(line, file=sys.stderr)

    if args.shots == 1:
        for name, value in sorted(last.classical.items()):
            if isinstance(value, list):
                print(f"{name}={last.bitstring(name)}")
            else:
                print(f"{name}={value}")
        if last.status == "ok":
            replayed = qmasm.replay_trace(last.trace, last.num_qubits)
            fid = float(abs(np.vdot(replayed.amps, last.final_state.amps)) ** 2)
            print(f"fidelity-vs-oracle: {fid:.12f}")
    else:
        for name in sorted(k for k, v in last.classical.items() if isinstance(v, list)):
            rendered = " ".join(f"{k}:{v}" for k, v in sorted(counts[name].items()))
            print(f"counts[{name}]: {rendered}")

    if args.dump_memory and last.memory_dump:
        print("memory:")
        for line in last.memory_dump:
            print("  " + line)
    if args.dump_state and last.final_state is not None:
        print("state:")
        for line in sv.dump_state(last.final_state):
            print("  " + line)
    if args.timeline:
        print("timeline:")
        for t_start, op, duration in last.timeline:
            print(f"  {t_start:.9g}\t{op}\t{duration:.9g}")
        if last.fidelity_estimate is not None:
            print(f"fidelity-estimate (heuristic): {last.fidelity_estimate:.6f}")

    return 0 if not failed else 2


def cmd_metrics(args) -> int:
    path = assets.resolve(args.dataset)
    try:
        records = metrics_mod.load_platform_dataset(path)
    except DatasetError as exc:
        for d in exc.diagnostics:
            print(f"dataset error: {d}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.dataset}: {exc}", file=sys.stderr)
        return 2

    rows = metrics_mod.metrics_table(records)
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()) if rows else
                            metrics_mod.CSV_HEADER)
    writer.writeheader()
    for row in rows:
        writer.writerow(_rounded(row))

    status = 0
    if args.check_paper:
        expected_path = path.with_name(path.stem + "_expected.csv")
        if not expected_path.exists():
            print(f"error: no expected-value file {expected_path}", file=sys.stderr)
            return 1
        try:
            expected = metrics_mod.load_expected(expected_path)
        except DatasetError as exc:
            print(f"dataset error: {exc}", file=sys.stderr)
            return 1
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read {expected_path}: {exc}", file=sys.stderr)
            return 2
        results = metrics_mod.check_against_expected(records, expected)
        for r in results:
            flag = "PASS" if r.passed else "FAIL"
            print(f"{flag}\t{r.name}\t{r.metric}\tcomputed={r.computed:.6g}\t"
                  f"printed={r.printed}", file=sys.stderr)
        failed = sum(not r.passed for r in results)
        print(f"check-paper: {len(results) - failed}/{len(results)} comparisons pass",
              file=sys.stderr)
        if failed:
            status = 1

    if args.fig2:
        points, (lo, hi) = metrics_mod.emit_fig2_points(records)
        try:
            fh = open(args.fig2, "w", newline="", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.fig2}: {exc}", file=sys.stderr)
            return 2
        with fh:
            w = csv.writer(fh)
            w.writerow(["name", "alpha_in", "alpha_ex_plotted", "clamped"])
            for p in points:
                w.writerow([p.name, repr(p.alpha_in), repr(p.alpha_ex_plotted),
                            "clamped" if p.clamped else ""])
            w.writerow(["refline-lo", repr(lo), repr(lo), "refline"])
            w.writerow(["refline-hi", repr(hi), repr(hi), "refline"])
        print(f"fig2 export written to {args.fig2}", file=sys.stderr)

    return status


def _rounded(row):
    out = {}
    for key, value in row.items():
        out[key] = f"{value:.6g}" if isinstance(value, float) else value
    return out


def cmd_qram_check(args) -> int:
    for flag, value in (("--addr-bits", args.addr_bits), ("--seeds", args.seeds)):
        if value < 1:
            print(f"error: {flag} must be >= 1", file=sys.stderr)
            return 1
    if args.addr_bits > qram.MAX_CIRCUIT_ADDR_BITS:
        print(f"error: circuit backend supports at most "
              f"{qram.MAX_CIRCUIT_ADDR_BITS} address bits", file=sys.stderr)
        return 1
    if args.modes.strip().lower() == "all":
        modes = list(qram.ALL_MODES)
    else:
        try:
            modes = [qram.QramMode.parse(m) for m in args.modes.split(",")]
        except QmemError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    failures = 0
    for mode in modes:
        for seed in range(args.seeds):
            result = qram.check_mode(args.addr_bits, mode, seed)
            print(result.report_line())
            failures += not result.passed
    print(f"qram-check: {failures} failure(s) over {len(modes) * args.seeds} runs",
          file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

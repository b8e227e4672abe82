"""Self-test of the benchmark's checks: each must pass a real output and fail
a corrupted one (a flipped data bit, a perturbed amplitude, a swapped pattern).

Run from the root of a checkout:

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise. Takes a few seconds.
"""

from __future__ import annotations

import copy
import dataclasses
import sys

import numpy as np

import workloads as wl

SEED = 7


def flip_qubit(result, label):
    """Copy of a RunResult whose final state has X applied to the labelled qubit."""
    out = copy.copy(result)
    state = result.final_state.copy()
    q = state.labels.index(label)
    view = state.amps.reshape(-1, 2, 1 << q)
    view[...] = view[:, ::-1, :].copy()
    out.final_state = state
    return out


def perturb_amplitude(result, delta=1e-3):
    """Copy of a RunResult with its largest amplitude nudged, then renormalised."""
    out = copy.copy(result)
    state = result.final_state.copy()
    k = int(np.argmax(np.abs(state.amps)))
    state.amps[k] += delta
    state.amps /= np.linalg.norm(state.amps)
    out.final_state = state
    return out


def with_measurement(result, bit, **changes):
    """Copy of a RunResult with one recorded measurement changed."""
    out = copy.copy(result)
    log = copy.deepcopy(result.shot_log)
    for m in log[0]["measurements"]:
        if m["bit"] == bit:
            m.update(changes)
    out.shot_log = log
    return out


def main():
    mods = wl.load_qmemsim()
    failures = []

    def expect(label, problems, should_fail):
        ok = bool(problems) == should_fail
        verdict = "ok" if ok else "WRONG"
        outcome = "fails" if problems else "passes"
        print(f"{verdict}: {label} {outcome}" + (f" ({problems[0]})" if problems else ""))
        if not ok:
            failures.append(label)

    # qram-check-a3: one read and one write mode
    work = wl.QramCheckA3(mods, SEED)
    for i in (0, 3):
        result = work.op(i)
        mode = wl.MODE_ORDER[i]
        expect(f"qram-check-a3 {mode}", work.check(i, result), False)
        other = next(p for p in wl.TABLE4_PATTERNS.values() if p != result.pattern)
        expect(f"qram-check-a3 {mode} swapped pattern",
               work.check(i, dataclasses.replace(result, pattern=other)), True)
        expect(f"qram-check-a3 {mode} perturbed fidelity",
               work.check(i, dataclasses.replace(result, fidelity=1 - 1e-6)), True)
        expect(f"qram-check-a3 {mode} ancilla left set",
               work.check(i, dataclasses.replace(result, ancilla_zero_prob=1 - 1e-6)), True)

    # qft-shots: a batch holds shots of both branches
    work = wl.QftShots(mods, SEED)
    results = work.op(0)
    expect("qft-shots batch", work.check(0, results), False)
    branches = {r.classical["caux"][0]: r for r in results}
    for flag, r in sorted(branches.items()):
        name = f"qft-shots caux[0]={flag}"
        expect(f"{name} flipped memory bit", work.check(0, [flip_qubit(r, "mem[0]")]), True)
        expect(f"{name} perturbed amplitude", work.check(0, [perturb_amplitude(r)]), True)
        expect(f"{name} flipped recorded outcome",
               work.check(0, [with_measurement(r, "caux[0]", outcome=1 - flag)]), True)
    skewed = wl.QftShots(mods, SEED)
    skewed.shots, skewed.flag_ones = 1000, 600
    expect("qft-shots branch count 6 sigma off", skewed.finish(), True)
    expect("qft-shots branch counts of the batch", work.finish(), False)

    # qld-circuit
    work = wl.QldCircuit(mods, SEED)
    results = work.op(0)
    expect("qld-circuit batch", work.check(0, results), False)
    r = results[0]
    expect("qld-circuit flipped data bit", work.check(0, [flip_qubit(r, "qr.memory[0]")]), True)
    expect("qld-circuit flipped bus bit", work.check(0, [flip_qubit(r, "b[0]")]), True)
    expect("qld-circuit perturbed amplitude", work.check(0, [perturb_amplitude(r)]), True)
    p = r.shot_log[0]["measurements"][0]["probability"]
    expect("qld-circuit perturbed probability",
           work.check(0, [with_measurement(r, "c[0]", probability=p + 1e-6)]), True)

    if failures:
        print(f"{len(failures)} check(s) misbehaved: {', '.join(failures)}")
        return 1
    print("every check passes real outputs and fails corrupted ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's self-test, so a change that breaks its checks or the
qmemsim names it imports fails here and not only when the benchmark runs;
and the seed-exact simulated output of each workload, so a change that
alters what is simulated fails here and not only in a benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmemsim import qmasm
from qmemsim import statevec as sv

ROOT = Path(__file__).resolve().parent.parent

# `sha256` of perfbench's simulated statistics at seed 1, as `run.py` prints
# them: the first `stats_ops` operations of each workload.
SEED_ONE_SIM_SHA = {
    "qram-check-a3": "666afe07f7c12ecf",
    "qft-shots": "c84b7b8403f8276e",
    "qld-circuit": "ef7de2e25f87c07c",
}


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's `run` and `workloads` modules, imported in-process.

    `run` sets the BLAS thread variables when imported; they are restored so
    that later subprocesses see the environment they would have seen.
    """
    saved = dict(os.environ)
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
        os.environ.clear()
        os.environ.update(saved)
    return run, workloads


@pytest.mark.parametrize("name", sorted(SEED_ONE_SIM_SHA))
def test_seed_one_simulated_output(perfbench, name):
    run, wl = perfbench
    work = wl.WORKLOADS[name](wl.load_qmemsim(), 1)
    stats = []
    for i in range(work.stats_ops):
        out = work.op(i)
        assert work.check(i, out) == []
        stats.append(work.sim_stats(i, out))
    assert work.finish() == []
    assert run.sim_summary(work, stats)["sha256"] == SEED_ONE_SIM_SHA[name]


def test_qld_programs_equal_on_dense_and_support_states(perfbench, monkeypatch):
    """The benchmark's 22-qubit qld programs give the same shots, final-state
    bytes included, on the dense kernel as on the support state the
    interpreter holds them in. Seeds 7 and 15 leave over a million -0
    components in the final state, which must survive."""
    _, wl = perfbench

    def fields(r):
        return (r.status, r.error, r.classical, r.shot_log, r.trace,
                r.final_state.amps.tobytes(), r.num_qubits)

    config = qmasm.RunConfig(backend="circuit")
    negative_zeros = {}
    for seed in range(1, 21):
        program = qmasm.parse_program(wl.qld_program(seed)[0])
        support = qmasm.run_shots(program, seed, 1, config)[0]
        with monkeypatch.context() as m:
            m.setattr(sv, "zero_state", lambda n, labels=None: sv.init_state(n, labels=labels))
            dense = qmasm.run_shots(program, seed, 1, config)[0]
        assert fields(support) == fields(dense), seed
        negative_zeros[seed] = int(np.count_nonzero(
            np.signbit(dense.final_state.amps.view(np.float64))))
    assert negative_zeros[7] > 1 << 19 and negative_zeros[15] > 1 << 19

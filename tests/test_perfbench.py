"""The benchmark's self-test, so a change that breaks its checks or the
qmemsim names it imports fails here and not only when the benchmark runs;
and the seed-exact simulated output of each workload, so a change that
alters what is simulated fails here and not only in a benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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

"""Property test: whatever the arguments and the program text, `cli.main`
ends in exit code 0, 1 or 2 (or argparse's SystemExit(2)) and no other
exception escapes.

Argument vectors draw each subcommand's flags from in-range and out-of-range
values. Program texts are the packaged examples with a few tokens deleted,
duplicated or swapped; dataset texts are the packaged tables with lines
deleted, duplicated or swapped.
"""

import contextlib
import functools
import io
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qmemsim import assets, cli, qmasm
from qmemsim.errors import QmemError
from qmemsim.qmasm import nodes

EXAMPLES = ("bell_store", "buffer_demo", "qft_amplitude", "qft_amplitude_clean")
TOKEN = re.compile(r"\d+\.\d+|\w+|->|==|!=|<=|>=|\*\*|\S")
# Mutants are kept to this many qubits, so no example takes seconds a shot.
MAX_FUZZ_QUBITS = 16
# Instruction budget for the fuzzed runs: a mutant whose loop no longer
# ends stops with exit 2 after this many steps instead of after a million.
FUZZ_MAX_STEPS = 5000


def _tokens(name):
    text = assets.example_path(name + ".qmasm").read_text()
    return TOKEN.findall(re.sub(r"//[^\n]*", "", text))


SOURCES = {name: _tokens(name) for name in EXAMPLES}
TABLES = {name: assets.data_path(name).read_text().splitlines()
          for name in ("table1.csv", "table3_raqm.csv")}

edits = st.lists(st.tuples(st.sampled_from(["delete", "duplicate", "swap"]),
                           st.integers(0, 10_000), st.integers(0, 10_000)),
                 max_size=2)


def mutate(items, changes):
    items = list(items)
    for op, i, j in changes:
        if not items:
            break
        i, j = i % len(items), j % len(items)
        if op == "delete":
            del items[i]
        elif op == "duplicate":
            items.insert(i, items[i])
        else:
            items[i], items[j] = items[j], items[i]
    return items


def qubits_needed(text):
    """Upper bound on the qubits a run of `text` allocates (0 if it does not
    parse), counting each qram's circuit-backend block."""
    try:
        program = qmasm.parse_program(text)
    except QmemError:
        return 0
    total = 0
    for stmt in nodes.walk(program.body):
        if isinstance(stmt, (nodes.QubitDecl, nodes.MemDecl)):
            total += stmt.size
        elif isinstance(stmt, nodes.QramDecl) and stmt.addr_len <= 3:
            total += (2 << stmt.addr_len) * stmt.word_len + stmt.addr_len
    return total


INTS = ["-3", "-1", "0", "1", "2", "3", "x", "1.5", ""]


def in_or_out(valid, invalid):
    """Mostly in-range values, so most vectors get past argument checking."""
    return st.sampled_from(valid * 4 + invalid)


run_argv = st.tuples(
    in_or_out(["1", "2", "3"], ["-1", "0", "abc"]),                   # --shots
    in_or_out(["0", "5", str(2 ** 40)], ["-1", "1.5"]),               # --seed
    in_or_out(["functional", "circuit"], ["circut"]),                 # --backend
    st.lists(in_or_out(["c0=1", "c[1]=0", "caux[0]=1", "caux1=0"],
                       ["c[9]=1", "x=2", "=", "c0=x", "caux[-1]=1"]), max_size=1),
    st.lists(st.sampled_from(["--dump-state", "--dump-memory", "--timeline"]),
             max_size=3, unique=True),
)
metrics_argv = st.tuples(st.booleans(), st.booleans())              # --check-paper, --fig2
check_argv = st.lists(st.one_of(
    st.tuples(st.just("--addr-bits"), st.sampled_from(INTS + ["4", "99"])),
    st.tuples(st.just("--seeds"), st.sampled_from(INTS)),
    st.tuples(st.just("--modes"), st.sampled_from(
        ["all", "read-classical-cnot", "write-quantum-swap,read-foo-bar", "", "x"]))),
    max_size=3)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture
def small_step_budget(monkeypatch):
    monkeypatch.setattr(cli.qmasm, "RunConfig",
                        functools.partial(qmasm.RunConfig, max_steps=FUZZ_MAX_STEPS))


def call_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the vector
            code = exc.code
            assert code == 2, argv
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    return code


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(EXAMPLES), changes=edits, argv=run_argv)
def test_run_exits_cleanly(workdir, small_step_budget, name, changes, argv):
    text = " ".join(mutate(SOURCES[name], changes))
    assume(qubits_needed(text) <= MAX_FUZZ_QUBITS)
    path = workdir / "mutant.qmasm"
    path.write_text(text)
    shots, seed, backend, post_select, flags = argv
    vector = ["run", str(path), "--shots", shots, "--seed", seed, "--backend", backend]
    for spec in post_select:
        vector += ["--post-select", spec]
    call_main(vector + list(flags))


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=st.sampled_from(sorted(TABLES) + ["missing.csv"]), changes=edits,
       argv=metrics_argv)
def test_metrics_exits_cleanly(workdir, table, changes, argv):
    path = workdir / table
    if table in TABLES:
        path.write_text("\n".join(mutate(TABLES[table], changes)) + "\n")
        expected = table.replace(".csv", "_expected.csv")
        (workdir / expected).write_text(assets.data_path(expected).read_text())
    check_paper, fig2 = argv
    vector = ["metrics", str(path)]
    if check_paper:
        vector.append("--check-paper")
    if fig2:
        vector += ["--fig2", str(workdir / "fig2.csv")]
    call_main(vector)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(flags=check_argv)
def test_qram_check_exits_cleanly(flags):
    vector = ["qram-check"]
    for flag, value in flags:
        vector += [flag, value]
    if not any(flag == "--seeds" for flag, _ in flags):
        vector += ["--seeds", "1"]  # the default of 50 would take seconds
    call_main(vector)

"""Pinned CLI output: the exit code, stdout and stderr of `qmem run` on every
packaged example (and on one qld/reset/mreset program that the circuit
backend can run) and of `qmem qram-check`, so that a refactor which changes
any printed byte fails here.

Each entry maps an argument vector to the first 16 hex digits of the sha256
of `repr((exit_code, stdout, stderr))`. A deliberate change of output must
re-pin the affected hashes and say so in CHANGES.md.
"""

import hashlib

import pytest

from qmemsim import cli

# qld, reset, mreset and bit slices on 2 address bits, which the circuit
# backend runs (the packaged examples declare 4 and stop with exit 2 there).
QLD_RESET = """OPENQASM 3;
qubit[2] a;
qubit[1] b;
qubit[1] r;
bit[1] c;
bit[2] ca;
mem 2;
qram qr[2,1];
qinit qr [0,1,1,0];
U(1.1, 0.3, 0.7) a[0];
U(0.9, 1.3, 0.2) a[1];
h r;
qld qr(b)[a];
st [0] = r;
measure b -> c[0];
qld qr(b)[a];
reset r;
mreset 0;
h r;
st [1] = r;
mreset;
measure a[0:1] -> ca[0:];
"""

# program -> shots of its multi-shot run (qld_reset's 15-qubit circuit-backend
# shots are the slowest, so it gets fewer)
PROGRAMS = {"examples/bell_store.qmasm": "200", "examples/buffer_demo.qmasm": "200",
            "examples/qft_amplitude.qmasm": "200",
            "examples/qft_amplitude_clean.qmasm": "200", "qld_reset.qmasm": "50"}
SINGLE = ("--shots", "1", "--seed", "5", "--timeline", "--dump-memory", "--dump-state")


def _argvs():
    for program, shots in PROGRAMS.items():
        for backend in ("functional", "circuit"):
            for extra in (("--shots", shots, "--seed", "5"), SINGLE):
                yield ("run", program, "--backend", backend) + extra
    for bits in ("1", "2", "3"):
        yield ("qram-check", "--addr-bits", bits, "--seeds", "17")


GOLDEN = {
    "run examples/bell_store.qmasm --backend functional --shots 200 --seed 5":
        "2895cd93287c30cf",  # exit 0
    "run examples/bell_store.qmasm --backend functional --shots 1 --seed 5 --timeline --dump-memory --dump-state":
        "ed2cba2e42724094",  # exit 0
    "run examples/bell_store.qmasm --backend circuit --shots 200 --seed 5":
        "2895cd93287c30cf",  # exit 0
    "run examples/bell_store.qmasm --backend circuit --shots 1 --seed 5 --timeline --dump-memory --dump-state":
        "ed2cba2e42724094",  # exit 0
    "run examples/buffer_demo.qmasm --backend functional --shots 200 --seed 5":
        "214da4c58dd084b8",  # exit 0
    "run examples/buffer_demo.qmasm --backend functional --shots 1 --seed 5 --timeline --dump-memory --dump-state":
        "233475ba32f49d20",  # exit 0
    "run examples/buffer_demo.qmasm --backend circuit --shots 200 --seed 5":
        "214da4c58dd084b8",  # exit 0
    "run examples/buffer_demo.qmasm --backend circuit --shots 1 --seed 5 --timeline --dump-memory --dump-state":
        "233475ba32f49d20",  # exit 0
    "run examples/qft_amplitude.qmasm --backend functional --shots 200 --seed 5":
        "7ce5058c9620043e",  # exit 0
    "run examples/qft_amplitude.qmasm --backend functional --shots 1 --seed 5 --timeline --dump-memory --dump-state":
        "e8c4377cb1e976bd",  # exit 0
    "run examples/qft_amplitude.qmasm --backend circuit --shots 200 --seed 5":
        "cde269aced6733a2",  # exit 2
    "run examples/qft_amplitude.qmasm --backend circuit --shots 1 --seed 5 --timeline --dump-memory --dump-state":
        "cde269aced6733a2",  # exit 2
    "run examples/qft_amplitude_clean.qmasm --backend functional --shots 200 --seed 5":
        "6fe1137f9ce5cbb5",  # exit 0
    "run examples/qft_amplitude_clean.qmasm --backend functional --shots 1 --seed 5 --timeline --dump-memory --dump-state":
        "242f378f09a670dc",  # exit 0
    "run examples/qft_amplitude_clean.qmasm --backend circuit --shots 200 --seed 5":
        "a4100f902474b4f8",  # exit 2
    "run examples/qft_amplitude_clean.qmasm --backend circuit --shots 1 --seed 5 --timeline --dump-memory --dump-state":
        "a4100f902474b4f8",  # exit 2
    "run qld_reset.qmasm --backend functional --shots 50 --seed 5":
        "df33b2602f39658d",  # exit 0
    "run qld_reset.qmasm --backend functional --shots 1 --seed 5 --timeline --dump-memory --dump-state":
        "f990271c3d4f9bc9",  # exit 0
    "run qld_reset.qmasm --backend circuit --shots 50 --seed 5":
        "df33b2602f39658d",  # exit 0
    "run qld_reset.qmasm --backend circuit --shots 1 --seed 5 --timeline --dump-memory --dump-state":
        "a4943090b3f8fd0f",  # exit 0
    "qram-check --addr-bits 1 --seeds 17":
        "dd6c106a4005f2b9",  # exit 0
    "qram-check --addr-bits 2 --seeds 17":
        "44a4c705cc4d3bd5",  # exit 0
    "qram-check --addr-bits 3 --seeds 17":
        "2362ed238a41e302",  # exit 0
}


@pytest.fixture(scope="module")
def qld_reset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "qld_reset.qmasm"
    path.write_text(QLD_RESET)
    return str(path)


def output_hash(capsys, argv) -> str:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    blob = repr((code, captured.out, captured.err)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("argv", list(_argvs()), ids=" ".join)
def test_cli_output_is_pinned(capsys, qld_reset_path, argv):
    local = [qld_reset_path if a == "qld_reset.qmasm" else a for a in argv]
    assert output_hash(capsys, local) == GOLDEN[" ".join(argv)]

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qmemsim import assets, cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_bell_store_shots(self, capsys):
        code, out, err = run_cli(capsys, "run", "examples/bell_store.qmasm",
                                 "--shots", "100", "--seed", "1")
        assert code == 0
        assert "shots: 100" in out
        assert "counts[c]:" in out
        counts = out.split("counts[c]:")[1].strip()
        assert "00:" in counts and "11:" in counts
        assert "01" not in counts and "10" not in counts

    def test_deterministic_reports(self, capsys):
        a = run_cli(capsys, "run", "examples/bell_store.qmasm", "--shots", "50",
                    "--seed", "9")
        b = run_cli(capsys, "run", "examples/bell_store.qmasm", "--shots", "50",
                    "--seed", "9")
        assert a == b

    def test_post_select_and_dump(self, capsys):
        code, out, err = run_cli(capsys, "run", "examples/qft_amplitude.qmasm",
                                 "--seed", "7", "--post-select", "caux0=1",
                                 "--dump-state", "--dump-memory")
        assert code == 0
        assert "caux=01" in out
        assert "fidelity-vs-oracle: 1.000000000000" in out
        assert "memory:" in out and "state:" in out
        assert "zero-padded" in err

    def test_post_select_must_name_declared_bit(self, capsys):
        code, _, err = run_cli(capsys, "run", "examples/bell_store.qmasm",
                               "--post-select", "nosuch0=1")
        assert code == 1
        assert "undeclared bit" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "missing.qmasm")
        assert code == 2
        assert "cannot read" in err

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.qmasm"
        bad.write_bytes(b"\xff\xfeOPENQASM 3;\n")
        code, out, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec")
        assert err.count("\n") == 1 and out == ""

    def test_validation_error_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.qmasm"
        bad.write_text("OPENQASM 3;\nqubit[2] q;\nst [0] = q;\n")
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 1
        assert "error" in err

    def test_runtime_error_exits_2(self, capsys, tmp_path):
        src = tmp_path / "oob.qmasm"
        src.write_text("OPENQASM 3;\nqubit[1] q;\nmem 2;\nint i = 7;\nld q = [i];\n")
        code, _, err = run_cli(capsys, "run", str(src))
        assert code == 2
        assert "AddressError" in err

    @pytest.mark.parametrize("spec", ["c0=x", "nonsense"])
    def test_bad_post_select_spec_exits_1(self, capsys, spec):
        code, _, err = run_cli(capsys, "run", "examples/bell_store.qmasm",
                               "--post-select", spec)
        assert code == 1
        assert err.startswith("error: bad post-select spec")
        assert "Traceback" not in err

    def test_negative_seed_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "run", "examples/bell_store.qmasm",
                                 "--seed", "-1")
        assert code == 1
        assert err == "error: --seed must be >= 0\n"
        assert out == ""

    def test_division_by_zero_exits_2(self, capsys, tmp_path):
        src = tmp_path / "div.qmasm"
        src.write_text("OPENQASM 3;\nqubit[1] q;\nint k = 0;\nint j = 3 / k;\n")
        code, _, err = run_cli(capsys, "run", str(src))
        assert code == 2
        assert "ShotError: division by zero at line 4" in err

    @pytest.mark.parametrize("line, code, message", [
        ("qubit[\u00b2] q;", 1, "parse error: unexpected character '\u00b2' at line 2, column 7"),
        (f"qubit[{'9' * 5000}] q;", 1,
         "parse error: integer literal of 5000 digits is too long at line 2, column 7"),
        (f"qubit[1] q; int k = {'1' * 5000};", 1,
         "parse error: integer literal of 5000 digits is too long at line 2, column 21"),
        (f"qubit[1] q; bit[2] c = [{'1' * 5000}, 0];", 1,
         "parse error: integer literal of 5000 digits is too long at line 2, column 25"),
        ("qubit[1] q; bit[2] c = [2, 0];", 1,
         "error: bit literal element 2 is not 0 or 1 (line 2, col 13)"),
        ("qubit[1] q; qram r[20000,1]; qinit r [0];", 1,
         "error: qinit literal length 1 != expected 2^20000 * 1 (line 2, col 30)"),
        ("", 2, "error: program declares no qubits"),
    ], ids=["superscript-digit", "long-size", "long-int", "long-bit", "bit-value",
            "wide-qinit", "no-qubits"])
    def test_malformed_program_exits_with_one_line(self, capsys, tmp_path, line, code, message):
        src = tmp_path / "bad.qmasm"
        src.write_text(f"OPENQASM 3;\n{line}\n", encoding="utf-8")
        assert run_cli(capsys, "run", str(src)) == (code, "", message + "\n")

    def test_non_ascii_decimal_digits_are_integers(self, capsys, tmp_path):
        src = tmp_path / "digits.qmasm"
        src.write_text("OPENQASM 3;\nqubit[1] q;\nint k = \u0663;\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "run", str(src))
        assert code == 0 and "k=3\n" in out

    def test_timeline_report(self, capsys):
        code, out, _ = run_cli(capsys, "run", "examples/bell_store.qmasm",
                               "--timeline")
        assert code == 0
        assert "timeline:" in out
        assert "fidelity-estimate (heuristic):" in out


# A 22-qubit circuit-backend program: 3 address qubits, a bus, a 3x1 QRAM's
# 8 memory cells, 7 routers and 3 channels; its state is 64 MiB.
QLD_22 = """OPENQASM 3;
qubit[3] a;
qubit[1] b;
bit[1] c;
qram qr[3,1];
qinit qr [0,1,1,0,1,0,0,1];
U(1.1, 0.4, 2.0) a[0];
U(0.8, 1.9, 0.3) a[1];
U(2.2, 5.1, 1.4) a[2];
qld qr(b)[a];
measure b -> c[0];
"""

PEAK_RSS = """import resource, sys
from qmemsim import cli
code = cli.main(sys.argv[1:])
print("peak-kib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, code)
"""


def test_run_memory_does_not_grow_with_shots(tmp_path):
    """`qmem run` keeps only the last shot's state, so 8 shots of a 22-qubit
    program peak less than one state size above 1 shot (ru_maxrss, fresh
    process each)."""
    program = tmp_path / "qld22.qmasm"
    program.write_text(QLD_22)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    peak = {}
    for shots in (1, 8):
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS, "run", str(program), "--backend",
             "circuit", "--shots", str(shots), "--seed", "3"],
            env=env, capture_output=True, text=True, timeout=300)
        last = proc.stdout.splitlines()[-1].split()
        assert last[0] == "peak-kib" and last[2] == "0", proc.stdout + proc.stderr
        peak[shots] = int(last[1])
    state_kib = (16 << 22) // 1024
    assert peak[8] - peak[1] < state_kib, peak


class TestMetrics:
    def test_table_emitted(self, capsys):
        code, out, _ = run_cli(capsys, "metrics", "data/table1.csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("name,t_storage_s")
        assert header.endswith("t_rw_s,alpha_in,alpha_ex,alpha_qmd,beta,gamma")
        assert "transmon" in out

    def test_check_paper_table1(self, capsys):
        code, _, err = run_cli(capsys, "metrics", "data/table1.csv", "--check-paper")
        assert code == 0
        assert "39/39 comparisons pass" in err
        assert "FAIL" not in err

    def test_check_paper_table3(self, capsys):
        code, _, err = run_cli(capsys, "metrics", "data/table3_raqm.csv",
                               "--check-paper")
        assert code == 0
        assert "25/25 comparisons pass" in err

    def test_fig2_export(self, capsys, tmp_path):
        out_path = tmp_path / "fig2.csv"
        code, _, err = run_cli(capsys, "metrics", "data/table1.csv",
                               "--fig2", str(out_path))
        assert code == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_name = {r["name"]: r for r in rows}
        assert by_name["nv-ensemble"]["clamped"] == "clamped"
        assert float(by_name["nv-ensemble"]["alpha_ex_plotted"]) == 0.5
        assert by_name["transmon"]["clamped"] == "clamped"
        assert by_name["mw-cavity-3d"]["clamped"] == ""
        assert by_name["refline-lo"]["clamped"] == "refline"

    def test_bad_dataset_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("name,t_storage_s,tau_rw_s,eta,t_op_s,t_addr_s,n_cells,"
                       "n_parallel,notes\nx,1.0,1e-3,1.2,,,1,1,\n")
        code, _, err = run_cli(capsys, "metrics", str(bad))
        assert code == 1
        assert "row 2" in err

    def test_non_utf8_dataset_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"name,t_storage_s\n\xff\n")
        code, out, err = run_cli(capsys, "metrics", str(bad))
        assert code == 2
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec")
        assert err.count("\n") == 1 and out == ""

    @staticmethod
    def with_expected(tmp_path, expected: bytes):
        """A copy of table1.csv at t.csv, with `expected` as t_expected.csv."""
        table = tmp_path / "t.csv"
        table.write_bytes(assets.data_path("table1.csv").read_bytes())
        (tmp_path / "t_expected.csv").write_bytes(expected)
        return str(table)

    def test_non_utf8_expected_file_exits_2(self, capsys, tmp_path):
        table = self.with_expected(tmp_path, b"name,alpha_in\n\xffx,1\n")
        code, _, err = run_cli(capsys, "metrics", table, "--check-paper")
        assert code == 2
        assert err.startswith("error: cannot read ") and "t_expected.csv" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("expected, message", [
        (b"label,alpha_in\nx,1\n", "dataset error: "),   # no name column
        (b"alpha_in,name\n1\n", "FAIL\t\tmissing-record"),  # a row cut short
    ], ids=["no-name-column", "short-row"])
    def test_malformed_expected_file_exits_1(self, capsys, tmp_path, expected, message):
        table = self.with_expected(tmp_path, expected)
        code, _, err = run_cli(capsys, "metrics", table, "--check-paper")
        assert code == 1
        assert err.startswith(message) and "Traceback" not in err

    @pytest.mark.parametrize("where", ["missing/fig2.csv", "."])
    def test_unwritable_fig2_path_exits_2(self, capsys, tmp_path, where):
        target = tmp_path / where
        code, _, err = run_cli(capsys, "metrics", "data/table1.csv", "--fig2", str(target))
        assert code == 2
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1


class TestQramCheck:
    def test_small_sweep_passes(self, capsys):
        code, out, err = run_cli(capsys, "qram-check", "--addr-bits", "2",
                                 "--modes", "all", "--seeds", "2")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 16
        fields = lines[0].split("\t")
        assert len(fields) == 7 and fields[-1] == "PASS"
        assert "0 failure(s)" in err

    def test_single_mode(self, capsys):
        code, out, _ = run_cli(capsys, "qram-check", "--addr-bits", "3",
                               "--modes", "read-classical-cnot", "--seeds", "1")
        assert code == 0
        assert out.count("PASS") == 1

    def test_budget_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "qram-check", "--addr-bits", "5")
        assert code == 1
        assert "at most 3" in err

    @pytest.mark.parametrize("argv", [("--addr-bits", "0"), ("--seeds", "-1"),
                                      ("--seeds", "0")])
    def test_counts_must_be_positive(self, capsys, argv):
        code, out, err = run_cli(capsys, "qram-check", *argv)
        assert code == 1
        assert err == f"error: {argv[0]} must be >= 1\n"
        assert out == ""

    def test_bad_mode_name(self, capsys):
        code, _, err = run_cli(capsys, "qram-check", "--modes", "read-foo-bar")
        assert code == 1
        assert "bad mode" in err

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mersenne_doubling.cli import main


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_period_output(capsys):
    code, out, _ = run_cli(capsys, "period", 5)
    assert code == 0
    assert re.fullmatch(r"q=5 period=4 steps=2 seconds=\d+\.\d{6}\n", out)


def test_period_tsv(capsys):
    code, out, _ = run_cli(capsys, "period", 13, "--tsv")
    assert code == 0
    assert re.fullmatch(r"13\t12\t6\t\d+\.\d{6}\n", out)


def test_period_usage_errors(capsys):
    code, out, err = run_cli(capsys, "period", 6)
    assert code == 2
    assert out == ""
    assert "odd" in err

    code, _, _ = run_cli(capsys, "period", "florp")
    assert code == 2

    code, _, _ = run_cli(capsys, "period", 1)
    assert code == 2


def test_no_command_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_histogram_output(capsys):
    code, out, _ = run_cli(capsys, "histogram", 13)
    assert code == 0
    assert out == "1\t3\n2\t1\n3\t1\n4\t1\n"

    code, out, _ = run_cli(capsys, "histogram", 5)
    assert code == 0
    assert out == "1\t1\n3\t1\n"


def test_period_and_histogram_report_stream_path(capsys):
    # 4194371 is prime with order 4194370, above the lane cutoff.
    for q, period, path in ((13, 12, "bigint"), (4194371, 4194370, "lanes")):
        for command in ("period", "histogram"):
            code, _, err = run_cli(capsys, command, q)
            assert code == 0
            assert re.fullmatch(
                rf"q={q} period={period} path={path} doublings={period} "
                r"ns_per_doubling=\d+\.\d{3} seconds=\d+\.\d{6}\n", err), (command, err)


def test_is_prime_output(capsys):
    code, out, _ = run_cli(capsys, "is-prime", 143047813)
    assert code == 0
    assert out == "n=143047813 verdict=prime\n"

    code, out, _ = run_cli(capsys, "is-prime", 2047, "--tsv")
    assert code == 0
    assert out == "2047\tcomposite\n"

    code, out, _ = run_cli(capsys, "is-prime", 2)
    assert code == 0
    assert out == "n=2 verdict=prime\n"

    code, out, _ = run_cli(capsys, "is-prime", 2**64 - 59, "--prime-bound", 2**32)
    assert code == 0
    assert out == "n=18446744073709551557 verdict=prime\n"


def test_is_prime_capacity_exit_code(capsys):
    code, out, err = run_cli(capsys, "is-prime", 2_250_001, "--prime-bound", 1500)
    assert code == 3
    assert out == ""
    assert "capacity" in err


def test_find_divisor_output(capsys):
    code, out, _ = run_cli(capsys, "find-divisor", 11)
    assert code == 0
    assert re.fullmatch(r"n=11 q=23 l=1 seconds=\d+\.\d{6}\n", out)

    code, out, _ = run_cli(capsys, "find-divisor", 29, "--tsv")
    assert code == 0
    assert re.fullmatch(r"29\t233\t4\t\d+\.\d{6}\n", out)

    code, out, _ = run_cli(capsys, "find-divisor", 13, "--l-max", 100)
    assert code == 0
    assert out == "none found\n"

    assert run_cli(capsys, "find-divisor", 12)[0] == 2


def test_scan_files_and_summary(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "scan", 5, 15, "--out-dir", tmp_path, "--workers", 1)
    assert code == 0
    lines = out.splitlines()
    assert lines == [
        f"large-prime\t0\t{tmp_path / 'large_prime_periods.tsv'}",
        f"small-prime\t1\t{tmp_path / 'small_prime_periods.tsv'}",
        f"odd-nonprime\t0\t{tmp_path / 'odd_nonprime_periods.tsv'}",
        f"even\t5\t{tmp_path / 'even_periods.tsv'}",
    ]
    assert (tmp_path / "small_prime_periods.tsv").read_text() == "3\t7\t3\n"


def test_scan_direction_same_files(capsys, tmp_path):
    up_dir, down_dir = tmp_path / "up", tmp_path / "down"
    assert run_cli(capsys, "scan", 5, 99, "--out-dir", up_dir, "--workers", 1)[0] == 0
    assert run_cli(capsys, "scan", 99, 5, "--out-dir", down_dir, "--workers", 1)[0] == 0
    for name in ("large_prime_periods.tsv", "small_prime_periods.tsv",
                 "odd_nonprime_periods.tsv", "even_periods.tsv"):
        assert (up_dir / name).read_bytes() == (down_dir / name).read_bytes()


def test_scan_largest_prime_below_2_64(capsys, tmp_path):
    q = 2**64 - 59
    assert run_cli(capsys, "scan", q, q, "--out-dir", tmp_path, "--workers", 1)[0] == 0
    rows = [line.split("\t") for path in sorted(tmp_path.iterdir())
            for line in path.read_text().splitlines()]
    assert [row[1] for row in rows] == [str(q)]


def test_scan_usage_error(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "scan", 4, 10, "--out-dir", tmp_path)
    assert code == 2
    assert out == ""
    assert not (tmp_path / "even_periods.tsv").exists()


def test_mersenne_test_output(capsys):
    code, out, err = run_cli(capsys, "mersenne-test", 31, "--workers", 1)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j\tv\trel\tverdict"
    assert lines[1] == "2\t-\t-\tprime"
    assert "11\t3\t<=\tcomposite" in lines
    assert "31\t0\t>\tprime" in lines
    assert "n0=31 sqrt_bound=46340 candidates=11584" in err
    assert re.search(r" lane_steps=359104 ns_per_lane_step=\d+\.\d\d seconds=", err)


def test_mersenne_test_tiny(capsys):
    code, out, err = run_cli(capsys, "mersenne-test", 3, "--workers", 1)
    assert code == 0
    assert out.splitlines()[2] == "3\t0\t>\tprime"
    assert "candidates=0 lane_steps=0 ns_per_lane_step=nan" in err


def test_mersenne_test_errors(capsys):
    assert run_cli(capsys, "mersenne-test", 4)[0] == 2
    assert run_cli(capsys, "mersenne-test", 131)[0] == 3


def test_bench_kappa_output(capsys):
    code, out, err = run_cli(capsys, "bench-kappa", "--qs", "13", "--kappas", "1..3")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 3
    assert all(re.fullmatch(r"kappa=\d q=13 period=12 steps=6 seconds=\d+\.\d{6}", r)
               for r in rows)
    assert err == ""


def test_bench_kappa_skips_small_q(capsys):
    code, out, err = run_cli(capsys, "bench-kappa", "--qs", "13,121", "--kappas", "4")
    assert code == 0
    assert "q=121" in out and "q=13" not in out
    assert "skipping q=13" in err


def test_bench_kappa_usage_errors(capsys):
    assert run_cli(capsys, "bench-kappa", "--qs", "13", "--kappas", "0..2")[0] == 2
    assert run_cli(capsys, "bench-kappa", "--qs", "13", "--kappas", "65")[0] == 2
    assert run_cli(capsys, "bench-kappa", "--qs", "13", "--kappas", "x..y")[0] == 2
    assert run_cli(capsys, "bench-kappa", "--qs", "a,b", "--kappas", "1..2")[0] == 2


def test_env_variables_supply_defaults(capsys, monkeypatch):
    monkeypatch.setenv("MDBL_TSV", "1")
    code, out, _ = run_cli(capsys, "is-prime", 7)
    assert code == 0
    assert out == "7\tprime\n"


def test_flags_override_env(capsys, monkeypatch):
    monkeypatch.setenv("MDBL_PRIME_BOUND", "1")  # invalid on purpose
    assert run_cli(capsys, "is-prime", 7)[0] == 2
    code, out, _ = run_cli(capsys, "is-prime", 7, "--prime-bound", 100)
    assert code == 0
    assert out == "n=7 verdict=prime\n"


def test_env_l_max(capsys, monkeypatch):
    monkeypatch.setenv("MDBL_L_MAX", "100")
    code, out, _ = run_cli(capsys, "find-divisor", 13)
    assert code == 0
    assert out == "none found\n"


def test_env_prime_bound(capsys, monkeypatch):
    monkeypatch.setenv("MDBL_PRIME_BOUND", "1500")
    assert run_cli(capsys, "is-prime", 2_250_001)[0] == 3
    assert run_cli(capsys, "is-prime", 2_250_001, "--prime-bound", 2000)[0] == 0


def test_env_out_dir(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("MDBL_OUT_DIR", str(tmp_path / "from-env"))
    code, out, _ = run_cli(capsys, "scan", 5, 9, "--workers", 1)
    assert code == 0
    assert (tmp_path / "from-env" / "even_periods.tsv").exists()


def test_bad_env_value_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("MDBL_L_MAX", "two")
    code, out, err = run_cli(capsys, "find-divisor", 11)
    assert code == 2
    assert out == ""
    assert "MDBL_L_MAX" in err


def test_commands_take_only_their_own_flags(capsys, monkeypatch, tmp_path):
    # A variable is read only by the subcommands that take its flag.
    monkeypatch.setenv("MDBL_L_MAX", "two")
    monkeypatch.setenv("MDBL_WORKERS", "two")
    code, out, _ = run_cli(capsys, "period", 5)
    assert code == 0
    assert out.startswith("q=5 period=4")
    monkeypatch.setenv("MDBL_PRIME_BOUND", "1")  # invalid, and not read by scan
    monkeypatch.setenv("MDBL_OUT_DIR", str(tmp_path))
    assert run_cli(capsys, "scan", 5, 9, "--workers", 1)[0] == 0
    # A flag the subcommand does not read is a usage error.
    assert run_cli(capsys, "histogram", 13, "--l-max", 5)[0] == 2
    assert run_cli(capsys, "histogram", 13, "--out-dir", tmp_path)[0] == 2
    assert run_cli(capsys, "scan", 5, 9, "--prime-bound", 100)[0] == 2
    assert run_cli(capsys, "period", 5, "--kappa", 2)[0] == 2


def test_module_entry_point():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "mersenne_doubling", "period", "5"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("q=5 period=4 steps=2")

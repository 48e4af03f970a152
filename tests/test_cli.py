import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mersenne_doubling import cli, dynamics
from mersenne_doubling.cli import main
from mersenne_doubling.detector import STREAM_FILES
from mersenne_doubling.dynamics import _count_reductions, _flight_counts_stream
from mersenne_doubling.primality import factor


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
    # 4194371 and 4291434391 are prime, with orders above the lane cutoff.
    # 4877318423 = 131213 * 37171 has order 7741508, above the lane cutoff
    # and below the split's, and 33 bits: its lanes step 31-bit digits for
    # the count and 30-bit digits for the histogram.
    # 2877926213 is composite, split into orbits of 2039 and 70348 for the
    # count and of 1636 and 87677 for the histogram.  width is the lane
    # digit width of period, then of histogram, and 0 off the lanes.
    for q, period, path, widths in ((13, 12, "bigint", (0, 0)), (4194371, 4194370, "lanes", (32, 32)),
                                    (4291434391, 143047813, "lanes", (32, 32)),
                                    (4877318423, 7741508, "lanes", (31, 30)),
                                    (2877926213, 143439572, "split", (0, 0))):
        for command, width in zip(("period", "histogram"), widths):
            code, _, err = run_cli(capsys, command, q)
            assert code == 0
            assert re.fullmatch(
                rf"q={q} period={period} path={path} width={width} doublings={period} "
                r"ns_per_doubling=\d+\.\d{3} seconds=\d+\.\d{6}\n", err), (command, err)


def test_range_commands_over_their_caps_fail_up_front(capsys, monkeypatch, tmp_path):
    # Each used to run until it was stopped.  Now: exit 3, empty stdout, one
    # error line, no --out-dir made, at once.
    out_dir = tmp_path / "out"
    top = 2**64 - 59
    commands = {
        ("find-divisor", 61, "--l-max", 10**12):
            "divisor search of l_max = 1000000000000 candidates exceeds the cap of 100000000",
        ("scan", 5, top, "--out-dir", out_dir): f"the scan 5..{top} takes {2**63 - 31} odd q, over the cap of {2**22}",
        ("scan", top, 5, "--out-dir", out_dir): f"the scan {top}..5 takes {2**63 - 31} odd q, over the cap of {2**22}",
    }
    for args, message in commands.items():
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *args)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (3, "", f"error: {message}\n"), args
    monkeypatch.setenv("MDBL_L_MAX", str(10**8 + 1))
    assert run_cli(capsys, "find-divisor", 61) == (
        3, "", "error: divisor search of l_max = 100000001 candidates exceeds the cap of 100000000\n")
    assert run_cli(capsys, "find-divisor", 13, "--l-max", 10**8)[:2] == (0, "none found\n")
    assert not out_dir.exists()


def test_split_prints_what_the_stream_prints(capsys):
    q, n = 2877926213, 143439572
    _, out, _ = run_cli(capsys, "period", q)
    assert re.fullmatch(rf"q={q} period={n} steps={_count_reductions(q, n)} seconds=\d+\.\d{{6}}\n", out)
    _, out, _ = run_cli(capsys, "histogram", q)
    assert out == "".join(f"{t}\t{c}\n" for t, c in enumerate(_flight_counts_stream(q, n)) if c)


def test_period_and_histogram_factor_q_once(capsys, monkeypatch):
    # The command counts with the plan it reports: q is factored once, for
    # the order and the plan, on the lanes and on the split.
    calls = []
    monkeypatch.setattr(dynamics, "factor", lambda n: calls.append(n) or factor(n))
    for q in (4291434391, 1928914067, 2877926213):
        for command in ("period", "histogram"):
            calls.clear()
            code, _, err = run_cli(capsys, command, q)
            assert code == 0 and calls.count(q) == 1, (command, q, calls)
    assert "path=split" in err


def test_stream_over_the_cap_fails_up_front(capsys):
    # 2**64 - 59 is prime, of order 2**64 - 60: no stream is started.
    for command in ("period", "histogram"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, 2**64 - 59)
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == (f"error: the period of 1/{2**64 - 59} is n = {2**64 - 60}, and streaming it "
                       f"exceeds the cap of {2**42} doublings\n")


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


def test_find_divisor_takes_any_64_bit_prime(capsys):
    # 4000000000039 lies above the 4e12 capacity of is-prime's default table.
    code, out, _ = run_cli(capsys, "find-divisor", 4000000000039)
    assert code == 0
    assert re.fullmatch(r"n=4000000000039 q=10600000000103351 l=1325 seconds=\d+\.\d{6}\n", out)

    code, out, err = run_cli(capsys, "find-divisor", 2**64 + 13)
    assert code == 3
    assert out == ""
    assert "2**64" in err

    assert run_cli(capsys, "find-divisor", 11, "--prime-bound", 100)[0] == 2


def test_scan_files_and_summary(capsys, tmp_path):
    code, out, err = run_cli(capsys, "scan", 5, 15, "--out-dir", tmp_path, "--workers", 1)
    assert code == 0
    assert re.fullmatch(r"q_lo=5 q_hi=15 records=6 workers=1 seconds=\d+\.\d{6}\n", err)
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


def test_scan_out_dir_in_the_way_fails_before_the_scan(capsys, monkeypatch, tmp_path):
    def no_scan(*args, **kwargs):
        raise AssertionError("scan_range ran before --out-dir was checked")

    monkeypatch.setattr(cli, "scan_range", no_scan)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out_dir in (blocker, blocker / "sub"):  # FileExistsError, NotADirectoryError
        code, out, err = run_cli(capsys, "scan", 5, 99, "--out-dir", out_dir)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --out-dir: ") and err.count("\n") == 1


def test_scan_stream_file_in_the_way_fails_before_the_scan(capsys, monkeypatch, tmp_path):
    def no_scan(*args, **kwargs):
        raise AssertionError("scan_range ran before the stream files were checked")

    monkeypatch.setattr(cli, "scan_range", no_scan)
    (tmp_path / STREAM_FILES["even"]).mkdir()
    others = [tmp_path / name for tag, name in STREAM_FILES.items() if tag != "even"]
    for path in others:
        path.write_text("old rows\n")
        os.utime(path, (0, 0))
    code, out, err = run_cli(capsys, "scan", 5, 99, "--out-dir", tmp_path)
    assert (code, out) == (2, "")
    assert err.startswith("error: --out-dir: ") and "even_periods.tsv" in err and err.count("\n") == 1
    for path in others:
        assert path.read_text() == "old rows\n" and path.stat().st_mtime == 0, path


def test_scan_rewrites_out_dir_without_stale_bytes(capsys, tmp_path):
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert run_cli(capsys, "scan", 5, 99, "--out-dir", reused, "--workers", 1)[0] == 0
    assert run_cli(capsys, "scan", 5, 15, "--out-dir", reused, "--workers", 1)[0] == 0
    assert run_cli(capsys, "scan", 5, 15, "--out-dir", fresh, "--workers", 1)[0] == 0
    for name in STREAM_FILES.values():
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name


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


def test_workers_below_one_is_a_usage_error(capsys, monkeypatch, tmp_path):
    # Both commands that take --workers refuse fewer than one, from the flag
    # or from MDBL_WORKERS, before any work: no census, no scan, and no
    # --out-dir made.
    out_dir = tmp_path / "out"
    commands = [("mersenne-test", 13), ("scan", 5, 99, "--out-dir", out_dir)]
    for workers in (0, -1, -2):
        for command in commands:
            code, out, err = run_cli(capsys, *command, "--workers", workers)
            assert (code, out, err) == (2, "", f"error: workers must be >= 1, got {workers}\n"), command
    monkeypatch.setenv("MDBL_WORKERS", "0")
    for command in commands:
        assert run_cli(capsys, *command) == (2, "", "error: workers must be >= 1, got 0\n"), command
    assert not out_dir.exists()


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


def test_bench_kappa_refuses_a_period_over_the_cap_up_front(capsys):
    # 2**64 - 59 is prime, of order 2**64 - 60: refused before any row, even
    # the rows of a q listed before it.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bench-kappa", "--qs", f"13,{2**64 - 59}", "--kappas", "1..2")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == (f"error: the period of 1/{2**64 - 59} is n = {2**64 - 60}, and stepping it "
                   f"exceeds the cap of {2**32} doublings\n")
    assert 143059453 <= cli._MAX_KAPPA_DOUBLINGS  # the slow tier's reference row 4291783591


def test_bench_kappa_cap_from_both_sides(capsys, monkeypatch):
    # 121 = 11**2 has order 110, 13 order 12.  A q that no kappa runs (here
    # 13 < 2**4) is not gated.
    monkeypatch.setattr(cli, "_MAX_KAPPA_DOUBLINGS", 110)
    code, out, _ = run_cli(capsys, "bench-kappa", "--qs", "13,121", "--kappas", "1..2")
    assert code == 0 and len(out.splitlines()) == 4
    monkeypatch.setattr(cli, "_MAX_KAPPA_DOUBLINGS", 109)
    code, out, err = run_cli(capsys, "bench-kappa", "--qs", "13,121", "--kappas", "1..2")
    assert (code, out) == (3, "") and "n = 110" in err
    monkeypatch.setattr(cli, "_MAX_KAPPA_DOUBLINGS", 11)
    code, out, _ = run_cli(capsys, "bench-kappa", "--qs", "13,1025", "--kappas", "4..5")
    assert (code, out) == (3, "")
    code, out, _ = run_cli(capsys, "bench-kappa", "--qs", "13,7", "--kappas", "4")
    assert code == 0 and out == ""


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
    monkeypatch.setenv("MDBL_PRIME_BOUND", "1")  # invalid, and not read by scan or find-divisor
    monkeypatch.setenv("MDBL_OUT_DIR", str(tmp_path))
    assert run_cli(capsys, "scan", 5, 9, "--workers", 1)[0] == 0
    code, out, _ = run_cli(capsys, "find-divisor", 11, "--l-max", 10)
    assert code == 0
    assert out.startswith("n=11 q=23 l=1 ")
    # A flag the subcommand does not read is a usage error.
    assert run_cli(capsys, "histogram", 13, "--l-max", 5)[0] == 2
    assert run_cli(capsys, "histogram", 13, "--out-dir", tmp_path)[0] == 2
    assert run_cli(capsys, "scan", 5, 9, "--prime-bound", 100)[0] == 2
    assert run_cli(capsys, "period", 5, "--kappa", 2)[0] == 2


HELP_TEXT = Path(__file__).with_name("cli_help.txt").read_text()


def test_help_text_unchanged(capsys, monkeypatch):
    # tests/cli_help.txt holds `mdbl [<command>] --help` at 80 columns, one
    # section per command, each under a "### <command line>" header.
    monkeypatch.setenv("COLUMNS", "80")
    sections = dict(part.split("\n", 1) for part in HELP_TEXT.split("### ")[1:])
    assert len(sections) == 8
    for header, text in sections.items():
        code, out, _ = run_cli(capsys, *header.split()[1:])
        assert (code, out) == (0, text), header


def test_repeated_calls_in_one_process(capsys, tmp_path):
    # The parser is built once and shared; each call gets the same output.
    commands = [
        ("histogram", 13),
        ("is-prime", 2047, "--tsv"),
        ("is-prime", 2_250_001, "--prime-bound", 1500),
        ("find-divisor", 13, "--l-max", 100),
        ("mersenne-test", 31, "--workers", 1),
        ("scan", 5, 99, "--out-dir", tmp_path, "--workers", 2),
        ("period", 6),
        ("scan", 5, 9, "--prime-bound", 100),
        ("scan", "--help"),
    ]
    first = [run_cli(capsys, *args)[:2] for args in commands]
    files = sorted((path.name, path.read_bytes()) for path in tmp_path.iterdir())
    assert [code for code, _ in first] == [0, 0, 3, 0, 0, 0, 2, 2, 0]
    assert [run_cli(capsys, *args)[:2] for args in commands] == first
    assert sorted((path.name, path.read_bytes()) for path in tmp_path.iterdir()) == files


def test_usage_error_then_valid_command(capsys):
    for bad in (("period", "florp"), ("histogram", 13, "--l-max", 5), ("no-such-command",)):
        assert run_cli(capsys, *bad)[0] == 2
        code, out, _ = run_cli(capsys, "period", 13, "--tsv")
        assert code == 0
        assert re.fullmatch(r"13\t12\t6\t\d+\.\d{6}\n", out)


def test_env_change_read_on_next_call(capsys, monkeypatch):
    monkeypatch.setenv("MDBL_TSV", "1")
    assert run_cli(capsys, "is-prime", 7)[1] == "7\tprime\n"
    monkeypatch.setenv("MDBL_TSV", "0")
    assert run_cli(capsys, "is-prime", 7)[1] == "n=7 verdict=prime\n"
    monkeypatch.setenv("MDBL_L_MAX", "0")
    assert run_cli(capsys, "find-divisor", 11)[1] == "none found\n"
    monkeypatch.delenv("MDBL_L_MAX")
    assert run_cli(capsys, "find-divisor", 11)[1].startswith("n=11 q=23 l=1 ")


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

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cyclogcd.cli import main, parse_poly
from cyclogcd.ffield import fq_context


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_parse_poly():
    f2 = fq_context(2, 1)
    assert parse_poly("0,1", f2).coeffs == (0, 1)
    assert parse_poly("1,1", f2).coeffs == (1, 1)
    assert parse_poly("3,0,1", f2).coeffs == (1, 0, 1)   # 3 mod 2 = 1
    with pytest.raises(ValueError):
        parse_poly("", f2)
    with pytest.raises(ValueError):
        parse_poly("1,x", f2)


def test_gcd_seq_json(capsys):
    code, out = run_cli(["gcd-seq", "--a", "2", "--b", "3", "--N", "1", "--n-max", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["version"]
    assert doc["config"]["subcommand"] == "gcd-seq"
    assert [r["gcd"] for r in doc["report"]["rows"]] == [1, 1, 1, 5]


def test_gcd_seq_csv(capsys):
    code, out = run_cli(
        ["gcd-seq", "--a", "2", "--b", "3", "--N", "1", "--n-max", "4", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# version=")
    assert lines[1].startswith("# config=")
    assert lines[2] == "n,gcd,log_gcd,distinct_prime_count"
    assert lines[3].startswith("1,1,")
    assert lines[6].startswith("4,5,")


def test_csv_rows_across_batches_and_none(capsys):
    # rows go out in batches of 4096: one partial batch past two full ones, and none
    code, out = run_cli(["delta", "--limit", "9000", "--format", "csv"], capsys)
    assert code == 0
    _, json_out = run_cli(["delta", "--limit", "9000"], capsys)
    rows = json.loads(json_out)["report"]["rows"]
    assert out.split("\n")[2:] == ["n,delta"] + [f"{r['n']},{r['delta']}" for r in rows] + [""]
    code, out = run_cli(["gcd-seq", "--a", "2", "--b", "3", "--N", "1", "--n-max", "0",
                         "--format", "csv"], capsys)
    assert code == 0
    assert out.split("\n")[2:] == ["n,gcd,log_gcd,distinct_prime_count", ""]


def test_density_reports_fraction_and_decimal(capsys):
    code, out = run_cli(
        ["density", "--N", "2", "--d", "1", "--a", "2", "--b", "3", "--x", "5000"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["ratio"] == "1/8"
    assert doc["report"]["ratio_decimal"] == 0.125
    assert doc["report"]["count"] > 0


def test_density_factors_each_base_once(monkeypatch, capsys):
    # the gate, the prediction, its re-gate and each block's quadratic field all factor a =
    # 100000000003 * 300000000077; the cache leaves one Pollard rho run, which splits it
    from cyclogcd import arith

    calls, real = [], arith._pollard_rho
    monkeypatch.setattr(arith, "_pollard_rho", lambda n: calls.append(n) or real(n))
    arith.factorize.cache_clear()
    code, _ = run_cli(["density", "--N", "6", "--a", "30000000008600000000231", "--b", "3",
                       "--x", "1000", "--jobs", "1"], capsys)
    assert code == 0
    assert calls == [30000000008600000000231]


def test_champion_hypothesis_violation_exit_code(capsys):
    code = main(["champion", "--a", "4", "--b", "3", "--N", "2", "--x", "100"])
    err = capsys.readouterr().err
    assert code == 1
    assert "power in Q" in err


def test_champion_json(capsys):
    code, out = run_cli(
        ["champion", "--a", "2", "--b", "3", "--N", "2", "--x", "50", "--delta", "0.9"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["n"] == 63
    assert doc["report"]["distinct_primes"] == [19, 43]
    assert doc["report"]["verified"] is True


# Reports captured from the stored-pair implementation of `champion`; the slot
# histogram must reproduce them byte for byte.
CHAMPION_GOLDEN = Path(__file__).parent / "data" / "champion"
CHAMPION_CASES = {
    "n2_x300": ["--a", "2", "--b", "3", "--N", "2", "--x", "300", "--delta", "0.9"],
    "n2_x2000": ["--a", "2", "--b", "3", "--N", "2", "--x", "2000"],
    "n3_x1500": ["--a", "2", "--b", "5", "--N", "3", "--x", "1500"],
    "n1_x400": ["--a", "2", "--b", "3", "--N", "1", "--x", "400", "--delta", "0.5"],
    "n6_x3000": ["--a", "5", "--b", "7", "--N", "6", "--x", "3000"],
    "m1n2_x500": ["--a", "2", "--b", "3", "--M", "1", "--N", "2", "--x", "500", "--delta", "0.5"],
    "m2n3_x1600": ["--a", "2", "--b", "5", "--M", "2", "--N", "3", "--x", "1600", "--delta", "0.5"],
    "m2n2_x800": ["--a", "3", "--b", "5", "--M", "2", "--N", "2", "--x", "800"],
    # n = 2 < 3: curve_value and curve_ratio are null
    "n1_x8": ["--a", "5", "--b", "7", "--N", "1", "--x", "8", "--delta", "0.5"],
}


@pytest.mark.parametrize("name", sorted(CHAMPION_CASES))
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_champion_reports_match_golden(name, fmt, tmp_path):
    out = tmp_path / f"{name}.{fmt}"
    assert main(["champion", *CHAMPION_CASES[name], "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (CHAMPION_GOLDEN / f"{name}.{fmt}").read_bytes()


# Reports captured before density and verify-lemma moved onto the shared
# qualifying-prime generator; the move must reproduce them byte for byte.
DENSITY_GOLDEN = Path(__file__).parent / "data" / "density"
DENSITY_CASES = {
    "n2_d1": ["--N", "2", "--d", "1", "--a", "2", "--b", "3"],
    "n2_d5": ["--N", "2", "--d", "5", "--a", "2", "--b", "3"],
    "n3_d1": ["--N", "3", "--d", "1", "--a", "2", "--b", "5"],
    "n3_d5": ["--N", "3", "--d", "5", "--a", "2", "--b", "5"],
    "n6_d1": ["--N", "6", "--d", "1", "--a", "2", "--b", "7"],
    "n6_d5": ["--N", "6", "--d", "5", "--a", "2", "--b", "7"],
    "n12_d1": ["--N", "12", "--d", "1", "--a", "7", "--b", "11"],
    "n12_d5": ["--N", "12", "--d", "5", "--a", "7", "--b", "11"],
}
LEMMA_GOLDEN = Path(__file__).parent / "data" / "lemma"
LEMMA_CASES = {
    "n1": ["--N", "1", "--a", "2", "--b", "3"],
    "n2": ["--N", "2", "--a", "3", "--b", "5"],
    "n3": ["--N", "3", "--a", "2", "--b", "5"],
    "n6": ["--N", "6", "--a", "5", "--b", "7"],
}


@pytest.mark.parametrize("name", sorted(DENSITY_CASES))
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_density_reports_match_golden(name, fmt, tmp_path):
    out = tmp_path / f"{name}.{fmt}"
    argv = ["density", *DENSITY_CASES[name], "--x", "50000", "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (DENSITY_GOLDEN / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("name", sorted(LEMMA_CASES))
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_lemma_reports_match_golden(name, fmt, tmp_path):
    out = tmp_path / f"{name}.{fmt}"
    argv = ["verify-lemma", *LEMMA_CASES[name], "--p-max", "5000", "--m-max", "10",
            "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (LEMMA_GOLDEN / f"{name}.{fmt}").read_bytes()


# Reports of the remaining subcommands, captured before the CLI derived its
# config echo and CSV rows from the report; keyed by tests/data/<dir>/<name>.
REPORT_GOLDEN = Path(__file__).parent / "data"
FF_Q2 = ["--q", "2", "--k", "1", "--n0", "1", "--m", "3", "--a-poly", "0,1", "--b-poly", "1,1",
         "--deg-max", "3"]
FF_Q7 = ["--q", "7", "--k", "1", "--n0", "1", "--m", "3", "--a-poly", "2,1", "--b-poly", "5,1",
         "--deg-max", "2"]
REPORT_CASES = {
    "gcd_seq/n1": ["gcd-seq", "--a", "2", "--b", "3", "--N", "1", "--n-max", "30"],
    "gcd_seq/m2n3": ["gcd-seq", "--a", "2", "--b", "5", "--M", "2", "--N", "3", "--n-max", "20"],
    # rows n >= 50 have a gcd past the factoring cap: null distinct_prime_count
    "gcd_seq/null_count": ["gcd-seq", "--a", "2", "--b", "4", "--N", "1", "--n-max", "55"],
    "delta/plain": ["delta", "--limit", "60"],
    "delta/squarefree": ["delta", "--limit", "60", "--squarefree"],
    "ff/scan_q2": ["ff", *FF_Q2],
    "ff/verify_q2": ["ff-verify", *FF_Q2],
    "ff/scan_q7": ["ff", *FF_Q7],
    "ff/verify_q7": ["ff-verify", *FF_Q7, "--n-cap", "1000"],
}


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_reports_match_golden(name, fmt, tmp_path):
    out = tmp_path / f"report.{fmt}"
    assert main([*REPORT_CASES[name], "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (REPORT_GOLDEN / f"{name}.{fmt}").read_bytes()


def test_verify_lemma_jobs_one_and_two_agree(tmp_path):
    for name, args in LEMMA_CASES.items():
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"{name}-{jobs}.json"
            argv = ["verify-lemma", *args, "--p-max", "20000", "--jobs", jobs, "--out", str(out)]
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], name


@pytest.mark.parametrize("argv, named", [
    (["champion", "--a", "2", "--b", "3", "--N", "8", "--x", "20000"], "a = 2 is a square mod every prime p = 1 (mod 8)"),
    (["champion", "--a", "3", "--b", "5", "--N", "12", "--x", "20000"], "a = 3 is a square mod every prime p = 1 (mod 12)"),
    (["density", "--N", "12", "--a", "3", "--b", "5", "--x", "1000000"], "a = 3 is a square mod every prime p = 1 (mod 12)"),
    (["verify-lemma", "--N", "8", "--a", "2", "--b", "3", "--p-max", "100000"], "a = 2 is a square mod every prime p = 1 (mod 8)"),
])
def test_squares_forced_by_the_modulus_exit_one(argv, named, capsys):
    # no prime can qualify: the run is refused up front, before any scan
    assert main(argv) == 1
    assert named in capsys.readouterr().err


def test_entangled_density_case_accepted(capsys):
    # Q(sqrt 3) lies in Q(zeta_12), not Q(zeta_6): the count is twice the formula, not 0
    code, out = run_cli(["density", "--N", "2", "--d", "3", "--a", "2", "--b", "3", "--x", "100000"], capsys)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["ratio"] == "1/16"
    assert report["count"] > 0


def test_jobs_below_one_exit_one(capsys):
    assert main(["delta", "--limit", "5", "--jobs", "0"]) == 1
    assert "at least 1" in capsys.readouterr().err


def test_delta_csv(capsys):
    code, out = run_cli(["delta", "--limit", "12", "--squarefree", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "n,delta,delta_squarefree"
    assert lines[-1] == "12,5,3"


def test_verify_lemma(capsys):
    code, out = run_cli(
        ["verify-lemma", "--N", "3", "--a", "2", "--b", "5", "--p-max", "1000", "--m-max", "10"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["failures"] == 0
    assert doc["report"]["all_verified"] is True
    assert doc["report"]["cases_checked"] > 0


@pytest.mark.parametrize("argv,named", [
    (["verify-lemma", "--N", "3", "--a", "2", "--b", "5", "--p-max", "1000", "--m-max", "0"],
     "m_max must be at least 1, got 0"),
    (["verify-lemma", "--N", "3", "--a", "2", "--b", "5", "--p-max", "1"], "p_max must be at least 2, got 1"),
    (["ff", "--q", "2", "--k", "1", "--n0", "1", "--m", "3", "--a-poly", "0,1", "--b-poly", "1,1",
      "--deg-max", "0"], "--deg-max"),
    (["ff-verify", "--q", "2", "--k", "1", "--n0", "1", "--m", "3", "--a-poly", "0,1", "--b-poly", "1,1",
      "--deg-max", "0"], "--deg-max"),
    # K = 1 (0.9 log 8 < 2); of the primes p = 3 (mod 4) up to 8, 3 divides b and 2 is a square mod 7
    (["champion", "--a", "2", "--b", "3", "--N", "2", "--x", "8"],
     "no prime p <= x = 8 contributes a pair for indices M = 2, N = 2"),
    # p = 1 (mod 5) below 10 is 11 at the least
    (["verify-lemma", "--N", "5", "--a", "2", "--b", "3", "--p-max", "10"],
     "no prime p <= p_max = 10 qualifies for N = 5, a = 2, b = 3"),
])
def test_vacuous_scans_exit_one(argv, named, capsys):
    # no prime, no m, no pair or no degree to check: a report would certify nothing
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert named in captured.err


# the product of the primes 10^16 + 61 and 3 * 10^16 + 29, beyond Pollard rho's step budget
_SEMIPRIME = "300000000000002120000000000001769"
_UNFACTORED = f"cannot factor {_SEMIPRIME}: Pollard rho found no factor in"


@pytest.mark.parametrize("argv,named", [
    (["verify-lemma", "--N", "3", "--a", "-2", "--b", "5", "--p-max", "100"], "a = -2"),
    (["verify-lemma", "--N", "0", "--a", "2", "--b", "5", "--p-max", "100"], "N = 0"),
    (["density", "--N", "2", "--a", "0", "--b", "3", "--x", "1000"], "a = 0"),
    (["density", "--N", "0", "--a", "2", "--b", "3", "--x", "1000"], "N = 0"),
    (["gcd-seq", "--a", "2", "--b", "3", "--N", "0", "--n-max", "5"], "N = 0"),
    (["gcd-seq", "--a", "2", "--b", "3", "--N", "1", "--M", "0", "--n-max", "5"], "M = 0"),
    (["gcd-seq", "--a", "2", "--b", "3", "--N", "1", "--n-max", "-3"], "n_max must be at least 0, got -3"),
    (["champion", "--a", "2", "--b", "3", "--N", "0", "--x", "100"], "N = 0"),
    (["ff", "--q", "2", "--k", "1", "--n0", "1", "--m", "0", "--a-poly", "0,1", "--b-poly", "1,1",
      "--deg-max", "1"], "m = 0"),
    (["ff", "--q", "0", "--k", "1", "--n0", "1", "--m", "3", "--a-poly", "0,1", "--b-poly", "1,1",
      "--deg-max", "1"], "q = 0"),
    (["champion", "--a", "2", "--b", "3", "--N", "2", "--x", "7"], "scan bound x must be at least 8 (x >= e^2), got 7"),
    (["delta", "--limit", "0"], "limit must be positive, got 0"),
    (["density", "--N", "2", "--a", _SEMIPRIME, "--b", "3", "--x", "1000"], _UNFACTORED),
    (["champion", "--a", "2", "--b", "3", "--N", "2", "--M", _SEMIPRIME, "--x", "1000"], _UNFACTORED),
    (["gcd-seq", "--a", "2", "--b", "3", "--N", _SEMIPRIME, "--n-max", "1"], _UNFACTORED),
    (["delta", "--limit", "1000000000000"], "limit must be at most 10000000, got 1000000000000"),
])
def test_integer_inputs_out_of_range_exit_one(argv, named, capsys):
    # a base below 2, an index below 1, a negative n_max, an x or a limit too small, or a limit
    # over the delta cap is refused by name, and so is an input that Pollard rho cannot factor
    # within its step budget
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert named in captured.err


def test_ff_json(capsys):
    code, out = run_cli(
        ["ff", "--q", "2", "--k", "1", "--n0", "1", "--m", "3",
         "--a-poly", "0,1", "--b-poly", "1,1", "--deg-max", "2"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["r"] == 1 and doc["report"]["t"] == 2 and doc["report"]["Q"] == 4
    assert [e["pi_count"] for e in doc["report"]["per_N"]] == [2, 2]


def test_ff_verify_json(capsys):
    code, out = run_cli(
        ["ff-verify", "--q", "2", "--k", "1", "--n0", "1", "--m", "3",
         "--a-poly", "0,1", "--b-poly", "1,1", "--deg-max", "2"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    per = doc["report"]["per_N"]
    assert [e["deg_gcd"] for e in per] == [2, 6]
    assert [e["certified_bound"] for e in per] == [2, 4]


def test_ff_verify_over_a_quadratic_extension_of_a_prime_above_256(capsys):
    # r = 192 = 2^6 * 3 makes t = 2, so the gcd is divided over F_{257^2},
    # whose digits (below 257) take more than one byte
    code, out = run_cli(
        ["ff-verify", "--q", "257", "--k", "1", "--n0", "87", "--m", "1",
         "--a-poly", "0,1", "--b-poly", "1,1", "--deg-max", "1"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["report"]["r"], doc["report"]["t"], doc["report"]["Q"]) == (192, 2, 257**2)
    assert [(e["n"], e["deg_gcd"], e["certified_bound"]) for e in doc["report"]["per_N"]] == [(344, 6, 6)]


def test_ff_rejects_bad_q(capsys):
    code = main(["ff", "--q", "6", "--k", "1", "--n0", "1", "--m", "5",
                 "--a-poly", "0,1", "--b-poly", "1,1", "--deg-max", "1"])
    assert code == 1
    assert "prime power" in capsys.readouterr().err


def test_pseudoprime_base_is_exit_one(capsys):
    # a strong pseudoprime to every Miller-Rabin witness is no proven prime
    code = main(["champion", "--a", "3317044064679887385961981", "--b", "3", "--N", "2", "--x", "100"])
    assert code == 1
    assert "passes every Miller-Rabin witness" in capsys.readouterr().err


def test_usage_error_is_exit_one(capsys):
    assert main(["champion", "--a", "2"]) == 1
    assert main(["no-such-command"]) == 1


# Help, version and usage-error output captured from the parser that built
# every subcommand's options on each run; the parser that builds only the
# chosen subcommand's must reproduce it byte for byte.  Exit 0 writes the
# .out golden to stdout, exit 1 the .err golden to stderr.
USAGE_GOLDEN = Path(__file__).parent / "data" / "usage"
USAGE_CASES = {
    "missing_option": (["champion", "--a", "2"], 1),
    "missing_subcommand": ([], 1),
    "unknown_subcommand": (["no-such-command"], 1),
    "extra_option": (["delta", "--limit", "5", "--bogus"], 1),
    "bad_value": (["champion", "--a", "two", "--b", "3", "--N", "2", "--x", "50"], 1),
    "version": (["--version"], 0),
    "help": (["--help"], 0),
    "champion_help": (["champion", "--help"], 0),
    "ff_verify_help": (["ff-verify", "--help"], 0),
    "gcd_seq_help": (["gcd-seq", "--help"], 0),
    "density_help": (["density", "--help"], 0),
    "delta_help": (["delta", "--help"], 0),
    "verify_lemma_help": (["verify-lemma", "--help"], 0),
    "ff_help": (["ff", "--help"], 0),
}


@pytest.mark.parametrize("name", sorted(USAGE_CASES))
def test_usage_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    argv, code = USAGE_CASES[name]
    assert main(argv) == code
    captured = capsys.readouterr()
    written, silent = (captured.out, captured.err) if code == 0 else (captured.err, captured.out)
    assert silent == ""
    assert written == (USAGE_GOLDEN / f"{name}.{'out' if code == 0 else 'err'}").read_text()


def test_verification_failure_is_exit_two(capsys, monkeypatch):
    from cyclogcd import cli
    from cyclogcd.errors import VerificationError

    def explode(params, jobs=1):
        raise VerificationError("synthetic certificate failure")

    monkeypatch.setattr(cli, "run_champion", explode)
    code = main(["champion", "--a", "2", "--b", "3", "--N", "2", "--x", "50"])
    assert code == 2
    assert "verification failure" in capsys.readouterr().err


def test_internal_invariant_failure_is_exit_two(capsys, monkeypatch):
    from cyclogcd import champion

    real = champion._busiest_slot

    def short(progressions):
        # one increment lost, so the histogram no longer holds every pair
        count, cell, total = real(progressions)
        return count, cell, total - 1

    monkeypatch.setattr(champion, "_busiest_slot", short)
    code = main(["champion", "--a", "2", "--b", "3", "--M", "1", "--N", "2", "--x", "500",
                 "--delta", "0.5"])
    assert code == 2
    assert "the cell histogram counted" in capsys.readouterr().err


def test_delta_path_disagreement_is_exit_two(capsys, monkeypatch):
    from cyclogcd import oracles

    real = oracles.primes_in_range
    calls = []

    def first_call_drops_seven(lo, hi):
        # path B is the only path that sieves; path A reads primality off its own table
        calls.append((lo, hi))
        primes = real(lo, hi)
        return [p for p in primes if p != 7] if len(calls) == 1 else primes

    monkeypatch.setattr(oracles, "primes_in_range", first_call_drops_seven)
    code = main(["delta", "--limit", "50"])
    assert code == 2 and len(calls) == 1
    assert "verification failure: delta range paths disagree" in capsys.readouterr().err


def test_irreducible_count_mismatch_is_exit_two(capsys, monkeypatch):
    from cyclogcd import ffield

    real = ffield.coset_leaders

    def one_short(ext):
        # drop the first coset leader, L = 0 (the root 1 of T - 1 for degree 1)
        found = real(ext)
        next(found)
        return found

    monkeypatch.setattr(ffield, "coset_leaders", one_short)
    code = main(["ff", "--q", "2", "--k", "1", "--n0", "1", "--m", "3",
                 "--a-poly", "0,1", "--b-poly", "1,1", "--deg-max", "2"])
    assert code == 2
    assert "the Moebius count is 4" in capsys.readouterr().err


FF_Q2_DEG1 = [*FF_Q2[:-1], "1"]  # Q = 4 from r = 1, t = 2; n = 1 at degree 1


@pytest.mark.parametrize("doctored, named", [
    ({"r": 2}, "mr does not divide Q^1 - 1"),
    ({"n0": 0}, "n = 1 escaped the class 0 mod 2"),
])
def test_doctored_construction_is_exit_two(doctored, named, capsys, monkeypatch):
    # FFConstruction.n_for re-checks the n of each degree against the construction
    from cyclogcd import cli

    real = cli.ff_construction
    monkeypatch.setattr(cli, "ff_construction", lambda *args: real(*args)._replace(**doctored))
    assert main(["ff", *FF_Q2_DEG1]) == 2
    assert f"verification failure: {named}" in capsys.readouterr().err


@pytest.mark.parametrize("params", [(1, 2, 8), (2, 2, 4), (1, 1, 2)])
def test_construction_invariant_failure_is_exit_two(params, capsys, monkeypatch):
    # against the real (1, 2, 4): Q not the size of the field built, r outside the class
    # -1/(m n_0) mod q^k, and mr = 3 not dividing Q - 1
    from cyclogcd import ffield

    monkeypatch.setattr(ffield, "choose_params", lambda *args: params)
    assert main(["ff", *FF_Q2_DEG1]) == 2
    r, t, Q = params
    assert f"construction invariants fail for r = {r}, t = {t}, Q = {Q}" in capsys.readouterr().err


def test_modulus_search_that_finds_nothing_is_exit_two(capsys, monkeypatch):
    # fresh field caches, so F_4 is searched for again and the cached fields stay as they were
    from functools import lru_cache

    from cyclogcd import cli, ffield

    fields = lru_cache(ffield.fq_context.__wrapped__)
    monkeypatch.setattr(ffield, "fq_context", fields)
    monkeypatch.setattr(cli, "fq_context", fields)
    monkeypatch.setattr(ffield, "extension", lru_cache(ffield.extension.__wrapped__))
    monkeypatch.setattr(ffield, "_t_is_primitive", lambda base, mu: False)
    assert main(["ff", *FF_Q2_DEG1]) == 2
    assert "no monic polynomial of degree 2 over F_2 has T primitive" in capsys.readouterr().err


@pytest.mark.parametrize("doctor", ["degree", "monic"])
def test_cyclotomic_certificate_failure_is_exit_two(doctor, capsys, monkeypatch):
    # build_cyclotomic's last check: Phi_1 built uncached, with a doctored totient or negated product
    from cyclogcd import cyclotomic, oracles

    monkeypatch.setattr(oracles, "build_cyclotomic", cyclotomic.build_cyclotomic.__wrapped__)
    if doctor == "degree":
        monkeypatch.setattr(cyclotomic, "euler_phi", lambda n: 2)
    else:
        real = cyclotomic._mul_by_x_pow_minus_1
        monkeypatch.setattr(cyclotomic, "_mul_by_x_pow_minus_1", lambda f, d: [-c for c in real(f, d)])
    assert main(["gcd-seq", "--a", "2", "--b", "3", "--N", "1", "--n-max", "3"]) == 2
    assert "Phi_1 is not monic of degree phi(1)" in capsys.readouterr().err


def test_non_ascii_polynomial_coefficient_exit_one(capsys):
    # '²' passes str.isdigit but not int(): refused by name, not by int()'s message
    argv = ["ff", *FF_Q2_DEG1]
    argv[argv.index("--a-poly") + 1] = "0,²"
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad polynomial coefficient '²'\n"


def test_ff_above_the_orbit_table_cap_is_exit_one(capsys):
    # Q = 2^21 at degree 1: refused before any table is built
    code = main(["ff", "--q", "2", "--k", "21", "--n0", str(2**21 - 1), "--m", "1",
                 "--a-poly", "0,1", "--b-poly", "1,1", "--deg-max", "1"])
    assert code == 1
    assert "no Q = 2^t up to the table cap 1048576 has t >= 21" in capsys.readouterr().err


def test_ff_degree_above_the_table_cap_is_refused_before_any_scan(capsys, monkeypatch):
    # Q = 4 reaches the cap at degree 10, Q = 5^6 past degree 1: the last
    # degree is checked before the first scan, not when the loop reaches it
    from cyclogcd import cli

    scans = []
    monkeypatch.setattr(cli, "ff_scan", lambda *args: scans.append(args))
    for q, m, deg_max in ((2, 3, 11), (5, 2, 4)):
        code = main(["ff", "--q", str(q), "--k", "1", "--n0", "1", "--m", str(m),
                     "--a-poly", "0,1", "--b-poly", "1,1", "--deg-max", str(deg_max)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and scans == []
        assert f"^{deg_max} elements exceeds the table cap 1048576" in captured.err


@pytest.mark.parametrize("params, named", [
    # r = 2^40 - 1 is the first of its class mod q^k, which a scan over r reaches late
    (["--q", "2", "--k", "40", "--n0", "1", "--m", "1"], "has t >= 40"),
    # Q = 4^23 = 2^46, whose elements a root search in F_Q would walk
    (["--q", "4", "--k", "1", "--n0", "1", "--m", "47"], "Q = 1 mod mr = 47"),
    # a safe prime m with 2 primitive: q^t = 1 mod m first at t = m - 1
    (["--q", "2", "--k", "1", "--n0", "1", "--m", "1000000000010867"], "mr = 1000000000010867"),
])
def test_ff_past_the_table_cap_exits_one_at_once(params, named):
    # in a subprocess with a timeout, so a search that hangs fails instead of stalling
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "cyclogcd.cli", "ff", *params, "--a-poly", "0,1", "--b-poly", "1,1",
         "--deg-max", "1"], env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert named in proc.stderr


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["delta", "--limit", "5", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["report"]["rows"][0] == {"n": 1, "delta": 1}


def test_out_in_missing_directory_exit_one(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert main(["delta", "--limit", "5", "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err
    assert not target.exists()

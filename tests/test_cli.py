"""The command-line surface: verdicts, formats, exit codes."""

import json
import os
import subprocess
import sys

import pytest
import referees

import superelliptic
from superelliptic import cover as cover_mod
from superelliptic.cli import _build_parser, main
from superelliptic.cover import build_cover
from superelliptic.theorems import Bounds
from superelliptic.words import Context


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEq:
    def test_rotation_torsion(self, capsys):
        code, out, _ = run(capsys, "eq", "sphere", "r1^(2n+2)", "", "--n", "2")
        assert code == 0
        assert out.splitlines()[0] == "true"
        assert "psi(u) = [1,2,3,4,5,6]" in out

    def test_braid_relation_disk(self, capsys):
        code, out, _ = run(capsys, "eq", "disk", "s1 s2 s1", "s2 s1 s2", "--n", "2")
        assert code == 0 and out.startswith("true")

    def test_false_verdict(self, capsys):
        code, out, _ = run(capsys, "eq", "sphere", "s1", "", "--n", "1")
        assert code == 0 and out.startswith("false")

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "eq", "disk", "zz", "", "--n", "1")
        assert code == 2 and "error" in err

    def test_cancelling_out_of_range_letters_exit_2(self, capsys):
        code, _, err = run(capsys, "eq", "disk", "s4 s4^-1", "", "--n", "1")
        assert code == 2 and "out of range" in err

    def test_budget_exit_3(self, capsys):
        code, _, err = run(
            capsys, "--budget-letters", "10", "eq", "disk",
            " ".join(["s1"] * 200), "", "--n", "2",
        )
        assert code == 3 and "budget" in err

    @pytest.mark.parametrize("token, n", [("r", "1000"), ("F", "300")])
    def test_budget_exit_3_on_a_token_without_exponent(self, capsys, token, n):
        code, out, err = run(
            capsys, "--budget-letters", "10", "eq", "sphere", token, "", "--n", n,
        )
        assert code == 3 and f"token {token!r}" in err and not out

    def test_budget_counts_the_core_the_oracle_acts_on(self, capsys):
        # the full twist at n = 1 is six letters; split over u and v, its
        # text fits a budget of 5 and the oracle's count of 6 does not
        twist = "s1 s2 s1 s2 s1 s2"
        code, out, _ = run(capsys, "--budget-letters", "6", "eq", "star", twist, "", "--n", "1")
        assert code == 0 and out.startswith("true")
        code, out, err = run(
            capsys, "--budget-letters", "5", "eq", "star",
            "s1 s2 s1", "s2^-1 s1^-1 s2^-1", "--n", "1",
        )
        assert code == 3 and "word of 6 letters exceeds budget 5" in err and not out

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one_exit_2(self, capsys, budget):
        code, out, err = run(
            capsys, "--budget-letters", budget, "eq", "disk", "s1^40", "", "--n", "2",
        )
        assert code == 2 and "positive integer" in err and not out


class TestLiftable:
    def test_word_liftable(self, capsys):
        code, out, _ = run(capsys, "liftable", "word", "h1", "--n", "2")
        assert code == 0
        assert "liftable" in out and "preserving" in out

    def test_word_not_liftable(self, capsys):
        code, out, _ = run(capsys, "liftable", "word", "s1", "--n", "2")
        assert code == 0
        assert "not liftable" in out and "neither" in out

    def test_curve(self, capsys):
        code, out, _ = run(capsys, "liftable", "curve", "x1 x2", "--n", "2", "--k", "3")
        assert code == 0
        assert "lifts" in out and "0 mod 3" in out

    def test_curve_nonliftable(self, capsys):
        code, out, _ = run(capsys, "liftable", "curve", "x1", "--n", "2", "--k", "3")
        assert code == 0 and "does not lift" in out

    def test_k2_is_refused(self, capsys):
        # at k = 2 every mapping class lifts: no verdict, one error line, exit 2
        for kind, text in [("word", "s1"), ("word", "h1"), ("curve", "x1 x2")]:
            code, out, err = run(capsys, "liftable", kind, text, "--n", "1", "--k", "2")
            assert code == 2 and not out, (kind, text)
            assert err == "error: liftable needs k >= 3; at k = 2 every mapping class lifts\n"


class TestCover:
    def test_info(self, capsys):
        code, out, _ = run(capsys, "cover", "info", "--n", "2", "--k", "3")
        assert code == 0
        assert "genus: 4" in out and "euler_characteristic: -6" in out

    def test_info_json(self, capsys):
        code, out, _ = run(capsys, "cover", "info", "--n", "1", "--k", "3", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["h1_rank"] == 4
        assert len(data["intersection_form"]) == 4
        assert len(data["standard_symplectic_change"]) == 4

    def test_matrix_export(self, capsys):
        code, out, _ = run(capsys, "cover", "matrix", "zeta", "--n", "1", "--k", "3")
        M = json.loads(out)
        assert code == 0
        assert len(M) == 4 and all(len(row) == 4 for row in M)
        code, out, _ = run(capsys, "cover", "matrix", "h1", "--n", "1", "--k", "3")
        assert code == 0 and json.loads(out)

    def test_matrix_reads_adjacent_twist_tokens(self, capsys):
        code, out, _ = run(capsys, "cover", "matrix", "t1,2", "--n", "1")
        S = cover_mod.build_cover(Context(1, 3))
        assert code == 0 and json.loads(out) == cover_mod.lift_rep(S, "t", 1).tolist()
        code, out, err = run(capsys, "cover", "matrix", "t1,3", "--n", "1")
        assert code == 2 and not out and "adjacent twists t<i>,<i+1>, not 't1,3'" in err
        code, out, err = run(capsys, "cover", "matrix", "t1", "--n", "1")
        assert code == 2 and not out and "unknown lift token 't1'" in err

    def test_matrix_reads_lift_text(self, capsys):
        code, out, _ = run(capsys, "cover", "matrix", "r1 h1", "--n", "1")
        _, r, _ = run(capsys, "cover", "matrix", "r", "--n", "1")
        assert code == 0 and out == r

    def test_matrix_unknown_name(self, capsys):
        code, _, err = run(capsys, "cover", "matrix", "q7", "--n", "1", "--k", "3")
        assert code == 2 and "error" in err

    def test_matrix_huge_power(self, capsys, few_products):
        code, out, _ = run(capsys, "cover", "matrix", "zeta^1000000000", "--n", "1")
        _, want, _ = run(capsys, "cover", "matrix", "zeta", "--n", "1")  # 10^9 = 1 mod 3
        assert code == 0 and out == want

    def test_matrix_overflow_exit_2(self, capsys, few_products):
        # t1,2^(10^18) is exact (test_matrix_exact_huge_t_power); 10^19 is not
        code, out, err = run(capsys, "cover", "matrix", "t1,2^10000000000000000000", "--n", "1")
        assert code == 2 and not out and err.startswith("error: int64 power bound")
        assert ">= 2**62" in err

    def test_matrix_exact_huge_t_power(self, capsys, few_products):
        code, out, err = run(capsys, "cover", "matrix", "t1,2^1000000000", "--n", "2")
        want = referees.lift_product(build_cover(Context(2, 3)), "t1,2^1000000000")
        assert code == 0 and not err and json.loads(out) == want.tolist()


class TestVerifyAll:
    def test_verify_all_refuses_k2_and_cover_keeps_it(self, capsys):
        code, out, err = run(capsys, "verify-all", "--n", "2", "--k", "2")
        assert code == 2 and not out
        assert err == ("error: claim 'oracle-sphere-presentation' needs k >= 3; "
                       "at k = 2 every mapping class lifts\n")
        code, out, err = run(capsys, "cover", "info", "--n", "2", "--k", "2")
        assert code == 0 and "genus: 2" in out and not err

    def test_small_run_exit_0(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--n", "1", "--k", "3")
        assert code == 0
        assert "claims:" in out and "0 failed" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--n", "1", "--k", "3", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["header"]["n"] == 1
        assert all(c["status"] != "fail" for c in data["claims"])

    def test_out_file_write_then_rename(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "verify-all", "--n", "1", "--k", "3", "--json",
            "--out", str(target),
        )
        assert code == 0
        data = json.loads(target.read_text())
        assert data["claims"]
        assert not list(tmp_path.glob("*.tmp"))

    def test_out_into_a_missing_directory_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "r.json"
        code, out, err = run(capsys, "verify-all", "--n", "1", "--json", "--out", str(target))
        assert code == 2 and not out
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    def test_over_bound_claims_skipped(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--n", "9", "--k", "3", "--json")
        assert code == 0
        data = json.loads(out)
        assert any(c["status"] == "skipped" for c in data["claims"])

    def test_bound_defaults_come_from_bounds(self):
        args = _build_parser().parse_args(["verify-all", "--n", "1"])
        defaults = Bounds()
        assert (args.bound_base_n, args.bound_homology_n, args.bound_homology_k) == (
            defaults.base_n, defaults.homology_n, defaults.homology_k
        )

    @pytest.mark.parametrize(
        "flag", ["--bound-base-n", "--bound-homology-n", "--bound-homology-k"]
    )
    def test_negative_bound_exit_2(self, capsys, flag):
        code, out, err = run(capsys, "verify-all", "--n", "2", "--k", "3", flag, "-1")
        assert code == 2 and not out
        assert "must be an integer >= 0" in err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify-all"])  # missing --n
        assert exc.value.code == 2


class TestClosedPipe:
    """A reader that closes stdout early ends the output, not the command."""

    @pytest.mark.parametrize("lines_read", [0, 1])
    @pytest.mark.parametrize(
        "argv, first",
        [
            pytest.param(("cover", "info", "--json", "--n", "8", "--k", "5"), b"{",
                         id="cover-info"),
            pytest.param(("eq", "sphere", "r1^(2n+2)", "", "--n", "3"), b"true",
                         id="eq-sphere"),
        ],
    )
    def test_no_traceback_and_exit_status_kept(self, argv, first, lines_read):
        src = os.path.dirname(os.path.dirname(os.path.abspath(superelliptic.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "superelliptic", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
        # closing before any read makes every write of the command hit EPIPE; reading
        # the first bytes alone closes the one-line JSON of cover info mid-output
        got = [proc.stdout.read(len(first)) for _ in range(lines_read)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""
        assert got == [first][:lines_read]

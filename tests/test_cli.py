"""Command-line interface: fixtures, file input, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kauffpoly

from kauffpoly.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_unknot(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--pd", "O")
        assert code == EXIT_OK
        assert json.loads(out) == {
            "alpha": {"0": "1"},
            "c": 0,
            "r": 1,
            "writhe": 0,
            "warping_degree": 0,
        }

    def test_two_component_unlink(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--pd", "O O")
        assert code == EXIT_OK
        assert json.loads(out)["alpha"] == {"0": "y^-1 + y", "1": "-1"}

    def test_catalog_name_input(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--name", "kink_pos")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["alpha"] == {"0": "y"}
        assert payload["writhe"] == 1

    def test_file_input(self, capsys, tmp_path):
        pd_file = tmp_path / "links.pd"
        pd_file.write_text("# two diagrams\nO\nX(1,2,2,1)  # a kink\n")
        code, out, _ = run(capsys, "coeffs", str(pd_file))
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["c"] == 0
        assert json.loads(lines[1])["c"] == 1

    def test_trefoil_matches_oracle_fixture(self, capsys):
        from kauffpoly.oracle import oracle_L
        from kauffpoly.catalog import get
        from kauffpoly.series import series_from_table
        from kauffpoly.coeffs import CoeffTable
        from kauffpoly.laurent import LaurentPoly

        code, out, _ = run(capsys, "coeffs", "--name", "trefoil")
        assert code == EXIT_OK
        alpha = json.loads(out)["alpha"]
        d = get("trefoil").diagram()
        reference = oracle_L(d)
        for n_str, text in alpha.items():
            n = int(n_str)
            assert str(reference.z_coefficient(n + 1 - d.r)) == text


class TestKauffman:
    def test_unknot(self, capsys):
        code, out, _ = run(capsys, "kauffman", "--pd", "O")
        assert code == EXIT_OK
        assert json.loads(out) == {
            "L": "1",
            "F": "1",
            "orientation": ["+"],
            "L_oracle": "1",
            "agrees_with_coeff_pipeline": True,
        }

    def test_orientation_flag(self, capsys):
        code, out, _ = run(capsys, "kauffman", "--name", "hopf", "--orient", "+-")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["orientation"] == ["+", "-"]
        assert payload["agrees_with_coeff_pipeline"] is True

    def test_orientation_length_mismatch(self, capsys):
        code, _, err = run(capsys, "kauffman", "--name", "hopf", "--orient", "+")
        assert code == EXIT_USAGE
        assert "orientation" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "kauffman", "--name", "figure8")
        _, second, _ = run(capsys, "kauffman", "--name", "figure8")
        assert first == second


class TestVerify:
    def test_single_diagram(self, capsys):
        code, out, _ = run(capsys, "verify", "--pd", "X(1,2,2,1)")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["ok"] is True
        assert report["checks"]["skein_coefficients"] is True

    def test_catalog_entry_includes_tags(self, capsys):
        code, out, _ = run(capsys, "verify", "--name", "figure8")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["checks"]["tag:amphichiral"] is True


class TestFuzz:
    def test_small_fuzz_run(self, capsys):
        code, out, _ = run(
            capsys,
            "fuzz",
            "--walks",
            "3",
            "--steps",
            "6",
            "--seed",
            "11",
            "--max-crossings",
            "7",
            "--start",
            "trefoil",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            rep = json.loads(line)
            assert rep["replay_ok"] and rep["L_scaling_ok"] and rep["planar_ok"]

    def test_fuzz_deterministic(self, capsys):
        args = ("fuzz", "--walks", "2", "--steps", "5", "--seed", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestCatalog:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == EXIT_OK
        assert "trefoil: r=1, c=3" in out

    def test_show(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "hopf")
        assert code == EXIT_OK
        assert out.strip() == "X(1,4,2,3) X(3,2,4,1)"

    def test_show_unknown(self, capsys):
        code, _, err = run(capsys, "catalog", "show", "nope")
        assert code == EXIT_USAGE
        assert "no catalog entry" in err


class TestErrors:
    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "coeffs", "--pd", "X(1,2,3)")
        assert code == EXIT_USAGE
        assert "malformed" in err

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "--budget", "2", "coeffs", "--name", "trefoil")
        assert code == EXIT_BUDGET
        assert "budget" in err

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("KAUFFPOLY_BUDGET", "2")
        code, _, _ = run(capsys, "coeffs", "--name", "trefoil")
        assert code == EXIT_BUDGET

    def test_no_input(self, capsys):
        code, _, err = run(capsys, "coeffs")
        assert code == EXIT_USAGE
        assert "no input" in err

    def test_negative_budget_flag(self, capsys):
        code, out, err = run(capsys, "--budget", "-5", "coeffs", "--name", "trefoil")
        assert code == EXIT_USAGE
        assert out == ""
        assert "budget must be nonnegative" in err

    def test_negative_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("KAUFFPOLY_BUDGET", "-1")
        code, _, err = run(capsys, "coeffs", "--name", "trefoil")
        assert code == EXIT_USAGE
        assert "budget must be nonnegative" in err

    def test_negative_fuzz_steps(self, capsys):
        code, out, err = run(capsys, "fuzz", "--steps", "-1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.strip().splitlines() == ["error: --steps must be nonnegative, got -1"]

    def test_negative_fuzz_walks(self, capsys):
        code, out, err = run(capsys, "fuzz", "--walks", "-3")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.strip().splitlines() == ["error: --walks must be nonnegative, got -3"]

    def test_negative_fuzz_max_crossings(self, capsys):
        code, out, err = run(capsys, "fuzz", "--max-crossings", "-2")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.strip().splitlines() == [
            "error: --max-crossings must be nonnegative, got -2"
        ]

    @pytest.mark.parametrize("start,bound", [("unknot", "0"), ("trefoil", "1")])
    def test_fuzz_start_without_moves(self, capsys, start, bound):
        args = ("fuzz", "--start", start, "--max-crossings", bound, "--walks", "2", "--steps", "5")
        code, out, err = run(capsys, *args)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.strip().splitlines() == [
            f"error: no move applies to {start} under --max-crossings {bound}"
        ]

    def test_fuzz_without_steps_needs_no_move(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--max-crossings", "0", "--walks", "1", "--steps", "0")
        assert code == EXIT_OK
        assert json.loads(out)["steps"] == 0

    @pytest.mark.parametrize("command", ["coeffs", "kauffman", "verify"])
    @pytest.mark.parametrize("pd", ["", "   "])
    def test_empty_diagram_rejected(self, capsys, command, pd):
        code, out, err = run(capsys, command, "--pd", pd)
        assert code == EXIT_USAGE
        assert out == ""
        assert "empty diagram" in err

    @pytest.mark.parametrize("command", ["coeffs", "kauffman", "verify"])
    def test_non_planar_diagram_rejected(self, capsys, command):
        # crossing 1 joins opposite ports: that piece has V - E + F = 1 - 2 + 1
        code, out, err = run(capsys, command, "--pd", "X(1,1,2,2) X(4,3,4,3)")
        assert code == EXIT_USAGE
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "not planar" in err

    def test_unknown_catalog_name_in_input(self, capsys):
        code, out, err = run(capsys, "coeffs", "--name", "nope")
        assert code == EXIT_USAGE
        assert out == ""
        assert "no catalog entry" in err

    @pytest.mark.parametrize("command", ["coeffs", "kauffman", "verify"])
    @pytest.mark.parametrize("which", ["missing", "directory", "not utf-8"])
    def test_unreadable_pd_file(self, capsys, tmp_path, command, which):
        path = tmp_path / "links.pd"
        if which == "directory":
            path.mkdir()
        elif which == "not utf-8":
            path.write_bytes(b"X(1,2,2,1) \xff\n")
        code, out, err = run(capsys, command, str(path))
        assert code == EXIT_USAGE
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot read PD file {str(path)!r}")

    def test_recursion_too_deep_is_a_resource_limit(self):
        # T(2, 81) needs a recursion deeper than a limit of 100 frames; the
        # CLI must name the diagram and exit 3, not print a traceback and
        # exit 1 (a verification failure)
        n = 81
        label = lambda k: (k - 1) % (2 * n) + 1  # noqa: E731
        pd = " ".join(
            "X(%d,%d,%d,%d)" % (label(2 * i + 1), label(2 * i + 1 + n), label(2 * i + 2),
                                label(2 * i + 2 + n))
            for i in range(n)
        )
        script = (
            "import sys; sys.setrecursionlimit(100); from kauffpoly import cli; "
            "sys.exit(cli.main(['coeffs', '--pd', sys.argv[1]]))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(kauffpoly.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-c", script, pd], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == EXIT_BUDGET
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: the recursion went deeper than Python's stack allows")
        assert line.endswith("on a diagram with 81 crossings and 1 components")

    def test_internal_key_error_is_not_a_usage_error(self, capsys, monkeypatch):
        import kauffpoly.cli as cli

        def broken(*args, **kwargs):
            raise KeyError("lost port")

        monkeypatch.setattr(cli, "coeff_table", broken)
        with pytest.raises(KeyError, match="lost port"):
            main(["coeffs", "--pd", "O"])

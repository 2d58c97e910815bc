"""CLI: golden report values, byte-determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
import sympy
from hypothesis import given, strategies as st

from sublorentz import builtins, calculus, cli, contact, expr, invariants, lie_algebra, ode_bridge, symmetry
from sublorentz import report as report_module
from sublorentz.cli import main
from sublorentz.errors import EngineError
from sublorentz.parsing import parse_structure_file

HEISENBERG_SYMMETRY = Path(__file__).resolve().parents[1] / "perfbench" / "heisenberg_symmetry.txt"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestAnalyze:
    def test_martinet_golden_json(self, capsys):
        code, report, _ = run_json(capsys, "analyze", "martinet")
        assert code == 0
        assert report["report_version"] == 1
        assert report["invariants"]["chi"] == "1/(4*y^4)"
        assert report["invariants"]["kappa"] == "-5/(2*y^2)"
        assert report["apparatus"]["reeb_field"] == "-1/y*d/dx + y*d/dz"
        assert report["apparatus"]["excluded_loci"] == ["y"]
        assert report["status"] == "pass"
        assert set(report["checks"].values()) == {"pass"}

    def test_heisenberg_builtin(self, capsys):
        code, report, _ = run_json(capsys, "analyze", "heisenberg")
        assert code == 0
        assert report["invariants"]["chi"] == "0"
        assert report["classification"]["label"] == "Heisenberg"
        assert report["classification"]["scope"] == "pointwise"

    def test_abstract_builtin_group_scope(self, capsys):
        code, report, _ = run_json(capsys, "analyze", "sl2_e")
        assert code == 0
        assert report["classification"]["label"] == "SL2Cover"
        assert report["classification"]["scope"] == "group"
        assert report["checks"]["eta_closure"] == "pass"

    def test_structure_file(self, capsys, tmp_path, martinet_frame):
        path = tmp_path / "flat.toml"
        path.write_text(
            "[chart]\ncoords = x, y, z\n\n[frame]\n"
            "X1 = d/dx + (1/2)*y^2*d/dz\nX2 = d/dy - (1/2)*x*y*d/dz\n"
        )
        code, report, _ = run_json(capsys, "analyze", str(path))
        assert code == 0
        assert report["invariants"]["kappa"] == "-5/(2*y^2)"

    def test_byte_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "analyze", "martinet", "--format", "json")
        _, out2, _ = run_cli(capsys, "analyze", "martinet", "--format", "json")
        assert out1 == out2

    def test_text_and_json_agree_on_verdicts(self, capsys):
        code, report, _ = run_json(capsys, "analyze", "martinet")
        code2, text, _ = run_cli(capsys, "analyze", "martinet")
        assert code == code2 == 0
        for name, verdict in report["checks"].items():
            assert f"{name}: {verdict}" in text


class TestSymmetryCommand:
    def test_boost_isometry(self, capsys, tmp_path):
        path = tmp_path / "heis.toml"
        path.write_text(
            "[chart]\ncoords = x, y, z\n\n[frame]\n"
            "X1 = d/dx - (1/2)*y*d/dz\nX2 = d/dy + (1/2)*x*d/dz\n\n"
            "[symmetry]\nZ = y*d/dx + x*d/dy\nW = x*d/dx + y*d/dy + 2*z*d/dz\n"
        )
        code, report, _ = run_json(capsys, "symmetry", str(path))
        assert code == 0
        entries = {e["name"]: e for e in report["symmetry"]}
        assert entries["Z"]["verdict"] == "isometry"
        assert entries["W"]["verdict"] == "conformal"
        assert entries["W"]["mu"] == "2"

    def test_missing_section_is_input_error(self, capsys):
        code, out, err = run_cli(capsys, "symmetry", "martinet")
        assert code == 3
        assert "symmetry" in err

    def test_repeated_name_cannot_mask_an_undecided_field(self, capsys, tmp_path):
        """Two fields named Z would share one symmetry_Z_decided check, and
        the decided second would hide the undecided first."""
        path = tmp_path / "masked.toml"
        path.write_text(
            "[frame]\nX1 = d/dx - (1/2)*y*d/dz\nX2 = d/dy + (1/2)*x*d/dz\n\n"
            "[symmetry]\nZ = (sinh(2*x) - 2*sinh(x)*cosh(x))*d/dz\nZ = d/dz\n"
        )
        code, out, err = run_cli(capsys, "symmetry", str(path))
        assert (code, out) == (3, "")
        assert err == "error: duplicate key 'Z' in [symmetry] (line 7, column 1)\n"

    @pytest.mark.parametrize("command", ["analyze", "symmetry"])
    def test_undecided_candidate_exits_2(self, capsys, tmp_path, command):
        """A candidate whose preservation no zero test decides is an
        indeterminate verdict in both reports that print it."""
        path = tmp_path / "undecided.toml"
        path.write_text(
            "[frame]\nX1 = d/dx - (1/2)*y*d/dz\nX2 = d/dy + (1/2)*x*d/dz\n\n"
            "[symmetry]\nU = (sinh(2*x) - 2*sinh(x)*cosh(x))*z*d/dx\n"
        )
        code, report, _ = run_json(capsys, command, str(path))
        assert code == 2
        assert report["symmetry"][0]["verdict"] == "unknown"
        assert report["checks"]["symmetry_U_decided"] == "indeterminate"
        assert report["status"] == "indeterminate"


class TestTransformCommands:
    def test_rotate_invariance_checks(self, capsys):
        code, report, _ = run_json(capsys, "rotate", "heisenberg", "--theta", "x*y")
        assert code == 0
        assert report["checks"]["kappa_invariant"] == "pass"
        assert report["checks"]["chi_invariant"] == "pass"
        assert report["checks"]["h_tilde_conjugation"] == "pass"

    def test_dilate_scaling_checks(self, capsys):
        code, report, _ = run_json(capsys, "dilate", "martinet", "--scale", "s")
        assert code == 0
        assert report["checks"]["kappa_scaling_s2"] == "pass"
        assert report["checks"]["chi_scaling_s4"] == "pass"
        assert report["checks"]["h_tilde_scaling_s2"] == "pass"
        assert report["dilated_invariants"]["chi"] == "s^4/(4*y^4)"


    @pytest.mark.parametrize("theta", ["x*y", "2"])
    def test_rotate_requires_coordinate_frame(self, capsys, theta):
        """The mode error comes before --theta is parsed on the chart."""
        code, out, err = run_cli(capsys, "rotate", "sl2_e", "--theta", theta)
        assert (code, out) == (3, "")
        assert err == "error: rotation requires a coordinate frame\n"


class TestAlgebraCommand:
    def test_conformal8(self, capsys):
        code, report, _ = run_json(capsys, "algebra", "conformal8")
        assert code == 0
        assert report["algebra"]["dimension"] == 8
        assert report["checks"]["jacobi"] == "pass"
        assert report["killing"]["det"] == "-2239488"
        assert report["killing"]["signature"] == [5, 3, 0]

    def test_sl2_e_symbolic(self, capsys):
        code, report, _ = run_json(capsys, "algebra", "sl2_e")
        assert code == 0
        assert report["invariants"]["kappa"] == "kappa"
        assert report["classification"]["label"] == "SL2Cover"
        assert report["killing"]["signature"] is None

    def test_sl2_e_numeric_kappa(self, capsys):
        code, report, _ = run_json(capsys, "algebra", "sl2_e", "--kappa", "3")
        assert code == 0
        assert report["invariants"]["kappa"] == "3"
        assert report["killing"]["signature"] == [2, 1, 0]

    def test_sl2_e_fraction_kappa(self, capsys):
        code, report, _ = run_json(capsys, "algebra", "sl2_e", "--kappa", "1/2")
        assert code == 0
        assert report["invariants"]["kappa"] == "1/2"

    @pytest.mark.parametrize("kappa", ["1.5", "1e3", "x", "exp(1)"])
    def test_kappa_must_be_rational(self, capsys, kappa):
        code, out, err = run_cli(capsys, "algebra", "sl2_e", "--kappa", kappa)
        assert code == 3
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["heisenberg", "sl2_f", "isometry4", "conformal8"])
    def test_kappa_refused_without_a_kappa(self, capsys, name):
        code, out, err = run_cli(capsys, "algebra", name, "--kappa", "3")
        assert (code, out) == (3, "")
        assert err == f"error: algebra {name} has no kappa (--kappa: sl2_e, sl2_n)\n"

    def test_heisenberg_label(self, capsys):
        code, report, _ = run_json(capsys, "algebra", "heisenberg")
        assert code == 0
        assert report["classification"]["label"] == "Heisenberg"
        assert report["classification"]["scope"] == "group"

    @pytest.mark.parametrize("argv, sha256", [
        (["heisenberg"],
         "0eb4dc6b1a052ec6c43a4c574060333e7d88899e3d03bfb2cb90155288d2d4e0"),
        (["heisenberg", "--format", "json"],
         "fc684cad79dfb7eb06afde70758b6d5f00bde939bbe554e44fead4de14ec10a6"),
        (["sl2_e"],
         "f7db63c6e6750520355bc845c293daa6fc8bccd16f5ea9a9c2d41b94b929ebac"),
        (["sl2_e", "--format", "json"],
         "5eafe364666864c0920d775c13bffdf2fb291efe5c1773713dce4853cecb59e5"),
        (["sl2_n"],
         "bc77aeff5fad04931a0f5bc585ebe7b95ff1e75999d7e6bd63b7d171360ae292"),
        (["sl2_n", "--format", "json"],
         "5a0dd6ca4f953220218fe92936009eb5ef4a0fd78c07e2659388dd2087bc310d"),
        (["sl2_f"],
         "f4e89f311f16a1d6f46651b346da79346a821f7ae1f59d5516c85bc50b86a852"),
        (["sl2_f", "--format", "json"],
         "fd5418365c1a9eb455e6087c969d58e7c7581688bd7579a288a5ef268d80df06"),
        (["isometry4"],
         "828b957fbf91ffde296b4a73a2fde28c6ef7192da834a9fa01ee2df718e8caff"),
        (["isometry4", "--format", "json"],
         "0baea459518f25e6303c160077f1832973cf8c4346af23f465dbd59112f433c0"),
        (["conformal8"],
         "586474bfa71449a530a093c39de6d9eaafce8063a972184310c37aa6695483bd"),
        (["conformal8", "--format", "json"],
         "668eb707e13392ac4e098d3df88d747e17b599784e67088e49d91a384a75633f"),
        (["sl2_e", "--kappa=3"],
         "34ac6995eca4c8c45a4d4a7e3a6dfb415f506a96c27b200364834481af50f569"),
        (["sl2_e", "--kappa=0"],
         "92e3033281715512c2831cd98c54e189729fe921adb8177dea2c3a08ab402be9"),
        (["sl2_e", "--kappa=-1/3"],
         "76e603e316c9d8c19c5e7b8b00b3e108f8a24e62436bff00f2a8dfab5435a0d8"),
        (["sl2_n", "--kappa=3"],
         "96dd0184f7617cdf2a6f98f0b45895d508ee53a1a33a62b358b0cb878b1560e8"),
        (["sl2_n", "--kappa=0"],
         "867e2cdf6974e329e169d1316d0323c309a502ac11fa3c90acfed0e4a95ccb49"),
        (["sl2_n", "--kappa=-1/3"],
         "b4b07c2751cdf5a7c50ce6dc3ef7cd679c8173ba6aa9d932273541bbe277612b"),
    ])
    def test_stdout_pinned(self, capsys, argv, sha256):
        """Every algebra report, byte for byte: the Killing data, and for the
        marked algebras the structure functions solved from the marking."""
        code, out, _ = run_cli(capsys, "algebra", *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, sha256)


class TestOdeCommand:
    def test_linear(self, capsys):
        code, report, _ = run_json(capsys, "ode", "--Q", "0")
        assert code == 0
        assert report["classification"]["label"] == "Heisenberg"
        assert all(v == "pass" for v in report["checks"].values())

    def test_rigid_example(self, capsys):
        code, report, _ = run_json(
            capsys, "ode", "--Q", "(1+2*x)*exp(u) + (x+x^2)*exp(u)*p"
        )
        assert code == 0
        assert report["checks"]["w1(X1+X2)=0"] == "pass"


class TestCatalogAndErrors:
    def test_catalog_lists_builtins(self, capsys):
        code, report, _ = run_json(capsys, "catalog")
        assert code == 0
        for name in ("heisenberg", "martinet", "sl2_e", "sl2_n", "sl2_f"):
            assert name in report["structures"]
        for name in ("conformal8", "isometry4", "sl2_f"):
            assert name in report["algebras"]

    def test_unknown_target(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "no_such_thing.toml")
        assert code == 3
        assert "no_such_thing" in err

    @pytest.mark.parametrize("text, message", [
        ("[algebra]\nc011 = 1\n", "c01^1 + c02^2 does not vanish"),
        ("[chart]\ncoords = a, b\n[algebra]\n", "[chart] requires a coordinate frame"),
        # Constants that break the Jacobi identity in X1 or X2 form no Lie algebra.
        ("[algebra]\nc012 = 1\nc021 = 1\nc122 = 1\n",
         "the constants form no Lie algebra: c02^2*c12^1 - c02^1*c12^2 does not vanish"),
        ("[algebra]\nc012 = 1\nc121 = 1\n",
         "the constants form no Lie algebra: c01^1*c12^2 - c01^2*c12^1 does not vanish"),
        # An algebra only at t = 0 is decided FALSE for a generic t.
        ("[params]\nnames = t\n[algebra]\nc012 = t\nc121 = 1\n",
         "the constants form no Lie algebra: c01^1*c12^2 - c01^2*c12^1 does not vanish"),
    ])
    def test_bad_algebra_file(self, capsys, tmp_path, text, message):
        path = tmp_path / "algebra.toml"
        path.write_text(text)
        assert run_cli(capsys, "analyze", str(path)) == (3, "", f"error: {message}\n")

    def test_bad_expression(self, capsys):
        code, out, err = run_cli(capsys, "ode", "--Q", "1.5*x")
        assert code == 3

    def test_classify_command(self, capsys):
        # chi = -kappa^2 is nonzero for the null-basis mark, hence Generic
        code, report, _ = run_json(capsys, "classify", "sl2_n")
        assert code == 0
        assert report["classification"]["label"] == "Generic"

    def test_classify_null_kernel_file(self, capsys, tmp_path):
        path = tmp_path / "null_kernel.toml"
        path.write_text(
            "[algebra]\nc011 = 1\nc022 = -1\nc021 = 1\nc012 = -1\n"
        )
        code, report, _ = run_json(capsys, "classify", str(path))
        assert code == 0
        assert report["classification"]["label"] == "NullKernelCase"
        assert report["classification"]["witness"]["direction"] == "X1-X2"

    def test_classify_null_kernel_text(self, capsys, tmp_path):
        """The text report prints the witness's coefficients as a list, as
        every other list in text and as JSON does."""
        path = tmp_path / "null_kernel.toml"
        path.write_text(
            "[algebra]\nc011 = 1\nc022 = -1\nc021 = 1\nc012 = -1\n"
        )
        code, out, _ = run_cli(capsys, "classify", str(path))
        assert code == 0
        assert "  witness:\n    direction: X1-X2\n    coefficients: [1, -1]\n" in out
        code, report, _ = run_json(capsys, "classify", str(path))
        assert report["classification"]["witness"]["coefficients"] == [1, -1]


FRAME = "[frame]\nX1 = d/dx\nX2 = d/dy + x*d/dz\n"


@pytest.mark.parametrize("text, message", [
    ("X1 = d/dx\n" + FRAME, "content before any section header (line 1, column 1)"),
    (FRAME + "[frame]\n", "duplicate section [frame] (line 4, column 1)"),
    ("[chart]\nk = x\n" + FRAME, "unknown chart key 'k' (line 2, column 1)"),
    ("[params]\nk = s\n" + FRAME, "unknown params key 'k' (line 2, column 1)"),
    (FRAME + "X3 = d/dz\n", "unknown frame key 'X3' (line 4, column 1)"),
    ("[frame]\nX1 = d/dx\n", "[frame] must define X1 and X2"),
    ("[algebra]\n[symmetry]\nZ = d/dx\n", "[symmetry] requires a coordinate frame (line 3, column 1)"),
    ("[frame]\nX1 = d/dx\nX2 = d/dy + x^y*d/dz\n", "integer exponent expected (line 3, column 14)"),
    (FRAME + "X3 d/dz\n", "expected key = value (line 4, column 1)"),
    ("[algebra]\nc012 = (1\n", "expected ')', found 'end of input' (line 2, column 9)"),
])
def test_structure_file_refusal(capsys, tmp_path, text, message):
    """Each refusal of a structure file is an input error: exit 3 and one
    named `error:` line."""
    path = tmp_path / "structure.txt"
    path.write_text(text)
    assert run_cli(capsys, "analyze", str(path)) == (3, "", f"error: {message}\n")


def test_expression_position_after_a_newline(capsys):
    """A newline inside an expression starts a new line of the position."""
    assert run_cli(capsys, "rotate", "heisenberg", "--theta", "x\n+ @") == (
        3, "", "error: unexpected character '@' (line 2, column 3)\n")


def nest(inner: str, levels: int = 3000) -> str:
    return "(" * levels + inner + ")" * levels


class TestUsageErrors:
    """A usage error is an input error: one `error:` line and exit 3, not
    argparse's 2, which means an indeterminate verdict here."""

    @pytest.mark.parametrize("argv", [
        ["rotate", "martinet"],
        ["analyze"],
        ["algebra", "sl2_e", "--kappa", "-1/3"],  # argparse reads -1/3 as an option
    ])
    def test_exit_3(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        out = capsys.readouterr()
        assert stop.value.code == 3
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    def test_negative_kappa_with_equals_sign(self, capsys):
        code, report, _ = run_json(capsys, "algebra", "sl2_e", "--kappa=-1/3")
        assert code == 0
        assert report["invariants"]["kappa"] == "-1/3"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestUnexpectedFailure:
    """Any other exception ends in one `error:` line and exit 3; interrupts
    pass through."""

    def test_one_line_exit_3(self, capsys, monkeypatch):
        def fail(defn):
            raise RuntimeError("first line\nsecond line")

        monkeypatch.setattr(cli, "analyze_definition", fail)
        code, out, err = run_cli(capsys, "analyze", "martinet")
        assert (code, out) == (3, "")
        assert err == "error: unexpected RuntimeError: first line second line\n"

    def test_value_the_kernel_cannot_render(self, capsys, monkeypatch):
        def fail(chart, atom):
            raise sympy.PolynomialError(f"{atom} contains an element\nof the set of generators")

        monkeypatch.setattr(expr, "_render_atom", fail)
        code, out, err = run_cli(capsys, "ode", "--Q", "exp(u)")
        assert (code, out) == (3, "")
        assert err == ("error: unexpected PolynomialError: exp(u) contains an element "
                       "of the set of generators\n")

    def test_interrupt_passes_through(self, monkeypatch):
        def interrupt(defn):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "analyze_definition", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["analyze", "martinet"])


class TestFailingCheck:
    """A check family decided nonzero fails the report with exit 1.  No valid
    input reaches that, since each check states a theorem, so a family whose
    residual is the constant 1 stands in for a wrong formula."""

    @pytest.fixture(autouse=True)
    def failing_family(self, monkeypatch):
        residuals = report_module._residuals

        def with_failure(ctx):
            families = residuals(ctx)
            families["forced"] = (expr.Residual(ctx.chart, [], 1),)
            return families

        monkeypatch.setattr(report_module, "_residuals", with_failure)

    def test_text(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "martinet")
        assert (code, err) == (1, "")
        assert "  forced: fail\n" in out
        assert out.endswith("\nstatus: fail\n")

    def test_json(self, capsys):
        code, report, err = run_json(capsys, "analyze", "martinet")
        assert (code, err) == (1, "")
        assert report["checks"]["forced"] == "fail"
        assert report["status"] == "fail"


class TestNestingLimit:
    """Input nested past the parser's bound is an input error (exit 3) with
    one message line, never a RecursionError traceback."""

    @staticmethod
    def assert_input_error(code, out, err):
        assert (code, out) == (3, "")
        assert err.startswith("error: nesting deeper than")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("q", [nest("x"), "x^" + nest("2")])
    def test_deep_q(self, capsys, q):
        self.assert_input_error(*run_cli(capsys, "ode", "--Q", q))

    def test_deep_frame_value(self, capsys, tmp_path):
        path = tmp_path / "deep.toml"
        path.write_text(f"[chart]\ncoords = x, y, z\n\n[frame]\nX1 = {nest('1')}*d/dx\nX2 = d/dy\n")
        self.assert_input_error(*run_cli(capsys, "analyze", str(path)))

    def test_fifty_levels_parse(self, capsys):
        code, report, _ = run_json(capsys, "ode", "--Q", nest("x", 50) + "^" + nest("2", 50))
        assert code == 0
        assert report["Q"] == "x^2"


class TestComplexLog:
    """A log that sympy would make complex (log(-1) = I*pi) is an input error
    (exit 3) with one message line, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["ode", "--Q", "log(-1)"],
        ["rotate", "heisenberg", "--theta", "log(-1)"],
    ])
    def test_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "error: the log of a negative constant is not real\n"

    def test_argument_negative_everywhere(self, capsys):
        code, out, err = run_cli(capsys, "ode", "--Q", "log(-2*x^2-1)")
        assert (code, out) == (3, "")
        assert err == "error: the log of a value that is positive nowhere is not real\n"

    def test_symmetry_field(self, capsys, tmp_path):
        path = tmp_path / "complex.toml"
        path.write_text("[frame]\nX1 = d/dx\nX2 = d/dy + x*d/dz\n\n"
                        "[symmetry]\nZ = log(-1)*d/dx\n")
        code, out, err = run_cli(capsys, "symmetry", str(path))
        assert (code, out) == (3, "")
        assert err == "error: the log of a negative constant is not real\n"


class TestNonRationalValue:
    """A value that is no rational function of its atoms is an input error."""

    def test_root(self, capsys):
        # sympy turns exp(log(u)/2) into sqrt(u)
        code, out, err = run_cli(capsys, "ode", "--Q", "exp(log(u)/2)")
        assert (code, out) == (3, "")
        assert err == "error: sqrt(u) is not a rational function of the names and exp/sinh/cosh/log atoms\n"


class TestFrameInversion:
    """The apparatus inverts the matrix with rows X1, X2, [X2,X1]; a singular
    matrix is an input error and an undecidable one is indeterminate."""

    @staticmethod
    def analyze(capsys, tmp_path, x1, x2):
        path = tmp_path / "frame.toml"
        path.write_text(f"[frame]\nX1 = {x1}\nX2 = {x2}\n")
        return run_cli(capsys, "analyze", str(path), "--format", "json")

    def test_exp_of_constant_decided(self, capsys, tmp_path):
        code, out, err = self.analyze(capsys, tmp_path, "exp(1)*d/dx", "d/dy + x*d/dz")
        assert (code, err) == (0, "")
        assert json.loads(out)["status"] == "pass"

    def test_singular(self, capsys, tmp_path):
        result = self.analyze(capsys, tmp_path, "d/dx", "d/dy")
        assert result == (3, "", "error: singular linear system\n")

    def test_cosh_squared_determinant_decided(self, capsys, tmp_path):
        # the contact determinant is a multiple of cosh(y)^2 = sinh(y)^2 + 1,
        # which vanishes nowhere
        code, out, err = self.analyze(capsys, tmp_path, "cosh(y)*d/dx", "d/dy + x*d/dz")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["status"] == "pass"
        assert report["apparatus"]["contact_locus"] == "sinh(y)^2 + 1"
        assert report["apparatus"]["excluded_loci"] == []

    @pytest.mark.parametrize("command", ["analyze", "classify"])
    def test_one_signed_determinant_decided(self, capsys, tmp_path, command):
        # 2*sinh(y)^2 + 1 has coefficients of one sign and sinh only at even
        # powers, so it is positive everywhere
        path = tmp_path / "frame.toml"
        path.write_text("[frame]\nX1 = d/dx\nX2 = d/dy + x*(2*sinh(y)^2 + 1)*d/dz\n")
        code, out, err = run_cli(capsys, command, str(path), "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["status"] == "pass"

    def test_cosh_squared_frame_classified(self, capsys, tmp_path):
        # h_tilde and chi carry 2*sinh(y)^2 + 1, which vanishes nowhere
        path = tmp_path / "frame.toml"
        path.write_text("[frame]\nX1 = cosh(y)^2*d/dx\nX2 = d/dy + x*d/dz\n")
        code, out, err = run_cli(capsys, "classify", str(path), "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["classification"]["label"] == "Generic"

    def test_undecidable(self, capsys, tmp_path):
        x2 = "d/dy + (sinh(2*x) - 2*sinh(x)*cosh(x) + x)*d/dz"
        result = self.analyze(capsys, tmp_path, "d/dx", x2)
        assert result == (2, "", "indeterminate: cannot decide invertibility of the system\n")


class TestOneComputePerContext:
    """Each report computes the invariants once per frame context: once for
    one frame, twice for a frame and its rotated or dilated image."""

    @pytest.mark.parametrize("argv, computes", [
        (["analyze", "martinet"], 1),
        (["rotate", "heisenberg", "--theta", "x*y"], 2),
        (["dilate", "martinet", "--scale", "s"], 2),
        (["algebra", "sl2_e"], 1),
        (["classify", "sl2_n"], 1),
    ])
    def test_compute_invariants_calls(self, capsys, monkeypatch, argv, computes):
        original = invariants.compute_invariants
        calls = []

        def counting(sf, ctx):
            calls.append(ctx)
            return original(sf, ctx)

        for module in (invariants, report_module, lie_algebra):
            if hasattr(module, "compute_invariants"):
                monkeypatch.setattr(module, "compute_invariants", counting)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(calls) == computes

    @pytest.mark.parametrize("argv, brackets, evaluations", [
        (["analyze", "martinet"], 3, 2),
        (["rotate", "heisenberg", "--theta", "x*y"], 6, 4),
        (["dilate", "martinet", "--scale", "s"], 6, 4),
        (["symmetry", str(HEISENBERG_SYMMETRY)], 17, 34),
    ])
    def test_bracket_and_evaluate_calls(self, capsys, monkeypatch, argv, brackets,
                                        evaluations):
        """Each bracket and pairing is taken once: the apparatus brackets
        B = [X2,X1], [X1,B] and [X2,B], and pairs w with the last two for a
        and b; the structure functions pair mu1 and mu2 with [Xj,B] inside
        their `dot`s, and the checks pair the coframe with the frame inside
        unreduced residuals, so neither calls `evaluate`.  Each symmetry
        candidate walks one chain ad_Z^k Xi up to k = 3, and decides
        preservation on the unreduced pairings of w with [Z,Xi], so only the
        frame parts of its levels call `evaluate`."""
        calls = Counter()

        def counting(name):
            original = getattr(calculus, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)
            return original, counted

        for name in ("lie_bracket", "evaluate"):
            original, counted = counting(name)
            for module in (calculus, contact, invariants, symmetry, ode_bridge):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert (calls["lie_bracket"], calls["evaluate"]) == (brackets, evaluations)


    @pytest.mark.parametrize("argv, zero_tests", [
        (["analyze", "heisenberg"], 30),
        (["algebra", "sl2_e"], 15),
        (["ode", "--Q", "0"], 36),
        (["rotate", "heisenberg", "--theta", "x*y"], 36),
        (["analyze", "martinet"], 23),
        (["classify", "heisenberg"], 30),
        (["symmetry", str(HEISENBERG_SYMMETRY)], 48),
        (["algebra", "conformal8"], 448),
    ])
    def test_zero_tests(self, capsys, monkeypatch, argv, zero_tests):
        """Each residual is decided once, by the report, and each verdict
        once, by the frame context: the four entries of h_tilde are decided
        once, not by the classification, the residuals and the eta gate in
        turn, chi only where h_tilde != 0, and kappa only where h_tilde = 0.
        Martinet has h_tilde != 0, so it has no eta residuals.  The trace
        identity is decided once, by its check: for a frame or a catalog
        marking it is a theorem, not a validation.  A decision counts whether
        it is an `Expr`'s or an unreduced `Residual`'s."""
        calls = []

        def counting(original):
            def counted(self):
                calls.append(self)
                return original(self)
            return counted

        for kind in (expr.Expr, expr.Residual):
            monkeypatch.setattr(kind, "is_zero", counting(kind.is_zero))
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(calls) == zero_tests

    def test_rotation_tree_reads(self, capsys, monkeypatch):
        """The atom table builds cosh(x*y) and sinh(x*y) from the kernel value
        x*y: rotating by x*y reads no sympy tree back, evaluates no sympy cosh
        or sinh (sympy's cache is cleared, so each would reach `eval`), and
        builds the pair once, for the rotation and the conjugation."""
        for cached in (expr._argument, expr._generator_value, expr._derivative,
                       expr._hyperbolic_argument):
            cached.cache_clear()
        sympy.core.cache.clear_cache()
        calls = []

        def counting(name, original):
            def counted(*args):
                calls.append(name)
                return original(*args)
            return counted

        monkeypatch.setattr(expr, "_read", counting("read", expr._read))
        for name in ("cosh", "sinh"):
            monkeypatch.setattr(expr, name, counting(name, getattr(expr, name)))
            evaluate = counting(f"sympy.{name}", getattr(sympy, name).eval)
            monkeypatch.setattr(getattr(sympy, name), "eval",
                                classmethod(lambda cls, *args, evaluate=evaluate: evaluate(*args)))
        code, _, _ = run_cli(capsys, "rotate", "heisenberg", "--theta", "x*y")
        assert code == 0
        assert sorted(calls) == ["cosh", "sinh"]


class TestIndeterminateReport:
    """A classification that no zero test decides: h_tilde's off-diagonal
    entry holds sinh(y) and cosh(y) in a numerator that no certificate signs,
    while every apparatus identity is decided.  Every report that prints the
    classification exits 2: `classify` here, `analyze` in the subclass."""

    COMMAND = "classify"
    FRAME = "[frame]\nX1 = d/dx\nX2 = d/dy + x*(y^2*sinh(y)^2 + 1)*d/dz\n"
    CHECKS = {
        "omega(X1)=0": "pass",
        "omega(X2)=0": "pass",
        "omega(X0)=1": "pass",
        "dw(X1,X2)=1": "pass",
        "dw(X0,X1)=0": "pass",
        "dw(X0,X2)=0": "pass",
        "<nu_i,X_j>=delta_ij": "pass",
        "dnu0=nu1^nu2": "pass",
        "trace_identity": "pass",
        "classification_decided": "indeterminate",
    }

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "undecided.txt"
        path.write_text(self.FRAME)
        return str(path)

    def test_text(self, capsys, path):
        code, out, err = run_cli(capsys, self.COMMAND, path)
        assert code == 2 and err == ""
        assert "  label: Undecided\n" in out
        checks = "checks:\n" + "".join(f"  {k}: {v}\n" for k, v in self.CHECKS.items())
        assert out.endswith(checks + "status: indeterminate\n")

    def test_json(self, capsys, path):
        code, report, _ = run_json(capsys, self.COMMAND, path)
        assert code == 2
        assert report["classification"]["label"] == "Undecided"
        assert list(report["checks"].items()) == list(self.CHECKS.items())
        assert report["status"] == "indeterminate"

    def test_module_entry_point_exits_2(self, path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "sublorentz.cli", self.COMMAND, path],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout.endswith("status: indeterminate\n")


class TestIndeterminateAnalyzeReport(TestIndeterminateReport):
    COMMAND = "analyze"


def test_undecided_classification_in_symmetry_and_ode(capsys, tmp_path):
    path = tmp_path / "undecided.txt"
    path.write_text(TestIndeterminateReport.FRAME + "\n[symmetry]\nZ = d/dz\n")
    for argv in (["symmetry", str(path)], ["ode", "--Q", "x*(u^2*sinh(u)^2 + 1)"]):
        code, report, _ = run_json(capsys, *argv)
        assert code == 2 and report["classification"]["label"] == "Undecided"
        assert report["checks"]["classification_decided"] == "indeterminate"
        assert report["status"] == "indeterminate"


# sinh(2) - 2*sinh(1)*cosh(1) is 0, and no zero test decides it: its two
# atoms are independent generators.
ZERO = "(sinh(2) - 2*sinh(1)*cosh(1))"


def test_undecided_kappa_of_an_algebra(capsys, tmp_path):
    """h_tilde = 0 and kappa undecided: `classify` says Undecided.  Items 3
    and 18 of the roadmap will decide the constant, and this test will then
    need another undecided one."""
    path = tmp_path / "algebra.txt"
    path.write_text(f"[algebra]\nc012 = {ZERO} - 1\nc021 = {ZERO} - 1\n")
    code, report, _ = run_json(capsys, "analyze", str(path))
    assert code == 2
    assert report["classification"]["label"] == "Undecided"
    assert report["checks"]["classification_decided"] == "indeterminate"


def test_undecided_symmetry_verdicts(capsys, tmp_path):
    """Heisenberg's frame with fields scaled by C = ZERO + 1, which no zero
    test decides to be 1: the rotation's trace and the dilation's conformal
    factor are undecided, so both verdicts are unknown, while the unscaled
    rotation is decided neither.  Items 3 and 18 of the roadmap will decide
    C, and this test will then need another undecided constant."""
    c = f"({ZERO} + 1)"
    path = tmp_path / "symmetry.txt"
    path.write_text(builtins.HEISENBERG + "\n[symmetry]\n"
                    f"R = -{c}*y*d/dx + {c}*x*d/dy\n"
                    f"D = {c}*x*d/dx + {c}*y*d/dy + 2*{c}*z*d/dz\n"
                    "R0 = -y*d/dx + x*d/dy\n")
    code, report, _ = run_json(capsys, "symmetry", str(path))
    assert code == 2
    assert [(z["name"], z["verdict"]) for z in report["symmetry"]] == [
        ("R", "unknown"), ("D", "unknown"), ("R0", "neither")]


def test_zero_symmetry_field(capsys, tmp_path):
    """The zero field is an isometry, printed with its one zero component."""
    path = tmp_path / "symmetry.txt"
    path.write_text(builtins.HEISENBERG + "\n[symmetry]\nO = 0*d/dx\n")
    code, out, _ = run_cli(capsys, "symmetry", str(path))
    assert code == 0
    assert "    name: O\n    field: 0*d/dx\n    preserves_distribution: pass\n" \
           "    verdict: isometry\n" in out


class TestAtomOutputs:
    """Stdout of CLI runs whose values hold exp/sinh/cosh/log atoms, pinned by
    SHA-256 and exit code, so that their bytes stay as they are."""

    FRAMES = {
        "exp_x.txt": "X1 = exp(x)*d/dx + d/dz\nX2 = d/dy + x*d/dz\n",
        "exp_cosh.txt": "X1 = d/dx\nX2 = d/dy + x*exp(y)*cosh(y)*d/dz\n",
        "cosh.txt": "X1 = d/dx\nX2 = d/dy + x*cosh(y)*d/dz\n",
        "over_cosh.txt": "X1 = d/dx\nX2 = d/dy + x/cosh(y)*d/dz\n",
    }

    @pytest.fixture
    def frames(self, tmp_path, monkeypatch):
        for name, frame in self.FRAMES.items():
            (tmp_path / name).write_text(f"[chart]\ncoords = x, y, z\n\n[frame]\n{frame}")
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("argv, sha256", [
        (["rotate", "martinet", "--theta", "x*y", "--format", "json"],
         "4b3586377e7861547668f5eb20ccc5bea46364b933173aad972fd1078753fe23"),
        (["rotate", "martinet", "--theta", "cosh(x)", "--format", "json"],
         "d03704ed0d03ea78e46d95ebacef3e6662ee654d8cf9af365a92bd66e406b7dc"),
        (["rotate", "martinet", "--theta", "exp(z)"],
         "721aa2593d43d0848952cff80ff66991c1d1ea58d23d1e9ee23555693faa4627"),
        (["rotate", "martinet", "--theta", "sinh(y)", "--format", "json"],
         "0d2c0ea840fb3a8b70a2c32c1e93276cc1224ddf9f98c612f717e29fd75c4b6f"),
        (["rotate", "heisenberg", "--theta", "x*y"],
         "ee6525e88f45ffcc630ecb76fc9c811c8f88deeb59d77e25dbf60b7c302f1b76"),
        (["rotate", "heisenberg", "--theta", "cosh(x)", "--format", "json"],
         "e3cc8868ed3a18191cf57ca8e1411d07a36f6554ce0e46d3e14af62eb2326080"),
        (["rotate", "heisenberg", "--theta", "exp(z)", "--format", "json"],
         "24e22b5d9f059b64c329d54f187dec34bc04440f5c4669efee38aa51c3d48e73"),
        (["ode", "--Q", "exp(u)", "--format", "json"],
         "e5237adbbb77bc920f6c6ad9f19800a69779c94c37793cc4ad3d71935fa670d9"),
        (["ode", "--Q", "cosh(u)*p"],
         "ffb14f3ea0b2c4e01935bf96d6d133731e4debeb8845612aebfe26cfcc8e53d2"),
        (["ode", "--Q", "(1+2*x)*exp(u) + (x+x^2)*exp(u)*p", "--format", "json"],
         "6c909b5889bf3574e3758a44dae733da8612f25b09080baab631a35776da77ab"),
        (["analyze", "exp_x.txt", "--format", "json"],
         "2f243e056ceea913a0ac94e6d373088032f1b7370a93b06879f7848b775bd84f"),
        # cosh(y)*exp(y) is the contact determinant, and a cosh that divides a
        # denominator leaves it: omega's last entry reads
        # -cosh(y)/(exp(y)*sinh(y)^2 + exp(y)), and sinh(y)^2 + 1 is no locus
        (["analyze", "exp_cosh.txt", "--format", "json"],
         "0f6e85fb4bb6c62bdef499d89baa562509f8c68465619d709d982012997c9364"),
        (["rotate", "martinet", "--theta", "x + cosh(y)", "--format", "json"],
         "a56a0f8f4ea66e33b1cb4bfc18849e4019298cad2a63b085a6d244091ac9b2bf"),
        (["rotate", "martinet", "--theta", "x*cosh(y) + sinh(z)", "--format", "json"],
         "20e34835faa3e79cd54d0ceb098cc877b976073b12a966591cd2d39fca19c165"),
        (["rotate", "heisenberg", "--theta", "sinh(x*y) - z", "--format", "json"],
         "a867b95b167294c32449733d5584bc7053a252e90cfadab17f6d6993417ebba6"),
        (["rotate", "heisenberg", "--theta", "y*exp(x)", "--format", "json"],
         "dbe0c129403873804a2cbf9c81a9ba052c574920eec430975ca8a2e697667d9e"),
    ])
    def test_stdout_pinned(self, capsys, frames, argv, sha256):
        code, out, _ = run_cli(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, sha256)

    def test_cosh_leaves_the_denominator(self, capsys, frames):
        code, report, _ = run_json(capsys, "analyze", "cosh.txt")
        assert code == 0
        assert report["apparatus"]["omega"][2] == "-cosh(y)/(sinh(y)^2 + 1)"

    def test_no_locus_that_vanishes_nowhere(self, capsys, frames):
        # x/cosh(y) is x*cosh(y)/(sinh(y)^2 + 1), and 1 + sinh(y)^2 is no locus
        code, report, _ = run_json(capsys, "analyze", "over_cosh.txt")
        assert code == 0
        assert report["apparatus"]["excluded_loci"] == ["cosh(y)"]


def structure_texts():
    """Structure files with a [frame] or an [algebra] section and up to two
    other sections, with small values: mostly well formed, some with junk."""

    def values(names):
        scalar = st.sampled_from(names + ["0", "2", "1/2"])
        for _ in range(2):
            sub = scalar
            scalar = st.one_of(
                sub,
                st.tuples(sub, st.sampled_from("+-*/"), sub).map(" ".join).map("({})".format),
                st.tuples(st.sampled_from(["exp", "sinh", "cosh", "log"]), sub).map(
                    "{0[0]}({0[1]})".format),
            )
        return scalar | st.text("xyz0123+-*/^()=[]", min_size=1, max_size=6)

    field_value, constant = values(["x", "y", "z", "k"]), values(["k"])
    bodies = {
        "chart": st.sampled_from(["coords = x, y, z", "coords = x, y", "coords = a, b, c"]),
        "params": st.sampled_from(["names = k", "names = k, x", "names ="]),
        "frame": st.tuples(field_value, field_value).map(
            "X1 = d/dx + ({0[0]})*d/dz\nX2 = d/dy + ({0[1]})*d/dz".format),
        "algebra": st.lists(st.tuples(st.sampled_from(["c012", "c021", "c011", "c122", "c3"]),
                                      constant).map(" = ".join), max_size=3).map("\n".join),
        "symmetry": st.tuples(field_value, st.sampled_from(["d/dx", "d/dz", "d/dq"])).map(
            "Z = ({0[0]})*{0[1]}".format),
    }
    sections = st.tuples(st.sampled_from(["frame", "algebra"]),
                         st.lists(st.sampled_from(["chart", "params", "symmetry"]), max_size=2,
                                  unique=True)).map(lambda t: [t[0], *t[1]])
    return sections.flatmap(
        lambda ns: st.tuples(*(bodies[n].map(f"[{n}]\n{{}}".format) for n in ns))).map("\n".join)


@given(structure_texts(), st.sampled_from(["analyze", "classify", "symmetry"]))
def test_structure_text_ends_in_an_exit_code(text, command):
    """Any structure file is parsed or refused with an EngineError, and the
    CLI on it ends in exit 0-3 with at most one stderr line."""
    try:
        parse_structure_file(text)
    except EngineError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "structure.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, path])
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1

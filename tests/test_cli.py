"""CLI: golden report values, byte-determinism, exit codes."""

import json
import runpy
from pathlib import Path

import pytest

from sublorentz import invariants, lie_algebra
from sublorentz import report as report_module
from sublorentz.cli import main

ROOT = Path(__file__).resolve().parents[1]


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

    def test_heisenberg_label(self, capsys):
        code, report, _ = run_json(capsys, "algebra", "heisenberg")
        assert code == 0
        assert report["classification"]["label"] == "Heisenberg"
        assert report["classification"]["scope"] == "group"


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


def nest(inner: str, levels: int = 3000) -> str:
    return "(" * levels + inner + ")" * levels


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


class TestReproduceScript:
    def test_flat_examples(self, capsys):
        runpy.run_path(str(ROOT / "scripts" / "reproduce_flat_examples.py"), run_name="__main__")
        out = capsys.readouterr().out
        martinet = out.split("== martinet ==")[1].split("\n==")[0]
        assert "chi        : 1/(4*y^4)" in martinet
        assert "kappa      : -5/(2*y^2)" in martinet
        conformal8 = out.split("== algebra conformal8")[1].split("\n==")[0]
        assert "killing det: -2239488" in conformal8

"""Checks of the benchmark's layer map and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_layers.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import LAYERS, Tracer, layer_table  # noqa: E402


def traced_main(argv):
    tracer = Tracer()
    tracer.install()
    try:
        from sublorentz import cli

        code = cli.main(argv)
    finally:
        tracer.uninstall()
    return code, tracer


def test_analyze_martinet_counts_match_the_code(capsys):
    code, tracer = traced_main(["analyze", "martinet", "--format", "json"])
    assert code == 0
    capsys.readouterr()
    # report._frame_blocks builds the apparatus once.  build_apparatus brackets
    # three times (contact_locus, normalized_contact_form, reeb_field) and
    # structure_functions three more.  compute_invariants runs in
    # _frame_blocks and in _identity_checks; chi = 1/(4*y^4) is nonzero, so
    # h_tilde does not vanish and neither eta_check nor null_kernel_bundle
    # (which would compute them again) is reached.
    assert tracer.calls["contact.build_apparatus"] == 1
    assert tracer.calls["calculus.lie_bracket"] == 6
    assert tracer.calls["invariants.compute_invariants"] == 2
    assert tracer.calls["cli.main"] == 1


def test_every_binding_site_is_wrapped():
    tracer = Tracer()
    tracer.install()
    try:
        from sublorentz import calculus, contact, invariants, symmetry

        for module in (calculus, contact, invariants, symmetry):
            assert module.lie_bracket.__wrapped__ is not None
    finally:
        tracer.uninstall()
    from sublorentz import calculus, contact

    assert not hasattr(contact.lie_bracket, "__wrapped__")
    assert contact.lie_bracket is calculus.lie_bracket


def test_traced_output_is_byte_identical(capsys):
    from sublorentz import cli

    argv = ["rotate", "heisenberg", "--theta", "x*y", "--format", "json"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    code, tracer = traced_main(argv)
    assert code == 0
    assert capsys.readouterr().out == plain
    snap = tracer.snapshot()
    assert set(snap["layer_calls"]) == set(LAYERS)
    assert snap["output_bytes"] == len(plain.encode()) - 1  # print adds the newline
    json.dumps(snap)


def test_layer_table_covers_every_layer():
    table = layer_table()
    assert tuple(table) == LAYERS
    assert "expr.Expr.is_zero" in table["expr"]
    assert "expr.Expr.sym" in table["expr"]
    assert "calculus.lie_bracket" in table["calculus"]
    assert all(table[layer] for layer in LAYERS)

"""A standing oracle over seeded command lines.  On valid input every check a
report prints is a theorem, so no drawn run through `cli.main` may read
`fail`.  Each run must exit 0 (pass), 2 (indeterminate) or 3 (an input
error, named on one `error:` line that is not the unexpected-failure path)."""

import json
import random

from sublorentz.cli import main
from sublorentz.expr import Chart
from sublorentz.ode_bridge import ODE_CHART
from sublorentz.parsing import render_expr, render_field

from .randgen import random_frame, random_polynomial, random_theta

CH = Chart(("x", "y", "z"))


def draw(rng: random.Random, tmp_path) -> list[list[str]]:
    """20 command lines: analyze, rotate and dilate of four drawn frames,
    analyze of four unimodular [algebra] files (c022 = -c011 and
    c121 = c122 = 0, so Jacobi holds), and ode of four drawn Q over
    (x, u, p).  A value is passed as `--opt=value`, so that a leading minus
    is not read as an option."""
    runs = []
    for i in range(4):
        frame = random_frame(rng, CH)
        path = tmp_path / f"frame{i}.txt"
        path.write_text(f"[frame]\nX1 = {render_field(frame.x1)}\nX2 = {render_field(frame.x2)}\n")
        theta = render_expr(random_theta(rng, CH))
        runs += [["analyze", str(path)], ["rotate", str(path), f"--theta={theta}"],
                 ["dilate", str(path), "--scale", "s"]]
    for i in range(4):
        c011, c012, c021 = (rng.randint(-3, 3) for _ in range(3))
        path = tmp_path / f"algebra{i}.txt"
        path.write_text(f"[algebra]\nc011 = {c011}\nc012 = {c012}\nc021 = {c021}\nc022 = {-c011}\n")
        runs.append(["analyze", str(path)])
    for _ in range(4):
        runs.append(["ode", f"--Q={render_expr(random_polynomial(rng, ODE_CHART))}"])
    return runs


def fails(value, where="") -> list[str]:
    """The JSON paths of every `fail` in a report."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in fails(v, f"{where}/{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in fails(v, f"{where}/{i}")]
    return [where] if value == "fail" else []


def test_no_drawn_run_fails_a_check(capsys, tmp_path):
    problems = []
    for argv in draw(random.Random(21), tmp_path):
        code = main(argv + ["--format", "json"])
        out, err = capsys.readouterr()
        if code not in (0, 2, 3):
            problems.append((argv, f"exit {code}"))
        elif code == 3:
            if err.count("\n") != 1 or not err.startswith("error: ") or err.startswith("error: unexpected"):
                problems.append((argv, err))
        else:
            problems += [(argv, path) for path in fails(json.loads(out))]
    assert problems == []

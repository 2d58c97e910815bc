"""Draw the item pools and record their reference outputs in reference.json.

    python3 perfbench/record_reference.py

Run from the root of a git checkout, at the commit whose outputs are the
reference; every pool is drawn and recorded again, and the file names that
commit.  Each item runs once, under RECORD_LIMIT_S; an item that does not
finish gets no reference bytes (``"ref": null``) and is judged by the
known-answer checks alone.  The draws use the generators and sizes of
``tests/randgen.py`` with the acceptance-test seeds.
"""

from __future__ import annotations

import json
import random
import shlex
import subprocess
import sys

import run

sys.path.insert(0, str(run.ROOT))
sys.path.insert(0, str(run.SRC))

import items  # noqa: E402
from sublorentz.builtins import ALGEBRA_NAMES, STRUCTURE_FILES  # noqa: E402
from sublorentz.expr import Chart  # noqa: E402
from sublorentz.parsing import render_expr, render_field  # noqa: E402
from tests.randgen import random_frame, random_theta  # noqa: E402

RECORD_LIMIT_S = 10.0
CHART = Chart(("x", "y", "z"))

FRAMES_SEED, FRAMES_COUNT, FRAMES_LIMIT_S = 100123, 40, 0.6
ROTATIONS_SEED, ROTATIONS_COUNT, ROTATIONS_LIMIT_S = 100124, 12, 10.0
POISSON_SEED, POISSON_COUNT, POISSON_LIMIT_S = FRAMES_SEED, 20, 1.0
CLI_LIMIT_S = 30.0

RIGID_Q = "(1+2*x)*exp(u) + (x+x^2)*exp(u)*p"


def frame_text(frame) -> str:
    return f"[frame]\nX1 = {render_field(frame.x1)}\nX2 = {render_field(frame.x2)}\n"


def frame_texts(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    return [frame_text(random_frame(rng, CHART)) for _ in range(count)]


def frames_pool():
    return [{"id": f"frames-{FRAMES_SEED}-{i}", "input": {"text": text}}
            for i, text in enumerate(frame_texts(FRAMES_SEED, FRAMES_COUNT))]


def rotations_pool():
    # Criterion 5b: theta number i rotates martinet for even i, heisenberg for odd i.
    rng = random.Random(ROTATIONS_SEED)
    pool = []
    for i in range(ROTATIONS_COUNT):
        theta = render_expr(random_theta(rng, CHART))
        target = ("martinet", "heisenberg")[i % 2]
        pool.append({"id": f"rotations-{ROTATIONS_SEED}-{i}",
                     "input": {"target": target, "theta": theta}})
    return pool


def poisson_pool():
    # Criterion 8's path and fixtures, then the first frames of criterion 5a's
    # draw: the Poisson residual of criterion 8's own draw (seed 88001) takes
    # over 2 s on 12 of its 20 frames.
    pool = [{"id": f"poisson-{name}", "input": {"text": STRUCTURE_FILES[name]}}
            for name in ("heisenberg", "martinet")]
    pool += [{"id": f"poisson-{POISSON_SEED}-{i}", "input": {"text": text}}
             for i, text in enumerate(frame_texts(POISSON_SEED, POISSON_COUNT))]
    return pool


def cli_pool():
    structures = sorted(STRUCTURE_FILES)
    frames = ("martinet", "heisenberg")
    commands = [["catalog"]]
    commands += [["analyze", s, "--format", "json"] for s in structures]
    commands += [["classify", s, "--format", "json"] for s in structures]
    commands += [["rotate", f, "--theta", "x*y", "--format", "json"] for f in frames]
    commands += [["dilate", f, "--scale", "s", "--format", "json"] for f in frames]
    commands += [["algebra", a, "--format", "json"] for a in sorted(ALGEBRA_NAMES)]
    commands += [["algebra", "sl2_e", "--kappa", "3", "--format", "json"]]
    commands += [["ode", "--Q", q, "--format", "json"] for q in ("0", "x*p", RIGID_Q)]
    commands += [["symmetry", "perfbench/heisenberg_symmetry.txt", "--format", "json"]]
    pool = [{"id": "cli " + shlex.join(c), "input": {"argv": c}, "expect_exit": 0}
            for c in commands]
    errors = [
        ["analyze", "no_such_structure"],           # unknown target
        ["rotate", "sl2_e", "--theta", "1"],        # rotation of an abstract mark
        ["symmetry", "martinet"],                   # no [symmetry] section
        ["ode", "--Q", "1.5*x"],                    # floating-point literal
    ]
    pool += [{"id": "cli " + shlex.join(c), "input": {"argv": c}, "expect_exit": 3}
             for c in errors]
    return pool


def record_pool(workload: str, pool: list[dict]) -> list[dict]:
    items.prepare(workload)
    for item in pool:
        result = run.run_item(workload, item, RECORD_LIMIT_S)
        item["reference_s"] = round(result["seconds"], 4)
        item["ref"] = None
        if result["outcome"] == "done":
            problem = run.known_answer(workload, item, result)
            if problem:
                raise SystemExit(f"{item['id']}: known-answer check fails: {problem}")
            item["ref"] = {"exit": result["exit"], "sha256": result["sha256"],
                           "bytes": result["bytes"]}
        elif result["outcome"] == "error":
            raise SystemExit(f"{item['id']}: {result.get('error')}")
        print(item["id"], result["outcome"], item["reference_s"], flush=True)
    return pool


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, text=True,
                            capture_output=True, check=True).stdout.strip()
    specs = {
        "frames": (frames_pool, FRAMES_LIMIT_S,
                   f"random_frame, random.Random({FRAMES_SEED}), first {FRAMES_COUNT} of criterion 5a"),
        "rotations": (rotations_pool, ROTATIONS_LIMIT_S,
                      f"random_theta, random.Random({ROTATIONS_SEED}), first {ROTATIONS_COUNT}, "
                      "martinet/heisenberg alternating, as criterion 5b"),
        "poisson": (poisson_pool, POISSON_LIMIT_S,
                    f"heisenberg, martinet as criterion 8, then random_frame, "
                    f"random.Random({POISSON_SEED}), first {POISSON_COUNT}, as criterion 5a"),
        "cli": (cli_pool, CLI_LIMIT_S, "every command on every built-in, plus exit-3 error paths, through cli.main"),
    }
    out = {"commit": commit, "record_limit_s": RECORD_LIMIT_S, "workloads": {}}
    for workload, (make, limit_s, draw) in specs.items():
        pool = record_pool(workload, make())
        out["workloads"][workload] = {"draw": draw, "limit_s": limit_s, "items": pool}
    run.REFERENCE.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

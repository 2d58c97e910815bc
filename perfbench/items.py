"""The items of each workload, and the fork that runs one item under a
time limit.

Every item starts from the same program state: ``prepare`` runs untimed
warm-up items and clears sympy's process-wide cache, and ``run_forked`` then
runs each item in a child forked from that state, so no item sees what an
earlier one left behind.  An item's latency is the CPU time the child spends
on it, and a child that reaches its limit of CPU time is stopped by SIGPROF.
The engine is single-threaded and does no I/O, so its CPU time is its wall
time less the time the host took the CPU away, which is the noisy part on a
shared virtual machine (on 2 vCPUs, one series of 25 repeats of one item
read up to 1.9x their median in wall time, 1.13x in CPU time).

Import this module only with the engine's sources on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import select
import signal
import traceback
from time import perf_counter, process_time

from sympy.core.cache import clear_cache

# Library calls go through the modules, so that the tracer's wrappers, which
# replace module attributes, see them.
from sublorentz import cli, contact, invariants, parsing, report, symmetry
from sublorentz.builtins import STRUCTURE_FILES
from sublorentz.expr import Tri

ROTATION_CHECKS = ("kappa_invariant", "chi_invariant", "h_tilde_conjugation")
VERDICT_EXIT = {Tri.TRUE: 0, Tri.FALSE: 1, Tri.UNKNOWN: 2}
BACKSTOP_S = 10.0  # wall-time grace beyond twice the CPU limit before a child is killed


class Stopped(BaseException):
    """Raised at the limit; a BaseException so no `except Exception` eats it."""


def _limit_reached(signum, frame):
    raise Stopped()


def frames_item(text: str):
    """`analyze` of a generated [frame] structure text, rendered as JSON."""
    rep = report.analyze_definition(parsing.parse_structure_file(text, source_name="perfbench"))
    return report.EXIT_CODES[rep["status"]], report.to_json(rep) + "\n", {"status": rep["status"]}


def rotations_item(target: str, theta: str):
    """`rotate` of a built-in frame by theta, rendered as JSON."""
    defn = parsing.parse_structure_file(STRUCTURE_FILES[target], source_name=f"builtin:{target}")
    rep = report.rotate_report(defn, parsing.parse_expr(theta, defn.chart))
    facts = {name: rep["checks"][name] for name in ROTATION_CHECKS}
    return report.EXIT_CODES[rep["status"]], report.to_json(rep) + "\n", facts


def poisson_item(text: str):
    """Apparatus, structure functions and the {h, h0} residual zero test."""
    defn = parsing.parse_structure_file(text, source_name="perfbench")
    app = contact.build_apparatus(contact.Frame(defn.chart, defn.x1, defn.x2))
    sf = invariants.structure_functions(app)
    verdict = symmetry.vertical_form_residual(app, sf).is_zero()
    out = {
        "structure_functions": {k: parsing.render_expr(v) for k, v in sf.as_dict().items()},
        "residual_zero": verdict.value,
    }
    return VERDICT_EXIT[verdict], json.dumps(out, indent=2) + "\n", {"residual_zero": verdict.value}


def cli_item(argv: list[str]):
    """One command line through `sublorentz.cli.main`, as the installed
    script runs it; stdout is the output, stderr a fact."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), {"stderr": err.getvalue()}


ITEMS = {"frames": frames_item, "rotations": rotations_item, "poisson": poisson_item,
         "cli": cli_item}

# Untimed items before the first timed one, so that sympy's lazily imported
# modules are loaded in the state every item is forked from.
WARMUP = {
    "frames": [{"text": STRUCTURE_FILES["martinet"]}],
    "rotations": [{"target": "heisenberg", "theta": "x"}],
    "poisson": [{"text": STRUCTURE_FILES["heisenberg"]}],
    "cli": [{"argv": ["analyze", "martinet", "--format", "json"]},
            {"argv": ["algebra", "sl2_e", "--format", "json"]},
            {"argv": ["ode", "--Q", "x*p", "--format", "json"]}],
}


def prepare(workload: str):
    """Bring this process into the state every item of the workload is
    forked from: warmed up, sympy's cache empty, the heap frozen."""
    signal.signal(signal.SIGPROF, _limit_reached)
    for spec in WARMUP[workload]:
        compute(ITEMS[workload], spec, 600.0)
    clear_cache()
    gc.collect()
    gc.freeze()  # children then leave the shared heap alone: fewer copy-on-write faults


def compute(item, spec: dict, limit_s: float) -> dict:
    """Run one item in this process under a CPU-time limit."""
    start = process_time()
    signal.setitimer(signal.ITIMER_PROF, limit_s)
    try:
        try:
            code, out, facts = item(**spec)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
    except Stopped:
        return {"outcome": "stopped", "seconds": process_time() - start}
    except Exception as err:  # the item boundary: report and go on
        return {"outcome": "error", "seconds": process_time() - start,
                "error": "".join(traceback.format_exception_only(type(err), err)).strip()}
    seconds = process_time() - start
    data = out.encode("utf-8")
    return {"outcome": "done", "seconds": seconds, "exit": code,
            "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data), "facts": facts}


def run_forked(workload: str, spec: dict, limit_s: float, tracer=None) -> dict:
    """Run one item in a child forked from the prepared state.  With a
    tracer installed, the result carries the child's span counts."""
    read_fd, write_fd = os.pipe()
    wall = perf_counter()
    pid = os.fork()
    if pid == 0:  # child: compute, report through the pipe, exit without cleanup
        try:
            os.close(read_fd)
            result = compute(ITEMS[workload], spec, limit_s)
            if tracer is not None:
                result["trace"] = tracer.snapshot()
            with os.fdopen(write_fd, "wb") as out:
                out.write(json.dumps(result).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    chunks = []
    deadline = wall + 2 * limit_s + BACKSTOP_S
    with os.fdopen(read_fd, "rb") as pipe:
        while True:
            ready, _, _ = select.select([pipe], [], [], max(deadline - perf_counter(), 0.0))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(pipe.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    cpu = usage.ru_utime + usage.ru_stime
    if chunks:
        result = json.loads(b"".join(chunks))
    elif os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL:
        result = {"outcome": "stopped", "seconds": cpu}
    else:
        result = {"outcome": "error", "seconds": cpu,
                  "error": f"child ended with status {status} and no result"}
    result["wall_s"] = perf_counter() - wall
    result["rss_mb"] = usage.ru_maxrss / 1024.0
    return result

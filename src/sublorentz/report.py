"""Analysis pipelines assembling deterministic, schema-stable reports.

Every symbolic field is a canonically rendered string, every check verdict is
tri-state (pass / fail / indeterminate), and dictionary order is fixed so that
JSON output is byte-deterministic for identical inputs.

The modules that verify the paper's identities return residual families: a
dict from a check's name to the residuals that must all vanish.  Only this
module decides them, in `_decide`.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

from . import builtins as fixtures
from . import expr as ex
from .contact import Frame, apparatus_residuals, build_apparatus
from .errors import EngineError
from .expr import Expr, Tri, join_terms, render_expr
from .invariants import (
    FrameContext,
    Invariants,
    StructureFunctions,
    dilate,
    eta_residuals,
    hyperbolic_rotate,
)
from .lie_algebra import (
    catalog_algebra,
    catalog_marking,
    jacobi_residuals,
    killing_form,
    structure_functions_of_marking,
)
from .ode_bridge import build_from_ode, null_bundle_residuals
from .parsing import StructureDefinition, render_field
from .symmetry import binomial_identity_check, conformal_factor, preserves_distribution

REPORT_VERSION = 1


_WORDS = {Tri.TRUE: "pass", Tri.FALSE: "fail", Tri.UNKNOWN: "indeterminate"}


def _decide(residuals: Iterable[Expr]) -> str:
    """The check word of a residual family: pass when every residual is
    decided zero, fail when one is decided nonzero."""
    return _WORDS[ex.all_zero(residuals)]


def _status(checks: dict[str, str]) -> str:
    words = set(checks.values())
    if "fail" in words:
        return "fail"
    if "indeterminate" in words:
        return "indeterminate"
    return "pass"


def _report(command: str, input_block: dict, body: dict, residuals: dict,
            decided: Optional[dict[str, str]] = None) -> dict:
    """The scaffold every report shares: header, body blocks, checks, status.
    The checks are the decided residual families, then the words in
    `decided`."""
    report = {"report_version": REPORT_VERSION, "command": command, "input": input_block}
    report.update(body)
    checks = {name: _decide(family) for name, family in residuals.items()}
    checks.update(decided or {})
    report["checks"] = checks
    report["status"] = _status(checks)
    return report


def _input_block(defn: StructureDefinition) -> dict:
    return {"source": defn.source_name, "mode": defn.mode}


# -- blocks over a frame context ------------------------------------------------


def _frame_context(frame: Frame) -> FrameContext:
    return FrameContext(build_apparatus(frame))


def coordinate_frame(defn: StructureDefinition, operation: str) -> Frame:
    """The definition's frame; `operation` names what needs it in the error."""
    if defn.mode != "frame":
        raise EngineError(f"{operation} requires a coordinate frame")
    return Frame(defn.chart, defn.x1, defn.x2)


def _definition_context(defn: StructureDefinition) -> FrameContext:
    if defn.mode == "frame":
        return _frame_context(Frame(defn.chart, defn.x1, defn.x2))
    return FrameContext(sf=StructureFunctions(**defn.structure_constants), chart=defn.chart)


def _render_matrix(m) -> list[list[str]]:
    return [[render_expr(e) for e in row] for row in m]


def _frame_block(frame: Frame) -> dict:
    return {"X1": render_field(frame.x1), "X2": render_field(frame.x2)}


def _invariants_block(inv: Invariants) -> dict:
    return {
        "h_tilde": _render_matrix(inv.h_tilde),
        "chi": render_expr(inv.chi),
        "kappa": render_expr(inv.kappa),
    }


def _classification_block(c) -> dict:
    witness = {}
    for k, v in c.witness.items():
        witness[k] = render_expr(v) if isinstance(v, Expr) else v
    return {"label": c.label, "scope": c.scope, "witness": witness}


def _analysis_blocks(ctx: FrameContext) -> dict:
    """Frame and apparatus (coordinate frames only), structure functions,
    invariants and classification."""
    blocks = {}
    if ctx.mode == "frame":
        app = ctx.apparatus
        blocks["frame"] = _frame_block(app.frame)
        blocks["apparatus"] = {
            "omega": [render_expr(c) for c in app.omega.components],
            "reeb_field": render_field(app.x0),
            "coframe": [[render_expr(c) for c in f.components] for f in app.coframe],
            "contact_locus": render_expr(app.contact_det),
            "excluded_loci": [render_expr(e) for e in app.excluded],
        }
    blocks["structure_functions"] = {k: render_expr(v) for k, v in ctx.sf.as_dict().items()}
    blocks["invariants"] = _invariants_block(ctx.inv)
    blocks["classification"] = _classification_block(ctx.classification)
    return blocks


def _classification_decided(ctx: FrameContext) -> dict[str, str]:
    """The decided word of a report that prints a classification: an
    Undecided one is an indeterminate verdict."""
    if ctx.classification.label == "Undecided":
        return {"classification_decided": "indeterminate"}
    return {}


def _residuals(ctx: FrameContext) -> dict[str, tuple[Expr, ...]]:
    """Apparatus identities (coordinate frames only), the trace identity, and
    the eta-closure and codifferential identities when h_tilde vanishes
    (skipped otherwise: they are defined only in that case)."""
    sf = ctx.sf
    residuals = apparatus_residuals(ctx.apparatus) if ctx.mode == "frame" else {}
    residuals["trace_identity"] = (sf.c011 + sf.c022,)
    if ctx.h_tilde_zero is Tri.TRUE:
        residuals.update(eta_residuals(ctx))
    return residuals


def _symmetry_entries(app, fields) -> list[dict]:
    out = []
    for name, Z in fields:
        entry = {"name": name, "field": render_field(Z)}
        pres = preserves_distribution(Z, app)
        entry["preserves_distribution"] = _WORDS[pres]
        if pres is Tri.TRUE:
            verdict = conformal_factor(Z, app)
            entry["verdict"] = verdict.kind
            if verdict.kind == "conformal":
                entry["mu"] = render_expr(verdict.mu)
            if verdict.kind in ("isometry", "conformal"):
                residuals = [r for n in (2, 3) for r in binomial_identity_check(Z, app, n)]
                entry["bracket_series_residuals_zero"] = _decide(residuals)
        else:
            entry["verdict"] = "neither" if pres is Tri.FALSE else "unknown"
        out.append(entry)
    return out


# -- reports --------------------------------------------------------------------


def _analysis(defn: StructureDefinition) -> tuple[dict, dict, dict]:
    """Body, residual families and decided words of the full pipeline on a
    structure definition."""
    ctx = _definition_context(defn)
    residuals = _residuals(ctx)
    body = {"chart": {"coords": list(defn.chart.coords), "params": list(defn.chart.params)}}
    body.update(_analysis_blocks(ctx))
    if defn.symmetry_fields:
        body["symmetry"] = _symmetry_entries(ctx.apparatus, defn.symmetry_fields)
    return body, residuals, _classification_decided(ctx)


def analyze_definition(defn: StructureDefinition) -> dict:
    return _report("analyze", _input_block(defn), *_analysis(defn))


def symmetry_report(defn: StructureDefinition) -> dict:
    coordinate_frame(defn, "the symmetry command")
    if not defn.symmetry_fields:
        raise EngineError("the structure file has no [symmetry] section")
    body, residuals, decided = _analysis(defn)
    for entry in body["symmetry"]:
        decided[f"symmetry_{entry['name']}_decided"] = (
            "indeterminate" if entry["verdict"] == "unknown" else "pass")
    return _report("symmetry", _input_block(defn), body, residuals, decided)


def classify_report(defn: StructureDefinition) -> dict:
    ctx = _definition_context(defn)
    body = {
        "invariants": _invariants_block(ctx.inv),
        "classification": _classification_block(ctx.classification),
    }
    return _report("classify", _input_block(defn), body, _residuals(ctx),
                   _classification_decided(ctx))


def rotate_report(defn: StructureDefinition, theta: Expr) -> dict:
    frame = coordinate_frame(defn, "rotation")
    inv = _frame_context(frame).inv
    rotated = hyperbolic_rotate(frame, theta)
    rctx = _frame_context(rotated)

    residuals = {f"rotated:{k}": v for k, v in _residuals(rctx).items()}
    rinv = rctx.inv
    residuals["kappa_invariant"] = (rinv.kappa - inv.kappa,)
    residuals["chi_invariant"] = (rinv.chi - inv.chi,)
    residuals["h_tilde_conjugation"] = _conjugation_residuals(inv, rinv, theta)
    body = {
        "theta": render_expr(theta),
        "frame": _frame_block(frame),
        "rotated_frame": _frame_block(rotated),
        "invariants": _invariants_block(inv),
        "rotated_invariants": _invariants_block(rinv),
    }
    return _report("rotate", _input_block(defn), body, residuals)


def _conjugation_residuals(inv: Invariants, rinv: Invariants, theta: Expr) -> list[Expr]:
    """Entries of h_tilde(rotated) - M(theta)^-1 h_tilde M(theta)."""
    (ch_, sh_) = (ex.cosh(theta), ex.sinh(theta))
    m = ((ch_, sh_), (sh_, ch_))
    minv = ((ch_, -sh_), (-sh_, ch_))  # det = cosh^2 - sinh^2 = 1
    h = inv.h_tilde
    prod = [[sum((minv[i][k] * h[k][l] * m[l][j] for k in range(2) for l in range(2)),
                 theta.chart.zero())
             for j in range(2)] for i in range(2)]
    return [rinv.h_tilde[i][j] - prod[i][j] for i in range(2) for j in range(2)]


def dilate_report(defn: StructureDefinition, scale: str) -> dict:
    frame = coordinate_frame(defn, "dilation")
    inv = _frame_context(frame).inv
    dilated = dilate(frame, scale)
    chart2 = dilated.chart
    s = chart2.var(scale)
    dctx = _frame_context(dilated)

    residuals = {f"dilated:{k}": v for k, v in _residuals(dctx).items()}
    dinv = dctx.inv
    # c12' = s c12 but c0j' = s^2 c0j (the Reeb field rescales by s^2), hence
    # kappa' = s^2 kappa while chi' = s^4 chi and h_tilde' = s^2 h_tilde.
    s2 = s * s
    residuals["kappa_scaling_s2"] = (dinv.kappa - s2 * inv.kappa.lift(chart2),)
    residuals["chi_scaling_s4"] = (dinv.chi - s2 * s2 * inv.chi.lift(chart2),)
    residuals["h_tilde_scaling_s2"] = tuple(
        dinv.h_tilde[i][j] - s2 * inv.h_tilde[i][j].lift(chart2)
        for i in range(2) for j in range(2)
    )
    body = {
        "scale": scale,
        "invariants": _invariants_block(inv),
        "dilated_invariants": _invariants_block(dinv),
    }
    return _report("dilate", _input_block(defn), body, residuals)


def algebra_report(name: str, kappa: Optional[Expr] = None) -> dict:
    algebra = catalog_algebra(name, kappa=kappa)
    residuals = {"jacobi": jacobi_residuals(algebra)}
    killing = killing_form(algebra)
    brackets = {}
    for i, j, vec in algebra.nonzero_brackets():
        terms = []
        for k, c in enumerate(vec):
            text = render_expr(c)
            if text == "0":
                continue
            if text == "1":
                terms.append(algebra.labels[k])
            elif text == "-1":
                terms.append("-" + algebra.labels[k])
            else:
                terms.append(f"({text})*{algebra.labels[k]}")
        brackets[f"[{algebra.labels[i]},{algebra.labels[j]}]"] = join_terms(terms)
    body = {
        "algebra": {
            "name": name,
            "dimension": algebra.dim,
            "basis": list(algebra.labels),
            "brackets": brackets,
        },
        "killing": {
            "matrix": _render_matrix(killing.matrix),
            "det": render_expr(killing.det),
            "signature": list(killing.signature) if killing.signature else None,
        },
    }
    marking, decided = catalog_marking(name), {}
    if marking is not None:
        ctx = FrameContext(sf=structure_functions_of_marking(algebra, marking), chart=algebra.chart)
        body.update(_analysis_blocks(ctx))
        residuals.update(_residuals(ctx))
        decided = _classification_decided(ctx)
    return _report("algebra", {"source": f"catalog:{name}", "mode": "algebra"}, body, residuals,
                   decided)


def catalog_report() -> dict:
    return {
        "report_version": REPORT_VERSION,
        "command": "catalog",
        "structures": sorted(fixtures.STRUCTURE_FILES),
        "algebras": sorted(fixtures.ALGEBRA_NAMES),
        "status": "pass",
    }


def ode_report(q: Expr) -> dict:
    structure = build_from_ode(q)
    ctx = _frame_context(structure.frame)
    residuals = null_bundle_residuals(structure, ctx.apparatus)
    residuals.update(_residuals(ctx))
    body = {
        "Q": render_expr(q),
        "one_forms": {
            "w1": [render_expr(c) for c in structure.omega1.components],
            "w2": [render_expr(c) for c in structure.omega2.components],
            "w3": [render_expr(c) for c in structure.omega3.components],
        },
        "null_fields": {
            "N1": render_field(structure.n1),
            "N2": render_field(structure.n2),
        },
    }
    body.update(_analysis_blocks(ctx))
    return _report("ode", {"source": "ode", "mode": "frame"}, body, residuals,
                   _classification_decided(ctx))


# -- output ------------------------------------------------------------------


EXIT_CODES = {"pass": 0, "fail": 1, "indeterminate": 2}


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2)


def to_text(report: dict) -> str:
    lines: list[str] = []

    def emit(key: str, value, depth: int):
        pad = "  " * depth
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k, v in value.items():
                emit(k, v, depth + 1)
        elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
            lines.append(f"{pad}{key}:")
            for i, v in enumerate(value):
                emit(f"[{i}]", v, depth + 1)
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: [{', '.join(str(v) for v in value)}]")
        else:
            lines.append(f"{pad}{key}: {value}")

    for key, value in report.items():
        emit(key, value, 0)
    return "\n".join(lines) + "\n"

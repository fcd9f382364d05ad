"""The benchmark's workloads: inputs from a seed, one pass, its output gate.

corpus     what `polyapprox study` does for the 22-contour corpus: parse
           each curve's .pts text, run_study at target_cr=15 with all
           three schemes and threads=1, then records.csv, correlations.csv
           and the SVG line diagrams, kept in memory.
large_mt   the same over two long blobs (n near 800) at threads=2.
per_curve  what `polyapprox profile --cost e2` and `polyapprox approx`
           (every scheme) do for each corpus curve at target_cr 8, 15
           and 30, starting from the curve's .pts text.

A pass only calls the package's public functions, looked up on their
modules at call time so that a traced pass runs through the wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from polyapprox import approx_error, curve, optimal, schemes, study
from polyapprox.exceptions import PolyApproxError
from polyapprox.measures import theorem_identity_check
from polyapprox.optimal import CostKind
from polyapprox.schemes import SchemeId

from corpus import (
    CORPUS_BLOBS, DEFAULT_SEED, LARGE_BLOBS, build_corpus, build_large, pts_text,
    resolve_blob_seeds,
)

THREADS = {"corpus": 1, "large_mt": 2, "per_curve": 1}
STUDY_CR = 15.0
PER_CURVE_CRS = (8.0, 15.0, 30.0)
IDENTITY_TOL = 1e-9
DIGESTS_FILE = Path(__file__).with_name("digests.json")


@dataclass
class Inputs:
    workload: str
    curves: list[tuple[str, str]]  # (name, .pts text)
    sum_n: int  # points over every curve evaluation of one pass


@dataclass
class PassOutput:
    artifacts: dict[str, bytes]
    attempted: int
    failed: int
    checked: object  # what the invariant checks read


def blob_seeds(workload: str, seed: int) -> list[int]:
    """The workload's blob seeds at `seed`; see corpus.resolve_blob_seeds."""
    return resolve_blob_seeds(seed, LARGE_BLOBS if workload == "large_mt" else CORPUS_BLOBS)


def make_inputs(workload: str, seed: int, seeds: list[int] | None = None) -> Inputs:
    """The workload's curves at `seed`; `seeds` are its blob_seeds, if known."""
    build = build_large if workload == "large_mt" else build_corpus
    curves = build(seed, seeds)
    evaluations = len(PER_CURVE_CRS) if workload == "per_curve" else 1
    return Inputs(
        workload, [(c.name, pts_text(c)) for c in curves], evaluations * sum(c.n for c in curves)
    )


def run_pass(inputs: Inputs, span=None) -> PassOutput:
    """One closed-loop pass; `span(name)` marks structure for the tracer."""
    span = span or (lambda name: contextlib.nullcontext())
    if inputs.workload == "per_curve":
        return _per_curve_pass(inputs.curves)
    return _study_pass(inputs.curves, THREADS[inputs.workload], span)


def _study_pass(texts, threads: int, span) -> PassOutput:
    curves = []
    for name, text in texts:
        crv = curve.parse_point_list(text)
        crv.name = name  # load_curve names a curve after its file
        curves.append(crv)
    with span("study.run_study"):
        reports = study.run_study(curves, target_cr=STUDY_CR, threads=threads)
    with span("study.emit"):
        artifacts = {
            "records.csv": study.records_csv(reports).encode("ascii"),
            "correlations.csv": study.correlations_csv(reports).encode("ascii"),
        }
        # the SVG set `polyapprox study` writes
        for report in reports:
            for key, *_ in study.PAIRINGS:
                if key in report.skipped_pairings or key not in report.agreement:
                    continue
                weighted, merit = study.study_series(report, key)
                artifacts[f"{report.scheme.value}_{study.pairing_slug(key)}.svg"] = (
                    study.emit_svg_line_diagram(
                        study.scale_for_plot(weighted),
                        study.scale_for_plot(merit),
                        report.agreement[key],
                    )
                )
    failed = len(reports[0].skipped_curves) if reports else len(curves)
    return PassOutput(artifacts, len(curves), failed, (curves, reports))


def _per_curve_pass(texts) -> PassOutput:
    lines = []
    checked = []
    failed = 0
    for name, text in texts:
        for cr in PER_CURVE_CRS:
            try:
                crv = curve.parse_point_list(text)
                crv.name = name
                m_sub = schemes.auto_target_m(crv, cr)
                # polyapprox profile --cost e2
                costs = optimal.SegmentCosts(crv)
                start = optimal.select_start_vertex(crv, m_sub, CostKind.SUM_SQUARED, costs)
                m_max = min(crv.n, 3 * m_sub)
                profile = optimal.optimal_profile(
                    crv, start, m_max, CostKind.SUM_SQUARED, costs
                )
                # polyapprox approx --scheme <each>
                polys = []
                for scheme in SchemeId:
                    poly = schemes.apply_scheme(scheme, crv, m_sub)
                    e2, emax = approx_error.polygon_errors(crv, poly)
                    polys.append((scheme.value, poly.m, e2, emax))
            except PolyApproxError as exc:
                failed += 1
                lines.append(f"{name} cr={cr:g} failed {type(exc).__name__}")
                continue
            lines.append(
                f"{name} cr={cr:g} start={start} profile "
                + ",".join(repr(v) for _, v in profile.items())
            )
            lines.extend(
                f"{name} cr={cr:g} {s} m={m} e2={e2!r} emax={emax!r}" for s, m, e2, emax in polys
            )
            checked.append((name, cr, m_sub, profile, polys))
    artifacts = {"per_curve.txt": ("\n".join(lines) + "\n").encode("ascii")}
    return PassOutput(artifacts, len(texts) * len(PER_CURVE_CRS), failed, checked)


def check_invariants(inputs: Inputs, out: PassOutput) -> list[str]:
    """Seed-independent output checks; each returned string is a failure."""
    problems = []
    if out.failed:
        problems.append(f"{out.failed} of {out.attempted} curve evaluations failed")
    if inputs.workload == "per_curve":
        for name, cr, m_sub, profile, polys in out.checked:
            vals = [v for _, v in profile.items()]
            for m, (hi, lo) in enumerate(zip(vals, vals[1:]), start=3):
                if lo > hi + IDENTITY_TOL * (1.0 + hi):
                    problems.append(f"{name} cr={cr:g}: profile rises at m={m + 1}")
            for scheme, m, _, _ in polys:
                if m != m_sub:
                    problems.append(f"{name} cr={cr:g} {scheme}: m={m}, asked {m_sub}")
        return problems
    curves, reports = out.checked
    wanted_m = {c.name: schemes.auto_target_m(c, STUDY_CR) for c in curves}
    for report in reports:
        for rec in report.records:
            where = f"{rec.curve_id} {rec.scheme}"
            if rec.m != wanted_m[rec.curve_id]:
                problems.append(f"{where}: m={rec.m}, asked {wanted_m[rec.curve_id]}")
            for name, residual in theorem_identity_check(rec).items():
                if not residual <= IDENTITY_TOL:
                    problems.append(f"{where}: identity {name} residual {residual:.3g}")
    return problems


def digests(artifacts: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(artifacts.items())}


def check_digests(workload: str, seed: int, got: dict[str, str]) -> list[str]:
    """At the default seed every artifact must match its committed digest."""
    if seed != DEFAULT_SEED:
        return []
    want = json.loads(DIGESTS_FILE.read_text())[workload]
    if got == want:
        return []
    bad = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    return [f"digest mismatch at seed {seed}: {', '.join(bad)}"]

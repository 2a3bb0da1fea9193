"""Command line driver: run a session file and emit JSON reports.

Each task writes one report file with two top-level sections.  The
"canonical" section is byte-stable: identical for repeated runs and for
either ambient monomial order, because every number in it is an invariant
of the declared objects and every polynomial in it is printed in a fixed
term order.  The "informational" section carries presentation-dependent
detail (oracle internals, presentation matrices, timings) and makes no
stability promise.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .classify import ClassifyError, classification_report
from .cotangent import CotangentError, aq_homology
from .modules import koszul_complex, koszul_homology_all_vanish
from .rings import AlgebraError
from .session import Session, SessionError, TaskDecl, parse_session
from .simplicial import (
    SimplicialError,
    bar_construction,
    constant_extension,
    hypersurface_resolution,
    kill_cycle,
)
from .suites import SuiteError, run_suite

_ERRORS = (AlgebraError, ClassifyError, CotangentError, SimplicialError,
           SuiteError)


def _point_json(session: Session, pt_name: str) -> dict:
    ring_name, pt = session.points[pt_name]
    algebra = session.rings[ring_name]
    return {v: str(pt[v]) for v in algebra.variables}


def _run_homology(session: Session, payload) -> tuple[bool, dict, dict]:
    map_name, coeff, maxdeg = payload
    phi = session.maps[map_name]
    resolution = None
    if maxdeg > 2:
        if (not phi.source.relations and phi.is_canonical_surjection()
                and len(phi.target.relations) == 1):
            resolution = hypersurface_resolution(
                phi.source, phi.target.relations[0], maxdeg + 1)
        # otherwise let aq_homology refuse with its own message
    if coeff[0] == "residue":
        _, pt = session.points[coeff[1]]
        report = aq_homology(phi, pt, n_max=maxdeg, resolution=resolution)
        canonical = {
            "coefficients": {"kind": "residue-field",
                             "point": _point_json(session, coeff[1])},
            "dims": {str(n): d for n, d in report.dims().items()},
        }
    else:
        report = aq_homology(phi, None, n_max=maxdeg, resolution=resolution)
        flags = {}
        for entry in report.entries:
            flags[str(entry["n"])] = entry["module"].is_zero()
        canonical = {
            "coefficients": {"kind": "target-algebra"},
            "zero": flags,
        }
    canonical["map"] = map_name
    canonical["maxdeg"] = maxdeg
    return True, canonical, {"report": report.to_json()}


def _run_classify(session: Session, payload) -> tuple[bool, dict, dict]:
    prop, subject_name, pt_names = payload
    if prop in ("regular", "ci"):
        subject = session.rings[subject_name]
    else:
        subject = session.maps[subject_name]
    points = [session.points[n][1] for n in pt_names]
    report = classification_report(prop, subject, points)
    rows = []
    for pt_name, row in zip(pt_names, report.rows):
        rows.append({
            "point": pt_name,
            "values": _point_json(session, pt_name),
            "verdict": row["verdict"],
            "evidence": row["evidence"],
        })
    canonical = {
        "property": prop,
        "subject": subject_name,
        "points": rows,
        "all": report.all_verdicts(),
        "global": report.global_flag,
    }
    informational = {"oracles": [row.get("oracle") for row in report.rows]}
    return True, canonical, informational


def _run_resolve(session: Session, payload,
                 level_cap: int | None) -> tuple[bool, dict, dict]:
    rkind, ring_name, detail, levels = payload
    algebra = session.rings[ring_name]
    effective = levels if level_cap is None else min(levels, level_cap)
    canonical = {"construction": rkind, "ring": ring_name,
                 "levels": effective}
    informational = {}
    if level_cap is not None and effective != levels:
        informational["level_cap"] = level_cap
    if rkind == "koszul":
        elements = [algebra.poly(e) for e in detail]
        complex = koszul_complex(algebra, elements)
        vanish, per_degree = koszul_homology_all_vanish(
            algebra, elements, max_degree=effective)
        canonical["elements"] = list(detail)
        canonical["ranks"] = [complex.rank(n)
                              for n in range(len(elements) + 1)]
        canonical["all_vanish"] = vanish
        canonical["per_degree"] = {str(n): v for n, v in per_degree.items()}
        return True, canonical, informational
    if rkind == "bar":
        ext = bar_construction(algebra, detail, effective)
        canonical["variable"] = detail
    elif rkind == "hypersurface":
        ext = hypersurface_resolution(algebra, detail, effective)
        canonical["element"] = detail
    else:
        base = constant_extension(algebra, effective)
        ext = kill_cycle(base, detail, 1)
        canonical["element"] = detail
    ok, failures = ext.simplicial_identities_hold()
    canonical["identities_hold"] = ok
    canonical["cells"] = [len(ext.levels[n]) for n in range(effective + 1)]
    if failures:
        informational["identity_failures"] = failures
    return ok, canonical, informational


def _run_check(payload) -> tuple[bool, dict, dict]:
    name = payload[0]
    result = run_suite(name)
    canonical = {"suite": name}
    canonical.update(result)
    return result["passed"], canonical, {}


def _execute(session: Session, task: TaskDecl,
             level_cap: int | None) -> dict:
    started = time.perf_counter()
    record = {"task": task.canonical(), "kind": task.kind}
    try:
        if task.kind == "homology":
            ok, canonical, info = _run_homology(session, task.payload)
        elif task.kind == "classify":
            ok, canonical, info = _run_classify(session, task.payload)
        elif task.kind == "resolve":
            ok, canonical, info = _run_resolve(session, task.payload,
                                               level_cap)
        else:
            ok, canonical, info = _run_check(task.payload)
        status = "pass" if ok else "fail"
    except ClassifyError as exc:
        status = "oracle-disagreement" if "disagreement" in str(exc) \
            else "error"
        canonical, info = {}, {"message": str(exc)}
    except _ERRORS as exc:
        status = "error"
        canonical, info = {}, {"message": str(exc)}
    canonical = dict(canonical)
    canonical["task"] = task.canonical()
    canonical["status"] = status
    record["canonical"] = canonical
    record["informational"] = dict(info)
    record["informational"]["elapsed_ms"] = round(
        (time.perf_counter() - started) * 1000, 3)
    return record


def run_session(text: str, out_dir: str | Path | None = None,
                order_name: str = "degrevlex",
                level_cap: int | None = None) -> tuple[int, dict]:
    """Parse and execute a session; optionally write per-task reports.

    Returns (exit code, summary).  Exit 0 means every task passed; 1 means
    a failure, error, or oracle disagreement; parse and point errors raise
    SessionError with their own exit codes instead.
    """
    session = parse_session(text, order_name)
    records = [_execute(session, task, level_cap)
               for task in session.tasks()]
    canonical = {
        "session": session.canonical_lines(),
        "tasks": [r["canonical"] for r in records],
        "statuses": [r["canonical"]["status"] for r in records],
    }
    summary = {
        "canonical": canonical,
        "informational": {
            "order": order_name,
            "task_details": [r["informational"] for r in records],
        },
    }
    all_pass = all(s == "pass" for s in canonical["statuses"])
    code = 0 if all_pass else 1
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        files = []
        for i, record in enumerate(records, start=1):
            name = f"task-{i:03d}-{record['kind']}.json"
            _write_json(out / name, {"canonical": record["canonical"],
                                     "informational": record["informational"]})
            files.append(name)
        _write_json(out / "canonical.json", canonical)
        summary["informational"]["files"] = files + ["canonical.json"]
        _write_json(out / "summary.json", summary)
    return code, summary


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="aq",
        description="Exact commutative-algebra toolkit: homology of "
                    "truncated cotangent complexes, classification "
                    "decision procedures, and simplicial resolutions.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a session file")
    runp.add_argument("file", help="path to the session file")
    runp.add_argument("--out", default=None,
                      help="report directory (default: <file>.out)")
    runp.add_argument("--order", default="degrevlex",
                      choices=("degrevlex", "lex"),
                      help="ambient monomial order for declared rings")
    runp.add_argument("--max-level", type=int, default=None,
                      help="cap simplicial constructions at this level")
    args = parser.parse_args(argv)

    path = Path(args.file)
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
        return 1
    out_dir = args.out if args.out is not None else f"{args.file}.out"
    try:
        code, summary = run_session(text, out_dir, args.order,
                                    args.max_level)
    except SessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    statuses = summary["canonical"]["statuses"]
    for record in summary["canonical"]["tasks"]:
        print(f"{record['status']:20s} {record['task']}")
    print(f"{len(statuses)} task(s); reports in {out_dir}")
    return code


if __name__ == "__main__":
    sys.exit(main())

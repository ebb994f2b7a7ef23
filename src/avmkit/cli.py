"""Command-line front end: validate, check, paths, export, info.

Exit codes are stable for CI use: 0 success, 1 model/property/engine failure,
2 I/O or usage error.
"""

import argparse
import json
import sys
from pathlib import Path as FsPath

from .checker import check_explicit, check_symbolic, to_kripke, witness, witness_shape
from .coupled import check_approach_alignment, check_mapping, check_synchronization
from .dsl import ModelSyntaxError, parse_model
from .export import NameCollisionError, to_dot, to_smv
from .lts import UnknownStateError, enumerate_simple_paths
from .report import Finding, ModelValidationError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avm",
        description="Validate coupled behavior models and check their CTL properties.",
    )
    parser.add_argument("--format", choices=("text", "structured"), default="text",
                        dest="report_format", help="report output format")
    parser.add_argument("--quiet", action="store_true",
                        help="only print error-severity findings and verdict lines")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="structural + mapping/approach/sync checks")
    p_validate.add_argument("file")
    p_validate.add_argument("--no-sync", action="store_true",
                            help="skip the synchronization stitching check")

    p_check = sub.add_parser("check", help="evaluate the document's CTL properties")
    p_check.add_argument("file")
    p_check.add_argument("--engine", choices=("explicit", "symbolic", "both"),
                         default="both")

    p_paths = sub.add_parser("paths", help="enumerate simple paths in one behavior")
    p_paths.add_argument("file")
    p_paths.add_argument("--behavior", required=True, choices=("control", "preventive"))
    p_paths.add_argument("--from", required=True, dest="from_state", metavar="STATE")
    p_paths.add_argument("--to", required=True, dest="to_state", metavar="STATE")

    p_export = sub.add_parser("export", help="emit SMV or DOT")
    p_export.add_argument("file")
    p_export.add_argument("--format", required=True, choices=("smv", "dot"),
                          dest="export_format")
    p_export.add_argument("--target", required=True, choices=("control", "preventive"))
    p_export.add_argument("--output", help="write here instead of stdout")

    p_info = sub.add_parser("info", help="model summary counts")
    p_info.add_argument("file")
    return parser


def _load(path: str):
    """Returns (document, findings, exit_code); document is None on failure."""
    try:
        text = FsPath(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
    except (OSError, UnicodeDecodeError) as exc:
        return None, [Finding("error", "io-error", path, str(exc))], EXIT_IO
    try:
        return parse_model(text, name=FsPath(path).stem), [], EXIT_OK
    except ModelSyntaxError as exc:
        finding = Finding("error", "syntax-error", path, exc.detail, exc.position)
        return None, [finding], EXIT_FAIL
    except ModelValidationError as exc:
        return None, list(exc.findings), EXIT_FAIL


def _emit(args, payload: dict, lines: list[str]) -> int:
    if args.report_format == "structured":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return payload["exit_code"]


def _failure_payload(args, findings, code: int) -> int:
    payload = {
        "command": args.command,
        "file": args.file,
        "findings": [f.to_record() for f in findings],
        "exit_code": code,
    }
    lines = [f.format() for f in findings if not args.quiet or f.severity == "error"]
    return _emit(args, payload, lines)


def _position_findings(report, doc):
    """Point check findings back into the source text where the subject appears."""
    decorated = tuple(
        f._replace(position=doc.source_positions.get(f.subject))
        if f.position is None and f.subject in doc.source_positions else f
        for f in report.findings
    )
    return report._replace(findings=decorated)


def cmd_validate(args, doc) -> int:
    reports = [check_mapping(doc.coupled), check_approach_alignment(doc.coupled)]
    skipped = []
    if args.no_sync:
        skipped.append("synchronization")
    else:
        reports.append(check_synchronization(doc.coupled))
    reports = [_position_findings(r, doc) for r in reports]

    lines = [r.format("error" if args.quiet else "warning") for r in reports]
    lines += [f"{name}: skipped" for name in skipped]
    exit_code = EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL
    payload = {
        "command": "validate",
        "file": args.file,
        "checks": [r.to_record() for r in reports],
        "skipped": skipped,
        "findings": [],
        "exit_code": exit_code,
    }
    return _emit(args, payload, lines)


def cmd_check(args, doc) -> int:
    kripkes = {}

    def kripke_for(target: str):
        if target not in kripkes:
            behavior = doc.coupled.behavior(target)
            kripkes[target] = to_kripke(behavior, doc.coupled.approaches.states_by_side(target))
        return kripkes[target]

    findings = []
    results = []
    lines = []
    for prop in doc.properties:
        k = kripke_for(prop.target)
        sat_explicit = sat_symbolic = None
        if args.engine in ("explicit", "both"):
            sat_explicit = check_explicit(k, prop.formula)
        if args.engine in ("symbolic", "both"):
            sat_symbolic = check_symbolic(k, prop.formula)
        if args.engine == "both" and sat_explicit != sat_symbolic:
            differing = sorted(sat_explicit ^ sat_symbolic)
            findings.append(
                Finding("error", "engine-disagreement", prop.name,
                        f"engines disagree on: {', '.join(differing)}", prop.position)
            )
        sat = sat_explicit if sat_explicit is not None else sat_symbolic
        verdict = "holds" if k.initial in sat else "fails"
        matches = None if prop.expected is None else (verdict == prop.expected)
        if matches is False:
            findings.append(
                Finding("error", "expectation-mismatch", prop.name,
                        f"verdict {verdict}, expected {prop.expected}", prop.position)
            )

        shape = witness_shape(prop.formula)
        path = None
        note = None
        if shape == "reachability" and verdict == "holds":
            path = witness(k, prop.formula)
        elif shape == "invariant" and verdict == "fails":
            path = witness(k, prop.formula)
        elif shape is None:
            note = "witness unsupported for this formula shape"

        suffix = ""
        if prop.expected is not None:
            suffix = (f" (expected {prop.expected})" if matches
                      else f" (expected {prop.expected}, MISMATCH)")
        lines.append(f"{prop.name} on {prop.target}: {verdict}{suffix}")
        if path is not None and not args.quiet:
            kind = "witness" if shape == "reachability" else "counterexample"
            lines.append(f"  {kind}: {path}")
        results.append({
            "name": prop.name,
            "target": prop.target,
            "formula": str(prop.formula),
            "verdict": verdict,
            "expected": prop.expected,
            "matches_expectation": matches,
            "witness": list(path.states) if path is not None else None,
            "witness_note": note,
            "engine": args.engine,
        })

    mismatches = sum(1 for r in results if r["matches_expectation"] is False)
    lines.extend(f.format() for f in findings)
    lines.append(f"{len(results)} propert{'y' if len(results) == 1 else 'ies'} checked, "
                 f"{mismatches} expectation mismatch(es)")
    exit_code = EXIT_OK if not findings else EXIT_FAIL
    payload = {
        "command": "check",
        "file": args.file,
        "engine": args.engine,
        "properties": results,
        "findings": [f.to_record() for f in findings],
        "exit_code": exit_code,
    }
    return _emit(args, payload, lines)


def cmd_paths(args, doc) -> int:
    behavior = doc.coupled.behavior(args.behavior)
    try:
        paths = enumerate_simple_paths(behavior, args.from_state, args.to_state)
    except UnknownStateError as exc:
        finding = Finding("error", "unknown-state", exc.state,
                          f"no state named {exc.state} in the {args.behavior} behavior")
        return _failure_payload(args, [finding], EXIT_FAIL)
    lines = [str(p) for p in paths]
    lines.append(f"{len(paths)} path(s) from {args.from_state} to {args.to_state}")
    payload = {
        "command": "paths",
        "file": args.file,
        "behavior": args.behavior,
        "from": args.from_state,
        "to": args.to_state,
        "paths": [{"states": list(p.states), "labels": list(p.labels)} for p in paths],
        "findings": [],
        "exit_code": EXIT_OK,
    }
    return _emit(args, payload, lines)


def cmd_export(args, doc) -> int:
    try:
        if args.export_format == "smv":
            text = to_smv(doc, args.target)
        else:
            behavior = doc.coupled.behavior(args.target)
            text = to_dot(behavior, approaches=doc.coupled.approaches.states_by_side(args.target),
                          name=args.target)
    except NameCollisionError as exc:
        finding = Finding("error", "name-collision", args.target, str(exc))
        return _failure_payload(args, [finding], EXIT_FAIL)
    if args.output:
        try:
            FsPath(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            finding = Finding("error", "io-error", args.output, str(exc))
            return _failure_payload(args, [finding], EXIT_IO)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_info(args, doc) -> int:
    coupled = doc.coupled
    preventive = coupled.preventive
    control = coupled.control
    lines = [
        f"preventive: {len(preventive.states)} states / {len(preventive.transitions)} transitions",
        f"control: {len(control.states)} states / {len(control.transitions)} transitions",
        f"mapping: {len(coupled.mapping.entries)} entries / {len(coupled.mapping.exempt)} exempt",
        "approaches: " + ", ".join(
            f"{a.name} ({len(a.control_states)}+{len(a.preventive_states)})"
            for a in coupled.approaches.approaches
        ),
        f"properties: {len(doc.properties)}",
    ]
    payload = {
        "command": "info",
        "file": args.file,
        "preventive": {"states": len(preventive.states), "transitions": len(preventive.transitions)},
        "control": {"states": len(control.states), "transitions": len(control.transitions)},
        "mapping": {"entries": len(coupled.mapping.entries), "exempt": len(coupled.mapping.exempt)},
        "approaches": {
            a.name: {"control": sorted(a.control_states), "preventive": sorted(a.preventive_states)}
            for a in coupled.approaches.approaches
        },
        "properties": len(doc.properties),
        "findings": [],
        "exit_code": EXIT_OK,
    }
    return _emit(args, payload, lines)


_COMMANDS = {
    "validate": cmd_validate,
    "check": cmd_check,
    "paths": cmd_paths,
    "export": cmd_export,
    "info": cmd_info,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    doc, findings, code = _load(args.file)
    if doc is None:
        return _failure_payload(args, findings, code)
    return _COMMANDS[args.command](args, doc)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

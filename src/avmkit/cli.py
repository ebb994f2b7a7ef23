"""Command-line front end: validate, check, paths, export, info.

Exit codes are stable for CI use: 0 success, 1 model/property/engine failure,
2 I/O or usage error.
"""

import argparse
import functools
import os
import sys

from .coupled import check_approach_alignment, check_mapping, check_synchronization
from .dsl import ModelSyntaxError, parse_model
from .lts import UnknownStateError, enumerate_simple_paths
from .report import Finding, ModelValidationError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2

# The engines load on the first `check`, and the exporters in `export`, so the
# other commands do not compile them.
_ENGINE_NAMES = ("to_kripke", "check_explicit", "check_symbolic", "witness", "WITNESSES")


def _bind_engines() -> None:
    """Binds the engine names into this module's globals, which `cmd_check`
    calls through. A name already bound stays bound: a caller may have
    replaced it with a wrapper before the first check."""
    from . import checker

    for name in _ENGINE_NAMES:
        globals().setdefault(name, getattr(checker, name))


def __getattr__(name: str):
    # `cli.to_kripke` and the other engine names resolve before any check.
    if name not in _ENGINE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_engines()
    return globals()[name]


# Built on the first `main` call, not at import, and reused by every later call
# in the process. It holds only constants (a fixed `prog`, no mutable default),
# so the calls share nothing through it.
@functools.cache
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
        with open(path, encoding="utf-8-sig") as source:  # a leading byte-order mark is dropped
            text = source.read()
    except (OSError, UnicodeDecodeError) as exc:
        return None, [Finding("error", "io-error", path, str(exc))], EXIT_IO
    try:
        return parse_model(text, name=os.path.splitext(os.path.basename(path))[0]), [], EXIT_OK
    except ModelSyntaxError as exc:
        finding = Finding("error", "syntax-error", path, exc.detail, exc.position)
        return None, [finding], EXIT_FAIL
    except ModelValidationError as exc:
        return None, list(exc.findings), EXIT_FAIL


def _emit(args, lines, fields, code: int = EXIT_OK, findings=()) -> int:
    """Print a command's outcome and return its exit code. Only the output asked
    for is built: `lines()` gives the text lines, `fields()` the command's own
    structured fields, printed as one JSON document with the keys every
    command shares."""
    if args.report_format == "structured":
        import json

        envelope = {"command": args.command, "file": args.file,
                    "findings": [f.to_record() for f in findings], "exit_code": code}
        print(json.dumps(fields() | envelope, indent=2, sort_keys=True))
    else:
        for line in lines():
            print(line)
    return code


def _fail(args, findings, code: int = EXIT_FAIL) -> int:
    return _emit(args, lambda: [f.format() for f in findings
                                if not args.quiet or f.severity == "error"], dict, code, findings)


# Findings about a whole behavior or model: their subject names no state.
_UNPLACED = frozenset({"no-final-states", "control-paths", "uncovered-states",
                       "fully-exempt-mapping"})


def _place(doc, f):
    """A check finding about a state, pointed back into the source text where
    the state is mapped, exempted or first mentioned."""
    if f.position is None and f.code not in _UNPLACED and f.subject in doc.source_positions:
        return f._replace(position=doc.source_positions[f.subject])
    return f


def cmd_validate(args, doc) -> int:
    reports = [check_mapping(doc.coupled), check_approach_alignment(doc.coupled)]
    skipped = ["synchronization"] if args.no_sync else []
    if not args.no_sync:
        # Text shows no info finding, so it needs no control path count.
        count_paths = args.report_format == "structured"
        reports.append(check_synchronization(doc.coupled, count_paths=count_paths))
    code = EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL
    # Text places only the findings it prints; structured output places them all.
    place = functools.partial(_place, doc)
    min_severity = "error" if args.quiet else "warning"
    return _emit(args, lambda: [r.format(min_severity, place) for r in reports]
                 + [f"{name}: skipped" for name in skipped],
                 lambda: {"checks": [r.to_record(place) for r in reports], "skipped": skipped},
                 code)


def cmd_check(args, doc) -> int:
    _bind_engines()
    coupled = doc.coupled
    kripkes = {
        target: to_kripke(coupled.behavior(target), coupled.approaches.states_by_side(target))
        for target in dict.fromkeys(prop.target for prop in doc.properties)
    }
    findings = []
    outcomes = []  # (property, verdict, matches its expectation, witness rule, path)
    # Text `--quiet` prints no witness line, so it computes no witness.
    shows_witness = args.report_format == "structured" or not args.quiet
    for prop in doc.properties:
        k = kripkes[prop.target]
        sat_explicit = sat_symbolic = None
        if args.engine in ("explicit", "both"):
            sat_explicit = check_explicit(k, prop.formula)
        if args.engine in ("symbolic", "both"):
            sat_symbolic = check_symbolic(k, prop.formula)
        if args.engine == "both" and sat_explicit != sat_symbolic:
            differing = sorted(sat_explicit ^ sat_symbolic)
            findings.append(Finding("error", "engine-disagreement", prop.name,
                                    f"engines disagree on: {', '.join(differing)}", prop.position))
        sat = sat_explicit if sat_explicit is not None else sat_symbolic
        verdict = "holds" if k.initial in sat else "fails"
        matches = None if prop.expected is None else (verdict == prop.expected)
        if matches is False:
            findings.append(Finding("error", "expectation-mismatch", prop.name,
                                    f"verdict {verdict}, expected {prop.expected}", prop.position))

        rule = WITNESSES.get(type(prop.formula))  # (verdict it shows, name) or None
        path = None
        if shows_witness and rule is not None and verdict == rule[0]:
            path = witness(k, prop.formula)
        outcomes.append((prop, verdict, matches, rule, path))

    def lines():
        for prop, verdict, matches, rule, path in outcomes:
            suffix = ""
            if prop.expected is not None:
                suffix = (f" (expected {prop.expected})" if matches
                          else f" (expected {prop.expected}, MISMATCH)")
            yield f"{prop.name} on {prop.target}: {verdict}{suffix}"
            if path is not None and not args.quiet:
                yield f"  {rule[1]}: {path}"
        yield from map(Finding.format, findings)
        mismatches = sum(matches is False for _, _, matches, _, _ in outcomes)
        yield (f"{len(outcomes)} propert{'y' if len(outcomes) == 1 else 'ies'} checked, "
               f"{mismatches} expectation mismatch(es)")

    def fields():
        return {"engine": args.engine, "properties": [{
            "name": prop.name, "target": prop.target, "formula": str(prop.formula),
            "verdict": verdict, "expected": prop.expected, "matches_expectation": matches,
            "witness": list(path.states) if path is not None else None,
            "witness_note": None if rule else "witness unsupported for this formula shape",
            "engine": args.engine,
        } for prop, verdict, matches, rule, path in outcomes]}

    return _emit(args, lines, fields, EXIT_OK if not findings else EXIT_FAIL, findings)


def cmd_paths(args, doc) -> int:
    behavior = doc.coupled.behavior(args.behavior)
    try:
        paths = enumerate_simple_paths(behavior, args.from_state, args.to_state)
    except UnknownStateError as exc:
        detail = f"no state named {exc.state} in the {args.behavior} behavior"
        return _fail(args, [Finding("error", "unknown-state", exc.state, detail)])
    return _emit(args,
                 lambda: [*map(str, paths),
                          f"{len(paths)} path(s) from {args.from_state} to {args.to_state}"],
                 lambda: {"behavior": args.behavior, "from": args.from_state, "to": args.to_state,
                          "paths": [{"states": list(p.states), "labels": list(p.labels)}
                                    for p in paths]})


def cmd_export(args, doc) -> int:
    from .export import NameCollisionError, to_dot, to_smv

    try:
        if args.export_format == "smv":
            text = to_smv(doc, args.target)
        else:
            behavior = doc.coupled.behavior(args.target)
            text = to_dot(behavior, approaches=doc.coupled.approaches.states_by_side(args.target),
                          name=args.target)
    except NameCollisionError as exc:
        return _fail(args, [Finding("error", "name-collision", args.target, str(exc))])
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as out:
                out.write(text)
        except OSError as exc:
            return _fail(args, [Finding("error", "io-error", args.output, str(exc))], EXIT_IO)
    # print adds back the newline the text ends in
    return _emit(args, lambda: [] if args.output else [text.removesuffix("\n")],
                 lambda: {"target": args.target, "format": args.export_format,
                          "output": args.output, "text": text})


def cmd_info(args, doc) -> int:
    coupled = doc.coupled
    sizes = {side: {"states": len(b.states), "transitions": len(b.transitions)}
             for side, b in (("preventive", coupled.preventive), ("control", coupled.control))}
    mapping = {"entries": len(coupled.mapping.entries), "exempt": len(coupled.mapping.exempt)}
    approaches = {
        a.name: {"control": sorted(a.control_states), "preventive": sorted(a.preventive_states)}
        for a in coupled.approaches.approaches
    }
    return _emit(args, lambda: [
        *(f"{side}: {n['states']} states / {n['transitions']} transitions"
          for side, n in sizes.items()),
        f"mapping: {mapping['entries']} entries / {mapping['exempt']} exempt",
        "approaches: " + ", ".join(f"{name} ({len(m['control'])}+{len(m['preventive'])})"
                                   for name, m in approaches.items()),
        f"properties: {len(doc.properties)}",
    ], lambda: sizes | {"mapping": mapping, "approaches": approaches,
                        "properties": len(doc.properties)})


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
        return _fail(args, findings, code)
    return _COMMANDS[args.command](args, doc)


def run() -> None:
    # A character the terminal's encoding lacks (in a file name or a finding's
    # detail) is printed as an escape, not raised.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Nobody reads stdout: point it at the null device so the exit flush succeeds.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_IO
    sys.exit(code)


if __name__ == "__main__":
    run()

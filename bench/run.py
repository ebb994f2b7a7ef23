"""Benchmark of the `avm` command line: what a user waits for on one
`avm validate FILE` and one `avm check FILE` call. See README.md.

Run from the root of a checkout:

    python3 bench/run.py --workload chain-deep --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28

The last line of output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_run"
COMMANDS = ("validate", "check")
SETUP_REPEATS = 12
# The reference loop's fastest time on a quiet 2-vCPU Xeon VM; timings are
# reported at the host speed where the loop takes this long.
REFERENCE_SECONDS = 0.01
PERCENTILES = (50, 90, 99, 99.9)

# Per-layer metrics reported by the traced run: self-time medians ("_s",
# seconds per call) and counts summed over one round of the workload's calls.
LAYER_TIMES = (
    "dsl.parse_model", "ctl.parse_ctl", "ctl.normalize",
    "coupled.check_mapping", "coupled.check_approach_alignment",
    "coupled.check_synchronization", "lts.enumerate_simple_paths", "lts.reachable_states",
    "checker.to_kripke", "checker.check_explicit", "checker.check_symbolic",
    "checker.witness", "bdd.apply", "bdd.exists", "bdd.mk_var", "bdd.negate",
    "bdd.ite", "bdd.evaluate",
)
LAYER_COUNTS = (
    "dsl.input_bytes", "coupled.sync_control_paths", "lts.simple_paths",
    "checker.kripke_states", "checker.kripke_edges", "checker.sat_states",
    "bdd.managers", "bdd.nodes", "bdd.apply_calls", "bdd.exists_calls",
    "bdd.mk_var_calls", "bdd.negate_calls", "bdd.ite_calls", "bdd.evaluate_calls",
)


def environment() -> str:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as info:
        match = re.search(r"^model name\s*:\s*(.+)$", info.read(), re.M)
        if match:
            cpu = match.group(1)
    return (f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
            f"cpu {cpu}")


def load_average() -> str:
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


def avmkit_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "avmkit" or name.startswith("avmkit.")}


def import_avmkit():
    """Imports avmkit from this checkout, dropping any copy imported before,
    so each set-up repetition pays the full import."""
    for name in avmkit_modules():
        del sys.modules[name]
    importlib.invalidate_caches()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("avmkit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"avmkit imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, work_dir: Path):
    """Imports avmkit and writes the workload's inputs. Returns (cli module,
    [(path, ModelInput)])."""
    cli = import_avmkit()
    inputs = workloads.WORKLOADS[workload](seed)
    written = []
    for model in inputs:
        path = work_dir / model.filename
        path.write_text(model.text, encoding="utf-8")
        written.append((str(path), model))
    return cli, written


def judge(expect: workloads.Expect, command: str, code, out: str) -> str | None:
    """Why a call's result differs from the known answer, or None."""
    if code != expect.exit_code:
        return f"exit code {code}, expected {expect.exit_code}"
    for finding_code in expect.codes:
        if f"[error] {finding_code} " not in out:
            return f"no {finding_code} error finding"
    if command == "validate" and expect.exit_code == 0:
        status = dict(re.findall(r"^(\w+): (\w+)$", out, re.M))
        for name in workloads.VALIDATE_CHECKS:
            if status.get(name) != "pass":
                return f"validate check {name}: {status.get(name)}, expected pass"
    if expect.verdicts is not None:
        verdicts = dict(re.findall(r"^(\w+) on (?:control|preventive): (holds|fails)\b",
                                   out, re.M))
        if verdicts != expect.verdicts:
            return f"verdicts {verdicts}, expected {expect.verdicts}"
    return None


def call_cli(main, command: str, path: str) -> tuple[object, str, float]:
    """One in-process CLI call with output captured. Returns (exit code or
    the escaped exception, stdout, wall seconds)."""
    out = io.StringIO()
    # Start each call from a collected heap, as a fresh `avm` process would,
    # so one call's garbage is not collected on the next call's clock.
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main([command, path])
        except (Exception, SystemExit) as exc:  # an escaped exception is a failed call
            code = exc
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


def reference_loop() -> int:
    """Fixed interpreter-bound work (tuples, strings, dict updates, a sort),
    timed once per round to follow the host's current speed."""
    counts = {}
    for i in range(16000):
        key = (i % 997, f"s{i % 991}")
        counts[key] = counts.get(key, 0) + 1
    return len(sorted(counts.items()))


def run_calls(main, inputs, seconds: float, rng: random.Random, after_call=None,
              after_round=None):
    """Closed loop over whole rounds (every input, both commands, in a seeded
    order per round) until `seconds` have passed; each round starts with the
    reference loop. Returns ({command: [mean wall seconds of one call, per
    round]}, [reference loop seconds], attempted, [failure descriptions]).

    A round's mean weighs every input once, so on a multi-file workload the
    median over rounds describes the whole mix rather than whichever file's
    time the middle call happens to fall on."""
    times = {command: [] for command in COMMANDS}
    references = []
    attempted = 0
    failures = []
    calls = [(path, model, command) for path, model in inputs for command in COMMANDS]
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        gc.collect()
        start = time.perf_counter()
        reference_loop()
        references.append(time.perf_counter() - start)
        rng.shuffle(calls)
        round_total = dict.fromkeys(COMMANDS, 0.0)
        for path, model, command in calls:
            code, out, wall = call_cli(main, command, path)
            if after_call is not None:
                after_call()
            attempted += 1
            round_total[command] += wall
            problem = judge(model.expect[command], command, code, out)
            if problem is not None:
                failures.append(f"{command} {model.filename}: {problem}")
        for command in COMMANDS:
            times[command].append(round_total[command] / len(inputs))
        if after_round is not None:
            after_round()
    return times, references, attempted, failures


def summary(values: list[float], what: str = "rounds") -> str:
    """Minimum, median, sample count, and the highest of PERCENTILES that has
    at least ten samples beyond it."""
    text = (f"min {min(values):.6f} s, median {statistics.median(values):.6f} s "
            f"over {len(values)} {what}")
    kept = [p for p in PERCENTILES if len(values) * (100 - p) / 100 >= 10]
    if not kept:
        return text + ", too few for a percentile with ten beyond it"
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return text + f", p{kept[-1]:g} {cuts[round(kept[-1] * 10) - 1]:.6f} s"


def host_scale(references: list[float]) -> float:
    """Factor that takes this run's timings to the host speed where the
    reference loop takes REFERENCE_SECONDS."""
    scale = REFERENCE_SECONDS / min(references)
    print(f"reference loop: {summary(references)}; timings scaled by {scale:.4f}")
    return scale


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> dict:
    print(f"env: {environment()}; load average at start {load_average()}")
    work_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    (work_dir / "setup").mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        cli, inputs = set_up(args.workload, args.seed, work_dir)
        setups = [time.perf_counter() - start]
        rng = random.Random(f"order/{args.seed}")
        if args.trace:
            result = traced_run(args, cli, inputs, rng)
        else:
            result = timed_run(args, cli, inputs, rng, setups, work_dir / "setup")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"load average at end {load_average()}")
    return result


def timed_run(args, cli, inputs, rng, setups, setup_dir) -> dict:
    """The untraced run. Set-up is repeated between rounds, spread over the
    run, so its fastest repetition sees the same host as the timed calls. The
    modules imported first are put back after each repetition, so every call
    runs against one unchanged import."""
    interval = args.seconds / SETUP_REPEATS
    next_setup = time.perf_counter() + interval

    def repeat_set_up():
        nonlocal next_setup
        if len(setups) < SETUP_REPEATS and time.perf_counter() >= next_setup:
            first_import = avmkit_modules()
            start = time.perf_counter()
            set_up(args.workload, args.seed, setup_dir)
            setups.append(time.perf_counter() - start)
            for name in avmkit_modules():
                del sys.modules[name]
            sys.modules.update(first_import)
            next_setup += interval

    times, references, attempted, failures = run_calls(
        cli.main, inputs, args.seconds, rng, after_round=repeat_set_up)
    print(f"{args.workload} setup_s: {summary(setups, 'set-ups')}")
    # Timings are the fastest round (and set-up), scaled by the fastest
    # reference loop of the same run: other tenants of a shared host slow it
    # down by up to 1.8x for stretches of seconds to minutes. On a 2-vCPU
    # Xeon VM, over ten runs of random-wide the quartile spread of the per-run
    # minimum check_s was 0.44 of its value, that of the scaled minimum 0.12.
    scale = host_scale(references)
    return report(args, times, attempted, failures, {
        "validate_s": metric(min(times["validate"]) * scale, "s"),
        "check_s": metric(min(times["check"]) * scale, "s"),
        "setup_s": metric(min(setups) * scale, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    })


def traced_run(args, cli, inputs, rng) -> dict:
    tracer = tracing.Tracer()
    missing = tracing.install(tracer)
    if missing:
        print("not traced (not found): " + ", ".join(missing))
    first_round = {}

    def keep_first_round():
        if not first_round:
            first_round.update(tracer.counts)

    main = tracer.wrap("cli.main", cli.main)
    times, references, attempted, failures = run_calls(
        main, inputs, args.seconds, rng, after_call=tracer.end_call,
        after_round=keep_first_round)
    scale = host_scale(references)
    metrics = {
        "trace.validate_s": metric(min(times["validate"]) * scale, "s"),
        "trace.check_s": metric(min(times["check"]) * scale, "s"),
        "cli.main_self_s": metric(tracer.median_self_time("cli.main"), "s"),
    }
    for name in LAYER_TIMES:
        metrics[f"{name}_s"] = metric(tracer.median_self_time(name), "s")
    for name in LAYER_COUNTS:
        metrics[name] = metric(first_round.get(name, 0), "count")
    trace_file = OUT_DIR / f"spans-{args.workload}.json"
    tracer.write(trace_file, {"workload": args.workload, "seed": args.seed})
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    return report(args, times, attempted, failures, metrics, traced=True)


def report(args, times, attempted, failures, metrics, traced=False) -> dict:
    label = "traced " if traced else ""
    for command in COMMANDS:
        print(f"{args.workload} {label}{command}_s: {summary(times[command])}")
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    print(f"{args.workload} error_rate: {len(failures) / attempted:.6f} "
          f"({len(failures)} of {attempted} calls)")
    for name, m in metrics.items():
        print(f"{args.workload} {name}: {m['value']} {m['unit']}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def run_all(args) -> int:
    """Each workload untraced then traced, each in its own process."""
    rows = []
    ok = True
    for workload in workloads.WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} --trace {trace} exited {proc.returncode}\n{proc.stderr}")
                ok = False
                break
            results[trace] = json.loads(lines[-1])
            print("\n".join(lines[:-1]))
        if len(results) == 2:
            rows.append((workload, results[0], results[1]))
    print()
    print(f"{'workload':<18}{'validate_s':>12}{'check_s':>12}{'setup_s':>10}{'peak_rss_mb':>14}"
          f"{'error_rate':>12}{'trace overhead validate/check':>32}")
    for workload, plain, traced in rows:
        m, t = plain["metrics"], traced["metrics"]
        ok = ok and plain["correct"] and traced["correct"]
        overhead = (f"{t['trace.validate_s']['value'] - m['validate_s']['value']:+.4f} s / "
                    f"{t['trace.check_s']['value'] - m['check_s']['value']:+.4f} s")
        print(f"{workload:<18}{m['validate_s']['value']:>10.4f} s{m['check_s']['value']:>10.4f} s"
              f"{m['setup_s']['value']:>8.4f} s{m['peak_rss_mb']['value']:>11.1f} MB"
              f"{plain['failed'] / plain['attempted']:>12.4f}{overhead:>32}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of avm validate and avm check.")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

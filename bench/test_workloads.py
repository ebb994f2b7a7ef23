"""Checks of the benchmark's own generators, independent of avmkit.

Run with: python3 -m pytest bench
"""

import json
import re
from collections import defaultdict, deque

import pytest

import run
import workloads

EDGE = re.compile(r"^\s+(\w+) - \w+ -> (\w+)\s*$")


def behavior(text: str, kind: str):
    """(initial, finals, {source: [targets]}) of one behavior block, read
    with a regex rather than the avmkit parser."""
    block = re.search(rf"^behavior {kind} {{\n(.*?)^}}", text, re.M | re.S).group(1)
    initial = re.search(r"^\s+initial (\w+)", block, re.M).group(1)
    finals = re.search(r"^\s+final (.+)$", block, re.M)
    succ = defaultdict(list)
    for line in block.splitlines():
        match = EDGE.match(line)
        if match:
            succ[match.group(1)].append(match.group(2))
    return initial, finals.group(1).split() if finals else [], succ


def count_paths_in_dag(succ, source: str, target: str) -> int:
    """Paths from source to target, counted in topological order (Kahn);
    raises on a cycle, where this count would not be the simple-path count."""
    nodes = reached(succ, source)
    indegree = {n: 0 for n in nodes}
    for n in nodes:
        for t in succ[n]:
            indegree[t] += 1
    paths = dict.fromkeys(nodes, 0)
    paths[source] = 1
    ready = deque(n for n in nodes if indegree[n] == 0)
    done = 0
    while ready:
        n = ready.popleft()
        done += 1
        for t in succ[n]:
            paths[t] += paths[n]
            indegree[t] -= 1
            if indegree[t] == 0:
                ready.append(t)
    if done != len(nodes):
        raise ValueError("the graph has a cycle")
    return paths[target]


def reached(succ, start: str) -> set[str]:
    seen = {start}
    queue = deque([start])
    while queue:
        for nxt in succ[queue.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    generate = workloads.WORKLOADS[name]
    first, again = generate(7), generate(7)
    assert [(m.filename, m.text, m.expect) for m in first] == \
           [(m.filename, m.text, m.expect) for m in again]
    if name != "antivirus-corpus":  # the corpus files are fixed; only their order moves
        assert [m.text for m in generate(8)] != [m.text for m in first]


@pytest.mark.parametrize("k", [1, 3, 14])
def test_ladder_has_two_to_the_k_control_paths(k):
    (model,) = workloads.ladder_sync(seed=3, k=k)
    initial, finals, succ = behavior(model.text, "control")
    assert count_paths_in_dag(succ, initial, finals[0]) == 2 ** k


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_wide_preventive_is_strongly_connected(seed):
    (model,) = workloads.random_wide(seed)
    initial, _, succ = behavior(model.text, "preventive")
    states = set(succ) | {t for targets in succ.values() for t in targets}
    assert len(states) == 512
    assert all(len(targets) == 2 for targets in succ.values())
    backward = defaultdict(list)
    for source, targets in succ.items():
        for target in targets:
            backward[target].append(source)
    assert reached(succ, initial) == states
    assert reached(backward, initial) == states


@pytest.mark.parametrize("generate", [workloads.chain_deep, workloads.random_wide])
def test_chain_control_sides_have_one_simple_path(generate):
    (model,) = generate(seed=5)
    initial, finals, succ = behavior(model.text, "control")
    assert count_paths_in_dag(succ, initial, finals[0]) == 1


@pytest.mark.parametrize("generate", [workloads.chain_deep, workloads.random_wide,
                                      workloads.ladder_sync])
def test_every_generated_spec_expects_its_known_verdict(generate):
    (model,) = generate(seed=1)
    specs = re.findall(r"^spec (\w+) on \w+ expect (holds|fails):", model.text, re.M)
    assert dict(specs) == model.expect["check"].verdicts


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {"trace.validate_s", "trace.check_s", "cli.main_self_s",
                 *(f"{name}_s" for name in run.LAYER_TIMES), *run.LAYER_COUNTS}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "validate_s", "check_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)

"""Self-tests of the benchmark (not collected by the tier-1 suite).

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from perfbench.checks import check_pairs, same_answer
from perfbench.inputs import churn_inputs, knn_inputs
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.tracing import TARGETS, Span, SpanRecorder, Tracer, request_trees
from perfbench.workloads import WORKLOADS, load_decisions, run_knn, workload_spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def fingerprint(arrays):
    """A compact identity of a list of arrays."""
    return tuple(
        (a.size, hashlib.blake2b(a.tobytes(), digest_size=8).hexdigest())
        for a in arrays
    )


def _flip_last_bit(answers):
    """Corrupt the first distance of the first answer by one ulp."""
    ids, distances = answers[0]
    bits = struct.unpack("<q", struct.pack("<d", distances[0]))[0] ^ 1
    corrupted = (struct.unpack("<d", struct.pack("<q", bits))[0],) + distances[1:]
    return [(ids, corrupted)] + list(answers[1:])


def _run(workload: str, trace: int, cwd: str = ROOT, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    decisions = load_decisions()
    assert [w["name"] for w in bench["workloads"]] == [
        name for name in WORKLOADS
        if decisions["workloads"][name].get("in_benchmark", True)
    ]
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == PER_LAYER
    moves = decisions["per_layer_moves"]
    assert set(moves) == set(PER_LAYER)
    for entry in moves.values():
        assert set(entry["moves"]) <= set(END_TO_END)
        assert set(entry["workloads"]) <= set(WORKLOADS)


@pytest.mark.parametrize("workload", ["knn-fcfw", "knn-acaw"])
def test_same_seed_reproduces_the_knn_inputs(workload):
    spec = workload_spec(workload)
    first, again, other = (knn_inputs(workload, spec, s) for s in (5, 5, 6))
    queries = range(2 * 50 + 7)
    assert fingerprint(first.stored) == fingerprint(again.stored)
    assert fingerprint([first.queries[i] for i in queries]) == fingerprint(
        [again.queries[i] for i in queries]
    )
    assert fingerprint(first.stored) != fingerprint(other.stored)
    # Every query is distinct, and none repeats a stored series.
    seen = set(fingerprint(first.stored)) | {fingerprint([first.warmup])[0]}
    for key in fingerprint([first.queries[i] for i in queries]):
        assert key not in seen
        seen.add(key)


def test_same_seed_reproduces_the_churn_inputs():
    spec = workload_spec("serve-churn")
    first, again, other = (churn_inputs(spec, s) for s in (5, 5, 6))
    assert fingerprint(first.stored) == fingerprint(again.stored)
    assert fingerprint(first.stored) != fingerprint(other.stored)
    assert fingerprint([first.added[i] for i in range(60)]) == fingerprint(
        [again.added[i] for i in range(60)]
    )
    kinds = [first.ops[i] for i in range(500)]
    assert kinds == [again.ops[i] for i in range(500)]
    assert kinds != [other.ops[i] for i in range(500)]
    assert kinds.count("query") == 400
    # Writes alternate: every add is followed by a remove before the next add.
    writes = [kind for kind in kinds if kind != "query"]
    assert writes == ["add", "remove"] * 50


def test_checker_requires_bit_identical_distances():
    answer = (("a", "b"), (0.5, 1.25))
    assert same_answer(answer, answer)
    assert not same_answer(_flip_last_bit([answer])[0], answer)
    assert not same_answer((("b", "a"), (0.5, 1.25)), answer)
    assert check_pairs(_flip_last_bit([answer, answer]), [answer, answer]).failed == 1


def test_corrupted_answer_shows_up_in_failed_fraction():
    clean = run_knn("knn-acaw", 4, 0.5, trace=False)
    assert clean.failed == 0
    assert clean.end_to_end["success_fraction"] == 1.0
    corrupted = run_knn("knn-acaw", 4, 0.5, trace=False, tamper=_flip_last_bit)
    assert corrupted.failed == 1
    assert corrupted.end_to_end["success_fraction"] == pytest.approx(
        1.0 - 1.0 / corrupted.attempted
    )


def test_tracer_restores_every_original():
    import importlib

    originals = []
    for module_name, class_name, attribute, *_ in TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
            originals.append(owner.__dict__[attribute])
        else:
            originals.append(getattr(owner, attribute))
    tracer = Tracer(SpanRecorder())
    tracer.install()
    tracer.restore()
    for (module_name, class_name, attribute, *_), original in zip(TARGETS, originals):
        owner = importlib.import_module(module_name)
        if class_name is not None:
            assert getattr(owner, class_name).__dict__[attribute] is original
        else:
            assert getattr(owner, attribute) is original


def test_traced_spans_nest_and_correlate():
    from repro.dtw.lower_bounds import kim_profile

    recorder = SpanRecorder()
    tracer = Tracer(recorder)
    tracer.install()
    try:
        from repro.engine import engine as engine_module

        values = np.linspace(0.0, 1.0, 16)
        tracer.span("bench.query", engine_module.kim_profile, values, rid="r1")
    finally:
        tracer.restore()
    spans = {span.name: span for span in recorder.spans()}
    assert set(spans) == {"bench.query", "dtw.bounds"}
    assert spans["dtw.bounds"].parent == spans["bench.query"].sid
    assert spans["dtw.bounds"].rid == "r1"
    assert engine_module.kim_profile is kim_profile


def test_scatter_siblings_link_to_the_fan_out_not_to_each_other():
    def span(sid, parent, name, thread, start, end):
        return Span(sid, parent, "q", name, thread, start, end, 0, -1)

    root = span(1, None, "client.query", 1, 0.0, 10.0)
    hop = span(2, None, "server.sharded_query", 2, 1.0, 9.0)
    slow = span(3, None, "service.query", 3, 1.5, 8.5)
    fast = span(4, None, "service.query", 4, 2.0, 5.0)  # inside `slow`
    (tree,) = request_trees([root, hop, slow, fast])
    assert [s.sid for s in tree.children[1]] == [2]
    assert sorted(s.sid for s in tree.children[2]) == [3, 4]
    assert [s.sid for s in tree.critical_path()] == [1, 2, 3]


@pytest.mark.parametrize("workload,trace", [
    ("knn-fcfw", 0), ("knn-acaw", 0), ("knn-acaw", 1),
    ("serve-churn", 0), ("serve-churn", 1),
])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    catalogue = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(catalogue)
    for name, (unit, _) in catalogue.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines[:-1])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "knn-fcfw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

"""Tests of the benchmark itself.

Run from the root of a checkout: python3 -m pytest perfbench

They use small slices of the workloads so that they finish in seconds.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

import inputs
from run import HERE, Run

ROOT = HERE.parent
EXPECTED = json.loads((HERE / "expected.json").read_text())
SMALL_DOCUMENTS = ("rank2-7", "noncrystallographic-2.6", "A3", "B3", "C3",
                   "E6-restriction-013", "E7-restriction-013")
SMALL_OBJECTS = ("rank2-7", "A3", "B3", "E6-restriction-013", "F4-restriction-012")
WORK_COUNTERS = ("search.states", "search.emitted", "groupoid.objects",
                 "verifier.lemcon_sweep.triples")


@pytest.fixture
def scratch():
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as d:
        yield Path(d)


def small_run(workload, seed, scratch):
    run = Run(ROOT, workload, seed, scratch)
    keep = SMALL_DOCUMENTS if workload == "verify" else SMALL_OBJECTS
    run.inputs = [x for x in run.inputs if x["name"] in keep]
    return run


def small_job(run, pass_index, trace):
    job = run.job(pass_index, trace)
    if run.workload == "search":
        job["ops"][0]["cap"] = 6
    return job


def outputs(result):
    assert all(op["error"] is None for op in result["ops"]), result["ops"]
    return {op["name"]: op["output"] for op in result["ops"]}


def test_presentations_are_deterministic_per_seed():
    for doc in inputs.documents():
        assert inputs.present_document(doc, 5, 2) == inputs.present_document(doc, 5, 2)
    for obj in inputs.objects():
        assert inputs.present_object(obj, 5, 2) == inputs.present_object(obj, 5, 2)


def test_seeds_and_passes_give_different_presentations():
    docs = inputs.documents()
    for a, b in (((1, 0), (2, 0)), ((1, 0), (1, 1))):
        shown_a = [inputs.present_document(d, *a)["roots"] for d in docs]
        shown_b = [inputs.present_document(d, *b)["roots"] for d in docs]
        assert sum(x != y for x, y in zip(shown_a, shown_b)) >= len(docs) - 2


def test_presentation_keeps_the_lines():
    for doc in inputs.documents():
        shown = inputs.present_document(doc, 9, 0)
        assert len(shown["roots"]) == len(doc["roots"])
        assert sorted(map(abs, sum(shown["roots"], []))) == \
            sorted(map(abs, sum(doc["roots"], [])))


def test_input_sets():
    sizes = {d["name"]: len(d["roots"]) for d in inputs.documents()}
    assert sizes["box-49"] == 49
    assert [sizes[f"{t}-restriction-{k}"] for t, k in (
        ("F4", "012"), ("E6", "013"), ("E7", "013"), ("E8", "013"), ("E8", "014"))] == \
        [13, 10, 11, 16, 17]
    assert all(d["why"] for d in inputs.documents() + inputs.objects())
    assert set(EXPECTED["verify"]) == set(sizes)
    assert set(EXPECTED["closure"]) == {o["name"] for o in inputs.objects()}


@pytest.mark.parametrize("workload", ["verify", "closure"])
def test_pinned_outputs_hold_for_other_seeds(workload, scratch):
    for seed in (1, 2):
        run = small_run(workload, seed, scratch)
        got = outputs(run.execute(small_job(run, 0, trace=False)))
        assert got == {name: EXPECTED[workload][name] for name in got}


@pytest.mark.parametrize("workload", ["search", "verify", "closure"])
def test_traced_runs_repeat_counters_and_match_untraced_outputs(workload, scratch):
    run = small_run(workload, 3, scratch)
    untraced = run.execute(small_job(run, 0, trace=False))
    first = run.execute(small_job(run, 0, trace=True))
    second = run.execute(small_job(run, 0, trace=True))
    assert outputs(first) == outputs(untraced) == outputs(second)

    def counters(result):
        return {k: v for k, v in result["metrics"].items()
                if k.endswith(".calls") or k in WORK_COUNTERS}

    assert counters(first) == counters(second)
    assert sum(counters(first).values()) > 0

"""Tests of the benchmark's own machinery: the correctness gate and the
outside-in tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import inspect
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import quditsum  # noqa: E402
from quditsum import cli, harness, protocol, qudit  # noqa: E402

from gate import check_report, digest  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, run_cli  # noqa: E402

TINY = Workload("tiny", ("honest", "modified-attack", "eve-decoy"),
                d=3, n=3, m=2, eta=4, decoys=4, trials=6)


def _report(tmp_path, scenario, name):
    path = tmp_path / f"{name}-{scenario}.json"
    code, _ = run_cli(TINY, scenario, 99, path)
    assert code == 0
    return json.loads(path.read_text())


def test_gate_passes_genuine_report(tmp_path):
    for scenario in TINY.scenarios:
        assert check_report(_report(tmp_path, scenario, "plain"), TINY.trials) == []


def test_gate_fails_flagged_rate(tmp_path):
    doc = _report(tmp_path, "honest", "plain")
    doc["aggregates"]["sum_correct_rate"]["within_4_sigma"] = False
    doc["aggregates"]["flagged"] = ["sum_correct_rate"]
    assert any("flagged" in p for p in check_report(doc, TINY.trials))


def test_gate_fails_doctored_sum_correct(tmp_path):
    doc = _report(tmp_path, "honest", "plain")
    doc["per_trial"][2]["sum_correct"] = False
    problems = check_report(doc, TINY.trials)
    assert any("sum_correct_rate" in p for p in problems)
    # the same defect carried into the aggregate breaks the exact oracle
    doc["aggregates"]["sum_correct_rate"]["value"] = 5 / 6
    assert any("exact oracle" in p for p in check_report(doc, TINY.trials))


def test_gate_fails_wrong_trial_count(tmp_path):
    doc = _report(tmp_path, "honest", "plain")
    assert check_report(doc, TINY.trials + 1)
    short = copy.deepcopy(doc)
    short["per_trial"].pop()
    assert check_report(short, TINY.trials)


def _bindings():
    """Every public layer function bound in a quditsum namespace, by identity."""
    out = {}
    for module in (quditsum, cli, harness, protocol, qudit, quditsum.adversary,
                   quditsum.verification):
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and not attr.startswith("_"):
                out[(module.__name__, attr)] = obj
    out[("QuditRegister", "__post_init__")] = qudit.QuditRegister.__dict__["__post_init__"]
    return out


def test_traced_run_same_digest_and_wrappers_restored(tmp_path):
    before = _bindings()
    plain = {s: digest(_report(tmp_path, s, "plain")) for s in TINY.scenarios}
    tracer = Tracer()
    with tracer.installed():
        assert harness.insert_decoys is not before[("quditsum.harness", "insert_decoys")]
        assert qudit.apply_iqft is not before[("quditsum.qudit", "apply_iqft")]
        traced = {s: digest(_report(tmp_path, s, "traced")) for s in TINY.scenarios}
    assert traced == plain
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    table = tracer.span_table()
    # every scenario calls insert_decoys once per trial, each through its
    # own module's binding (protocol, verification, harness)
    assert table["protocol.insert_decoys"]["calls"] == len(TINY.scenarios) * TINY.trials
    # a V2 measurement calls apply_iqft through qudit's own global
    assert 0 < table["qudit.measure_v2"]["calls"] <= table["qudit.apply_iqft"]["calls"]
    assert table["qudit.register_init"]["calls"] > 0
    assert sum(tracer.trials_by_tag) == len(TINY.scenarios) * TINY.trials
    for row in table.values():
        assert row["self_s"] <= row["total_s"] + 1e-9
    metrics = tracer.layer_metrics(trace_overhead_share=0.0)
    assert metrics["protocol.decoys_per_trial"][0] == (TINY.n - 1) * TINY.decoys
    assert 0 < metrics["verification.rounds_used_share"][0] <= 1


def test_benchmark_json_names_match(tmp_path):
    from run import END_TO_END

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # detect-sweep runs from run.py but is left out of the list (see README)
    assert [w["name"] for w in spec["workloads"]] == ["small-mix", "wide-register"]
    assert all(w["name"] in WORKLOADS for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    tracer = Tracer()
    with tracer.installed():
        _report(tmp_path, "honest", "traced")
    layers = tracer.layer_metrics(trace_overhead_share=0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in layers.items()]

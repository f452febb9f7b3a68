import json
import re
import sys
import time

import pytest

import tracer
import worker
import workloads
from qfield import walks


def _span(i, name, start, end, parent, thread, work=0):
    return [i, name, start, end, parent, 0, thread, False, work]


def test_self_time_of_nested_spans_with_pool_threads():
    spans = [
        _span(1, "cli.main", 0.0, 10.0, None, 1),
        _span(2, "_mc.run_chunked", 1.0, 7.0, 1, 1),
        _span(3, "walks.sample", 2.0, 5.0, 2, 2, work=30),   # pool thread
        _span(4, "walks.sample", 4.0, 6.0, 2, 3, work=20),   # pool thread
        _span(5, "lattice.dft", 6.5, 6.9, 2, 1),
        _span(6, "lattice.dft", 8.0, 9.0, 1, 1),
    ]
    times = tracer.self_times(spans)
    # children of run_chunked cover [2, 6] and [6.5, 6.9]
    assert times[2][0] == pytest.approx(6.0 - 4.4)
    # on its own thread only [6.5, 6.9] is covered: the rest is waiting
    assert times[2][1] == pytest.approx(6.0 - 0.4)
    assert times[1][0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert times[3][0] == pytest.approx(3.0)
    summary = tracer.summarize(spans)
    assert summary["walks.sample"]["calls"] == 2
    assert summary["walks.sample"]["self_s"] == pytest.approx(5.0)
    assert summary["walks.sample"]["work"] == 50
    assert summary["lattice.dft"]["self_s"] == pytest.approx(1.4)
    metrics = tracer.layer_metrics(spans)
    assert metrics["mc.run_chunked.wait_s"] == pytest.approx(5.6)
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["walks.sample.rows"] == 50
    assert metrics["walks.simulate_killed.steps_per_s"] == 0.0


def test_pool_thread_spans_take_the_run_chunked_parent():
    law = walks.lazy_walk(2, 2, [0.3, 0.7])
    with tracer.Tracer() as tr:
        tr.job = 7
        walks.simulate_killed(law, (0, 0), walks.KillingLaw(0.6), seed=3,
                              n_walks=4000, workers=2)
    by_name = {}
    for s in tr.spans:
        by_name.setdefault(s[1], []).append(s)
    (killed,) = by_name["walks.simulate_killed"]
    (pool_parent,) = by_name["_mc.run_chunked"]
    assert pool_parent[4] == killed[0]
    pooled = [s for s in by_name["walks.sample"] if s[6] != pool_parent[6]]
    assert pooled, "draws should run in pool threads"
    assert all(s[4] == pool_parent[0] and s[5] == 7 for s in pooled)
    metrics = tracer.layer_metrics(tr.spans)
    assert metrics["walks.simulate_killed.steps_per_s"] > 0


def _bindings() -> dict:
    """Every attribute of every qfield module and traced class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "qfield" or name.startswith("qfield.")):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for meth, fn in vars(value).items():
                        out[(name, attr, meth)] = fn
    return out


def _probe_workload(seen):
    def probe():
        now = _bindings()
        seen["wrapped"] = sorted(str(k) for k, v in now.items()
                                 if getattr(v, "__wrapped_by_tracer__", False))
        return [("cli", 0.0)]

    def build(rng, workdir):
        jobs = workloads.cli_session(rng, workdir).jobs[:3]
        return workloads.Workload(jobs + [workloads.Job("probe", probe)])
    return build


@pytest.mark.parametrize("trace", [False, True])
def test_wrappers_exist_only_during_a_traced_pass(trace, tmp_path, monkeypatch):
    import qfield.cli  # noqa: F401  (load every module the tracer patches)

    seen = {}
    monkeypatch.setitem(workloads.WORKLOADS, "probe", _probe_workload(seen))
    before = _bindings()
    result = worker.run_pass({
        "workload": "probe", "seed": 1, "mode": "pass", "trace": trace,
        "workdir": str(tmp_path), "result": str(tmp_path / "r.json"),
        "trace_file": str(tmp_path / "spans.json"),
        "t_spawn": time.monotonic()})
    assert result["failed"] == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    if trace:
        assert "('qfield.lattice', 'dft')" in seen["wrapped"]
        assert "('qfield.walks', 'dft')" in seen["wrapped"]
        assert "('qfield.walks', 'UniformLaw', 'spectrum')" in seen["wrapped"]
        doc = json.loads((tmp_path / "spans.json").read_text())
        assert doc["absent"] == []
        assert any(s[1] == "cli.eigen" for s in doc["spans"])
    else:
        assert seen["wrapped"] == []
        assert not (tmp_path / "spans.json").exists()


def test_metric_names_match_the_benchmark_definition():
    import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert list(run.END_TO_END) == [m["name"] for m in spec["end_to_end"]]
    assert all(run.END_TO_END[m["name"]] == m["unit"] for m in spec["end_to_end"])
    assert list(workloads.WORKLOADS) == [w["name"] for w in spec["workloads"]]
    produced = (list(tracer.layer_metrics([]))
                + list(workloads.Workload([]).counters) + ["trace.overhead_s"])
    assert sorted(produced) == sorted(m["name"] for m in spec["per_layer"])
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)

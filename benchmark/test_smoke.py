"""Smoke test of the benchmark harness on the few-second "smoke" job list.

    python3 -m pytest benchmark/test_smoke.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

run.import_library()


def bench(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", "smoke", "--seed", "3", "--seconds", "0", *argv])
    lines = out.getvalue().splitlines()
    return rc, lines, json.loads(lines[-1])


def declared(kind: str) -> set[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[kind]}


def test_end_to_end_pass():
    rc, lines, result = bench("--trace", "0")
    assert rc == 0
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (5, 0)
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fail_ratio 0.0 1 (0 of 5 jobs)" in lines


def test_traced_pass_reports_every_layer_metric():
    rc, _, result = bench("--trace", "1")
    assert rc == 0 and result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == declared("per_layer")
    assert metrics["weyl.builds"] == 5
    assert metrics["tableaux.count"] == metrics["fan.vectors"] == 80
    assert metrics["dcp.nodes"] > 0 and metrics["lspath.lattice_points"] > 0
    assert metrics["io.bytes_out"] == 9400
    assert metrics["trace.overhead"] > 0


def test_tampered_hash_counts_as_failure(tmp_path, monkeypatch):
    expected = json.loads(run.EXPECTED.read_text())
    expected["dcp a2_tau312_chain"]["sha256"] = "0" * 64
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED", tampered)

    jobs = run.load_jobs("smoke")
    result = run.run_pass(jobs, list(range(len(jobs))), expected)
    assert result.failed_jobs == 1
    assert len(result.failures) == 1
    assert result.failures[0].startswith("dcp a2_tau312_chain: sha256 is ")

    rc, _, summary = bench("--trace", "0")
    assert rc == 1
    assert summary["correct"] is False
    assert summary["failed"] == 1


def test_self_times_of_nested_spans():
    # root [0, 100) holds [10, 40) and [50, 90); [50, 90) holds [60, 70)
    spans = [(0, 100, -1), (10, 40, 0), (50, 90, 0), (60, 70, 2)]
    assert self_times(spans) == [30, 30, 30, 10]
    assert self_times(iter(spans)) == [30, 30, 30, 10]


def test_tracer_restores_the_library():
    import lsfan.cli
    import lsfan.weyl

    def bindings():
        return (lsfan.cli.theta_d, lsfan.fan.theta_d,
                lsfan.weyl.WeylGroup.__dict__["mult"])

    before = bindings()
    with Tracer():
        during = bindings()
    assert all(a is not b for a, b in zip(before, during))
    assert bindings() == before

"""Smoke test of the benchmark itself.

Every workload runs clean at a tiny size, every checker rejects a
deliberately corrupted result, tracing restores the library, and the
command's last line matches BENCHMARK.json.

    python3 -m pytest -q bench/test_smoke.py
"""

import collections
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import weylalg as wl  # noqa: E402

import workloads  # noqa: E402
from hostspeed import QUIET_REF_S, HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402


def tiny_outputs(name):
    workload = workloads.WORKLOADS[name](seed=7, tiny=True)
    return workload, [(item, workload.run(item)) for item in workload.items]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_is_correct(name):
    workload, outputs = tiny_outputs(name)
    for item, out in outputs:
        assert workload.check(item, out) == []


def test_products_checker_rejects_corruption():
    workload, outputs = tiny_outputs("products")
    item, (parsed, left, right, same) = next(o for o in outputs if not o[1][1].is_zero())
    wrong = left + wl.X
    assert workload.check(item, (parsed, wrong, wrong, True))
    assert workload.check(item, (parsed, left, wrong, False))
    a, b, c = parsed
    assert workload.check(item, ((a + wl.Y, b, c), left, right, same))


def test_tame_checker_rejects_corruption():
    workload, outputs = tiny_outputs("tame")
    word, (p, q, cert) = next(o for o in outputs if o[1][2] is not None)
    assert workload.check(word, (p, q * 2, cert))
    detour = cert + wl.AutoWord((wl.Translate(1, 0),))
    assert workload.check(word, (p, q, detour))
    assert workload.check(word, (p, q, None))


def test_centralizer_checker_rejects_corruption():
    workload, outputs = tiny_outputs("centralizer")
    item, result = next(o for o in outputs if o[1].infeasible_divisors)
    h = wl.RatFunc(wl.Poly.gen())
    beta = result.beta * (h + 1)
    assert workload.check(item, dataclasses.replace(result, beta=beta))
    assert workload.check(item, dataclasses.replace(result, infeasible_divisors=()))
    v = wl.HomogeneousElement(result.v.degree, result.v.coeff * (h + 1))
    assert workload.check(item, dataclasses.replace(result, v=v))


def test_sweep_checker_rejects_corruption():
    workload, outputs = tiny_outputs("sweep")
    for item, report in outputs:
        for i, cell in enumerate(report.cells):
            if cell.status == "empty" and cell.deg_a is not None:
                bad = dataclasses.replace(cell, status="solutions")
            elif cell.witness and "a" in cell.witness:
                a = wl.Poly.from_json(cell.witness["a"]) + wl.Poly.gen()
                bad = dataclasses.replace(cell, witness={**cell.witness, "a": a.to_json()})
                flipped = dataclasses.replace(cell, status="empty", witness=None)
                cells = report.cells[:i] + (flipped,) + report.cells[i + 1:]
                assert workload.check(item, dataclasses.replace(report, cells=cells)), (item, cell)
            elif cell.witness:
                bad = dataclasses.replace(cell, witness={**cell.witness, "alpha": "2/1"})
            else:
                continue
            cells = report.cells[:i] + (bad,) + report.cells[i + 1:]
            assert workload.check(item, dataclasses.replace(report, cells=cells)), (item, cell)
        assert workload.check(item, dataclasses.replace(report, cells=report.cells[1:]))


def test_large_image_seeds_match_their_definition():
    found = [
        s for s in range(1, 3001)
        if workloads.image_degree(wl.random_tame(s, **workloads.WORD_ARGS)) >= workloads.LARGE_MIN_DEGREE
    ]
    assert [s for s in found if s != 141] == list(workloads.LARGE_IMAGE_SEEDS)


def test_light_quotas_share_out_the_generators_light_words():
    counts = collections.Counter(
        workloads.image_degree(wl.random_tame(s, **workloads.WORD_ARGS)) for s in range(1, 3001)
    )
    light = {d: n for d, n in counts.items() if d < workloads.LARGE_MIN_DEGREE}
    total, quota_total = sum(light.values()), sum(workloads.LIGHT_QUOTAS.values())
    assert set(workloads.LIGHT_QUOTAS) == set(light)
    for degree, n in light.items():
        assert abs(workloads.LIGHT_QUOTAS[degree] - quota_total * n / total) < 1


def test_products_corpus_has_every_shape_equally_often():
    items = workloads.Products(seed=4).items
    assert len(items) == 64 * workloads.TRIPLES_PER_SHAPE
    # a quarter of the operands draw no component; a few more draw only zeros
    zeros = sum(1 for _, triple in items for e in triple if e.is_zero())
    assert len(items) * 3 // 4 <= zeros < len(items) * 3 // 4 + 20


def test_host_speed_scales_by_the_reference_slowdown():
    host = HostSpeed()
    host.at = [0.1 * i for i in range(40)]
    host.ref = [QUIET_REF_S] * 20 + [2 * QUIET_REF_S] * 20
    assert host.scale(0.5, 0.01) == pytest.approx(0.01)
    assert host.scale(3.5, 0.01) == pytest.approx(0.005)


def test_tracer_counts_layers_and_restores_the_library():
    original = wl.Poly.__mul__, wl.apply_auto, wl.tame.apply_auto
    tracer = Tracer()
    tracer.install()
    try:
        workloads.Tame.run(wl.random_tame(5, **workloads.WORD_ARGS))
        wl.impossibility_sweep("case-v", {"p": 2, "q": 2, "max_coeff_deg": 1})
    finally:
        tracer.uninstall()
    assert (wl.Poly.__mul__, wl.apply_auto, wl.tame.apply_auto) == original
    layers = tracer.layers()
    assert layers["tame.apply_auto"]["calls"] >= 2
    assert layers["certify.sweep"]["cells"] > 0
    for row in layers.values():
        assert 0 <= row["self_s"] <= row["total_s"] + 1e-9


def run_bench(cwd, *args):
    cmd = [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "0.2", "--tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [
    ("products", 0), ("products", 1), ("tame", 1), ("centralizer", 1), ("sweep", 1),
])
def test_command_prints_the_declared_metrics(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "products", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_traced_counts_do_not_depend_on_run_length():
    counts = []
    for seconds in ("0.2", "1.5"):
        cmd = [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "3",
               "--seconds", seconds, "--tiny", "--trace", "1"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "ratio")
                       and k != "trace.overhead"})
    assert counts[0] == counts[1]

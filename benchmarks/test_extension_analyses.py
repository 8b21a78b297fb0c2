"""Benches for the extension analyses built on the paper's observations.

* **Concurrency / idle resources** — quantifies Sec. 4.3.3's claim that
  concurrent per-modality execution leaves most assigned resources idle
  ("nearly 75% of the resources ... idle for more [than] 77% of the
  encoder execution" on MuJoCo Push).
* **Energy** — per-stage and per-modality energy (the Timeloop-style
  latency+energy output the paper advertises), including the
  encoder-throttling saving of Sec. 4.2.3.
* **Serving** — open/closed-loop batching curves generalizing Sec. 5.1.
"""

import pytest

from benchmarks.conftest import print_table
from repro.core.analysis.concurrency import concurrency_study
from repro.core.analysis.serving import best_batch_for_slo, serving_sweep
from repro.data.synthetic import random_batch
from repro.hw.energy import modality_energy, report_energy, stage_energy
from repro.profiling.profiler import MMBenchProfiler
from repro.workloads.registry import get_workload


def test_concurrency_idle_resources(benchmark):
    study = benchmark.pedantic(lambda: concurrency_study(batch_size=64),
                               rounds=1, iterations=1)

    rows = []
    for workload, c in study.items():
        rows.append([
            workload, c.straggler, f"{c.straggler_ratio:.2f}x",
            f"{c.idle_stream_share:.0%}", f"{c.idle_window_fraction:.0%}",
            f"{c.idle_resource_fraction:.0%}", f"{c.concurrency_speedup:.2f}x",
        ])
    print_table("Concurrent-modality idle resources (Sec. 4.3.3)",
                ["workload", "straggler", "straggler ratio", "idle streams",
                 "idle window", "idle area", "concurrency speedup"], rows)

    push = study["mujoco_push"]
    # The paper's geometry: 3 of 4 streams (75% of resources) idle for a
    # large fraction of the encoder window.
    assert push.idle_stream_share == pytest.approx(0.75)
    assert push.idle_window_fraction > 0.3
    assert push.straggler == "image"
    # Concurrency still pays on every workload (speedup > 1).
    assert all(c.concurrency_speedup > 1.0 for c in study.values())


def test_energy_breakdown(benchmark):
    info = get_workload("avmnist")
    model = info.build(seed=0)
    batch = random_batch(info.shapes, 32, seed=0)
    profiler = MMBenchProfiler("2080ti")
    trace = profiler.capture(model, batch)

    def run():
        out = {}
        for device in ("2080ti", "orin", "nano"):
            report = profiler.price(model, trace, 32, device=device)
            out[device] = (report_energy(report), stage_energy(report),
                           modality_energy(report), report.total_time)
        return out

    out = benchmark(run)
    rows = []
    for device, (energy, stages, modalities, total_time) in out.items():
        rows.append([
            device, f"{energy.total * 1e3:.3f} mJ", f"{total_time * 1e3:.2f} ms",
            f"{stages['encoder'] / sum(stages.values()):.0%}",
            f"{modalities['audio'] / (modalities['image'] + modalities['audio']):.0%}",
        ])
    print_table("Energy per batch-32 inference",
                ["device", "energy", "latency", "encoder share",
                 "audio encoder share"], rows)

    # Throttling the audio encoder (Sec. 4.2.3) saves its modality energy.
    for device, (_, _, modalities, _) in out.items():
        assert modalities["audio"] > 0
        assert modalities["image"] > modalities["audio"]
    # The Nano sips power but takes far longer; the server wins on EDP.
    server_energy = out["2080ti"][0].total
    nano_energy = out["nano"][0].total
    server_time, nano_time = out["2080ti"][3], out["nano"][3]
    assert server_energy * server_time < nano_energy * nano_time


def test_serving_sweep(benchmark):
    results = benchmark.pedantic(
        lambda: serving_sweep(batch_sizes=(1, 8, 40, 400), n_tasks=5_000),
        rounds=1, iterations=1,
    )

    rows = [[b, f"{r.throughput:,.0f} tasks/s", f"{r.mean_latency * 1e3:.2f} ms",
             f"{r.p99_latency * 1e3:.2f} ms", f"{r.total_utilization:.0%}"]
            for b, r in sorted(results.items())]
    print_table("Serving sweep: AV-MNIST on the 2080Ti model (closed batch)",
                ["batch", "throughput", "mean latency", "p99 latency",
                 "utilization"], rows)

    # Larger batches raise throughput, sub-linearly (the Fig. 12 economics).
    assert results[400].throughput > results[40].throughput > results[1].throughput
    assert results[400].throughput < 400 * results[1].throughput
    # SLO selection is well-defined at both extremes.
    assert best_batch_for_slo(results, p99_slo=1e9) == 400

"""The four benchmark workloads.

Each workload is a set of operations — one mmbench command each — run
in *rounds* by a closed-loop single client. ``setup()`` builds the
inputs from the seed and warms every path; ``ops()`` lists a
round's operations as ``(key, call)`` pairs; ``check(key, result)``
turns a result into reference-checked output. Only ``call()`` is timed.

* ``characterize-cold`` / ``characterize-warm``: the paper's
  characterization — per workload of the nine, a three-device report,
  a traced training-step analysis and an execution-graph ingest plus
  pricing — against a fresh empty store per round (cold: capture,
  store writes, ingest and the lint hook dominate) or against a store
  filled in set-up and reopened per round (warm: every lookup is a disk
  hit, as a new process would see; model rebuilds and pricing dominate).
* ``serve-mixed``: the classic per-request event loop with nine tenants,
  faults and retries. ``serve-fleet``: the epoch-vectorized fleet loop
  with autoscaling and cross-group hops. One bypasses the other's
  engine, so a change to either shows on one workload only.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

import repro.core.analysis.training as training_mod
import repro.core.report as report_mod
import repro.serving.faults as faults_mod
import repro.serving.fleet as fleet_mod
import repro.serving.scenarios as scenarios_mod
import repro.serving.simulator as simulator_mod
from repro.export.graph import stored_to_graph, write_graph
from repro.profiling.profiler import MMBenchProfiler
from repro.serving import AdaptiveSLOPolicy, RetryPolicy, clear_cost_cache, costmodel
from repro.trace.store import TraceStore, set_default_store
from repro.workloads.registry import list_workloads

from perfbench import outputs

MODELS = tuple(list_workloads())
#: The one seed whose inputs no other seed uses: held-out arrival streams
#: for the serve workloads, held-out batch sizes for characterization.
HELD_OUT_SEED = 99

# -- characterization -------------------------------------------------------------

REPORT_DEVICES = ("2080ti", "orin", "nano")
# (report, training, graph) batch sizes; the exported graph is the
# report's inference trace. Characterization outputs do not depend on the
# seed otherwise, so the held-out seed gets batch sizes of its own.
BATCHES = (32, 8, 32)
HELD_OUT_BATCHES = (16, 4, 16)
OPTIMIZER = "adam"
INGEST_DEVICE = "2080ti"
BACKEND = "meta"


class Characterize:
    """Report + training analysis + ingest for all nine models, per round."""

    round_unit = f"round of {3 * len(MODELS)} commands"

    def __init__(self, name: str, warm: bool, seed: int, work: Path):
        self.name = name
        self.warm = warm
        self.seed = seed
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.held_out = seed == HELD_OUT_SEED
        self.report_batch, self.train_batch, self.graph_batch = (
            HELD_OUT_BATCHES if self.held_out else BATCHES)
        self.refs = outputs.References(self.reference_name(), self.config())
        self.profiler = MMBenchProfiler(INGEST_DEVICE)
        self.store: TraceStore | None = None
        self.graphs: dict[str, Path] = {}
        self._round = 0

    def reference_name(self) -> str:
        return "characterize-heldout" if self.held_out else "characterize"

    def config(self) -> dict:
        return {"models": list(MODELS), "devices": list(REPORT_DEVICES),
                "report_batch": self.report_batch, "train_batch": self.train_batch,
                "optimizer": OPTIMIZER, "graph_batch": self.graph_batch,
                "ingest_device": INGEST_DEVICE, "backend": BACKEND}

    def info(self) -> str:
        kind = ("store filled in set-up, reopened per round" if self.warm
                else "fresh empty store per round")
        return (f"{len(MODELS)} models x (report b{self.report_batch}, training "
                f"b{self.train_batch}, ingest b{self.graph_batch}); {kind}")

    def setup(self) -> list[str]:
        """Export the graphs, fill the store (warm) and run one warm-up round."""
        set_default_store(TraceStore())
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        scratch = TraceStore()
        for model in MODELS:
            stored = scratch.get_or_capture(model, batch_size=self.graph_batch,
                                            seed=self.seed, backend=BACKEND)
            self.graphs[model] = write_graph(
                stored_to_graph(stored, batch_size=self.graph_batch),
                self.work / "graphs" / f"{model}.json")
        problems: list[str] = []
        if self.warm:  # the fill is a cold round on the store kept for the run
            self.begin_round()
            for key, call in self.ops():
                problems += self.check(key, call())
        self.begin_round()
        for key, call in self.ops():
            problems += self.check(key, call())
        return problems + self.end_round()

    def ops(self) -> list[tuple[str, object]]:
        ops = []
        for model in MODELS:
            ops.append((f"report:{model}", lambda m=model: report_mod.characterization_report(
                m, batch_size=self.report_batch, devices=REPORT_DEVICES, seed=self.seed,
                backend=BACKEND)))
            ops.append((f"training:{model}", lambda m=model: training_mod.training_step_analysis(
                [m], device=REPORT_DEVICES[0], batch_size=self.train_batch, optimizer=OPTIMIZER,
                seed=self.seed, backend=BACKEND, store=self.store)[m]))
            ops.append((f"ingest:{model}", lambda m=model: self._ingest(m)))
        order = self.rng.permutation(len(ops))
        return [ops[i] for i in order]

    def _ingest(self, model: str):
        stored = self.store.get_or_ingest(self.graphs[model])
        return stored, self.profiler.profile_stored(stored, self.graph_batch)

    @staticmethod
    def _output(key: str, result) -> tuple[dict, list[str]]:
        kind = key.split(":", 1)[0]
        if kind == "report":
            return outputs.report_output(result)
        if kind == "training":
            return outputs.training_output(result)
        return outputs.ingest_output(*result)

    def check(self, key: str, result) -> list[str]:
        output, problems = self._output(key, result)
        return [f"{key}: {p}" for p in problems] + self.refs.check(key, output)

    def _store_dir(self) -> Path:
        if self.warm:
            return self.work / "store"
        self._round += 1
        return self.work / "cold" / f"round{self._round}"

    def begin_round(self) -> None:
        """Open the round's store, as a new process would (untimed)."""
        self.store = TraceStore(self._store_dir())
        set_default_store(self.store)

    def end_round(self) -> list[str]:
        """A warm round that captured, or a cold one that hit disk, is wrong."""
        stats = self.store.stats
        problems = []
        if self.warm and (stats["misses"] or stats["captures"]):
            problems.append(f"warm round went cold: {self.store.stats_line()}")
        if not self.warm and (stats["disk_hits"] or not stats["captures"]):
            problems.append(f"cold round hit a warm store: {self.store.stats_line()}")
        if not self.warm:
            shutil.rmtree(self.store.cache_dir, ignore_errors=True)
        return problems

    def record(self) -> dict:
        """Outputs of one round, keyed like ``check``'s references."""
        self.begin_round()
        recorded = {key: self._output(key, call())[0] for key, call in self.ops()}
        self.end_round()
        return recorded


# -- serving ------------------------------------------------------------------------

SLO = 50e-3
#: Recorded arrival streams. Ordinary seeds replay streams drawn from
#: ``TUNING_STREAMS``; only ``HELD_OUT_SEED`` replays ``HELD_OUT_STREAMS``,
#: so a claim tuned on ordinary seeds can be re-checked on traffic it was
#: never run on.
TUNING_STREAMS = tuple(range(24))
HELD_OUT_STREAMS = tuple(range(24, 32))
#: Streams an ordinary seed replays per round. Streams differ in cost, so
#: the seed's draw moves the metrics: with 8 of the 24, it made half the
#: run-to-run spread of the p95; with 16, seeds still differ in a third
#: of their streams while their mixes differ half as much.
STREAMS_PER_ROUND = 16

# Requests per serve command: a round number at which one command takes
# ~10 ms on a 2-vCPU Xeon VM, so that a 20 s run holds well over the 200
# commands a p95 with ten samples beyond it needs (~1,500 on that VM).
MIXED_DEVICES = ("2080ti", "2080ti", "orin", "nano")
MIXED_REQUESTS = 1_500
MIXED_RATE = 100_000.0
MIXED_SCENARIO = "heavy-head"
MIXED_CHAOS = "single-failure"

FLEET_GROUPS = "2080ti:48:64,orin:24:32,nano:8:16"
# Interval and cooldown are scaled to the ~30 ms simulated makespan of one
# command, so the autoscaler acts 3 times per command.
FLEET_AUTOSCALE = "queue:64:0.001:0.005"
FLEET_REQUESTS = 10_000
FLEET_RATE = 2_000_000.0
FLEET_SCENARIO = "diurnal"
FLEET_HOP_BYTES = 1e6


def _adaptive(_workload: str) -> AdaptiveSLOPolicy:
    return AdaptiveSLOPolicy(SLO)


class Serve:
    """One serve command per arrival stream of the seed, each round."""

    def __init__(self, name: str, fleet: bool, seed: int):
        self.name = name
        self.fleet = fleet
        rng = np.random.default_rng(seed)
        if seed == HELD_OUT_SEED:
            self.streams = list(HELD_OUT_STREAMS)
        else:
            self.streams = sorted(int(s) for s in rng.choice(
                TUNING_STREAMS, STREAMS_PER_ROUND, replace=False))
        self.rng = rng
        self.round_unit = f"round of {len(self.streams)} serve commands"
        self.refs = outputs.References(name, self.config())
        self.groups = fleet_mod.parse_groups(FLEET_GROUPS)
        self.autoscale = fleet_mod.parse_autoscale(FLEET_AUTOSCALE)
        self.n_requests = FLEET_REQUESTS if fleet else MIXED_REQUESTS
        self._pricings = 0

    def config(self) -> dict:
        if self.fleet:
            return {"groups": FLEET_GROUPS, "autoscale": FLEET_AUTOSCALE,
                    "requests": FLEET_REQUESTS, "rate": FLEET_RATE,
                    "scenario": FLEET_SCENARIO, "hop_bytes": FLEET_HOP_BYTES,
                    "slo": SLO, "models": list(MODELS)}
        return {"devices": list(MIXED_DEVICES), "requests": MIXED_REQUESTS,
                "rate": MIXED_RATE, "scenario": MIXED_SCENARIO, "chaos": MIXED_CHAOS,
                "slo": SLO, "models": list(MODELS)}

    def info(self) -> str:
        rate = FLEET_RATE if self.fleet else MIXED_RATE
        where = FLEET_GROUPS if self.fleet else ",".join(MIXED_DEVICES)
        return (f"n_requests {self.n_requests:,} per command at {rate:,.0f} req/s "
                f"(simulated) on {where}; streams {self.streams}")

    def setup(self) -> list[str]:
        """Fill every tenant's anchor curves, then run one warm-up command."""
        clear_cost_cache()
        set_default_store(TraceStore())
        tenants = scenarios_mod.make_tenants(MODELS, policy_factory=_adaptive, slo=SLO)
        devices = {g.device for g in self.groups} if self.fleet else set(MIXED_DEVICES)
        for spec in tenants:
            for device in sorted(devices):
                spec.cost.latency(device, 1)
        key, call = self.ops()[0]
        problems = self.check(key, call())
        self._pricings = costmodel.PROFILE_STATS["pricings"]
        return problems

    def ops(self) -> list[tuple[str, object]]:
        order = self.rng.permutation(self.streams)
        return [(f"stream:{int(s)}", lambda s=int(s): self._serve(s)) for s in order]

    def _serve(self, stream: int):
        n = self.n_requests
        tenants = scenarios_mod.make_tenants(MODELS, policy_factory=_adaptive, slo=SLO)
        if self.fleet:
            return fleet_mod.simulate_fleet(
                tenants, self.groups, n_requests=n, arrival_rate=FLEET_RATE,
                scenario=FLEET_SCENARIO, autoscale=self.autoscale,
                hop_bytes=FLEET_HOP_BYTES, seed=stream)
        plan = faults_mod.chaos_plan(MIXED_CHAOS, MIXED_DEVICES, n / MIXED_RATE, seed=stream)
        return simulator_mod.simulate_mixed(
            tenants, devices=MIXED_DEVICES, n_requests=n, arrival_rate=MIXED_RATE,
            scenario=MIXED_SCENARIO, faults=plan, retry=RetryPolicy(), seed=stream)

    def _output(self, result) -> tuple[dict, list[str]]:
        if self.fleet:
            return outputs.fleet_output(result, self.n_requests)
        return outputs.mixed_output(result, self.n_requests)

    def check(self, key: str, result) -> list[str]:
        output, problems = self._output(result)
        return [f"{key}: {p}" for p in problems] + self.refs.check(key, output)

    def begin_round(self) -> None:
        pass

    def end_round(self) -> list[str]:
        """Anchor curves are filled in set-up; a timed fill is a cache bug."""
        fills = costmodel.PROFILE_STATS["pricings"] - self._pricings
        self._pricings = costmodel.PROFILE_STATS["pricings"]
        return [f"{fills} anchor pricings in the timed phase"] if fills else []

    def record(self) -> dict:
        recorded = {}
        for stream in TUNING_STREAMS + HELD_OUT_STREAMS:
            output, problems = self._output(self._serve(stream))
            if problems:
                raise RuntimeError(f"stream {stream}: {problems}")
            recorded[f"stream:{stream}"] = output
        return recorded


def make(name: str, seed: int, work: Path):
    if name == "characterize-cold":
        return Characterize(name, warm=False, seed=seed, work=work)
    if name == "characterize-warm":
        return Characterize(name, warm=True, seed=seed, work=work)
    if name == "serve-mixed":
        return Serve(name, fleet=False, seed=seed)
    if name == "serve-fleet":
        return Serve(name, fleet=True, seed=seed)
    raise KeyError(name)

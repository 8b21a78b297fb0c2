"""Seeded fuzzing of the program's untrusted inputs.

Four kinds of input reach the program from outside: the ``--groups``,
``--autoscale`` and ``--devices`` specs, fault-plan JSON,
execution-graph JSON and the trace store's ``.mmt`` files. Each is
mutated here from valid seeds and fed to its parser (a ``.mmt`` file to
every store read and to ``mmbench store ls|lint``); the only exception
allowed to escape is the module's own structured error. Everything is
derandomized (fixed seeds, fixed counts), so a failure names a
reproducible case:

    python -m pytest tests/property/test_untrusted_inputs_fuzz.py

A longer campaign reuses the mutators and seeds here with more cases and
other ``random.Random`` seeds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import random
from pathlib import Path

import pytest

from repro.core.cli import _parse_devices, main
from repro.hw.device import get_device
from repro.hw.engine import ExecutionEngine
from repro.lint import LintReport, lint_fault_plan, lint_graph, lint_trace
from repro.serving import FaultPlan, parse_autoscale, parse_groups, validate_fault_plan
from repro.serving.faults import FaultPlanError
from repro.serving.fleet import FleetConfigError
from repro.trace.ingest import IngestError, ingest_graph
from repro.trace.store import TraceKey, TraceStore
from tests.trace.mmt_files import join, reseal, split

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "execution_graphs"

#: JSON values a mutation may put anywhere: every JSON type, plus the
#: numbers that break naive float handling (NaN, infinities, an int too
#: large for a float64) and strings that look like the real vocabulary.
VALUES = (None, True, False, 0, 1, -1, 3, 0.5, -0.0, 1e308, math.nan,
          math.inf, -math.inf, 10**400, "", "x", "nano", "2080ti", "down",
          "float32", "relu", [], [1], [[2, 3]], ["float32"], {}, {"id": 1})


def _mutate_text(rng: random.Random, text: str) -> str:
    """One to four character edits drawn from the specs' separators,
    number syntax (``nan``/``inf`` letters, exponents, underscores) and a
    non-ASCII digit that ``int()`` accepts."""
    alphabet = ":,.-+_eE0123456789 naifxq٣"
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(3)
        pos = rng.randrange(len(chars) + 1)
        if op == 0 or not chars:
            chars.insert(pos, rng.choice(alphabet))
        elif op == 1:
            del chars[min(pos, len(chars) - 1)]
        else:
            chars[min(pos, len(chars) - 1)] = rng.choice(alphabet)
    return "".join(chars)


def _containers(node, out):
    """Every dict and list inside ``node`` (``node`` included)."""
    if isinstance(node, (dict, list)):
        out.append(node)
        for child in (node.values() if isinstance(node, dict) else node):
            _containers(child, out)
    return out


def _mutate_json(rng: random.Random, payload, keys: tuple[str, ...]):
    """One to three structural edits: replace, delete or add an entry."""
    payload = copy.deepcopy(payload)
    for _ in range(rng.randint(1, 3)):
        target = rng.choice(_containers(payload, []))
        if isinstance(target, dict):
            key = rng.choice(list(target) + list(keys))
            if key in target and rng.random() < 0.2:
                del target[key]
            else:
                target[key] = copy.deepcopy(rng.choice(VALUES))
        elif target and rng.random() < 0.7:
            pos = rng.randrange(len(target))
            target[pos] = copy.deepcopy(rng.choice(VALUES))
        else:
            target.append(copy.deepcopy(rng.choice(VALUES)))
    # The mutated payload must still be JSON, as a file would be.
    return json.loads(json.dumps(payload))


SPEC_SEEDS = (
    (parse_groups, ("2080ti:64,orin:32,nano:16", "2080ti:1:6", "nano:2")),
    (parse_autoscale, ("queue:64", "p99:0.1:0.05:0.25", "queue:16:0.02:0.04")),
    (_parse_devices, ("2080ti,orin,nano", "2080ti", "nano,orin")),
)


@pytest.mark.parametrize("parse, seeds", SPEC_SEEDS,
                         ids=["groups", "autoscale", "devices"])
def test_spec_parsers_raise_only_their_own_errors(parse, seeds):
    rng = random.Random(20)
    for _ in range(2000):
        spec = _mutate_text(rng, rng.choice(seeds))
        try:
            parse(spec)
        except FleetConfigError:
            pass
        except (KeyError, ValueError):
            # The CLI's devices parser names an unknown device with the
            # device registry's KeyError; both are its own errors.
            assert parse is _parse_devices, spec


PLAN_SEEDS = (
    {"events": [{"kind": "down", "device": "nano", "time": 0.05},
                {"kind": "recover", "device": "nano", "time": 0.3}]},
    {"events": [{"kind": "throttle", "device": "orin", "time": 0.1,
                 "until": 0.5, "factor": 2.0},
                {"kind": "stall", "device": "2080ti#1", "time": 0.2,
                 "duration": 0.01}]},
)
PLAN_KEYS = ("events", "kind", "device", "time", "until", "factor", "duration")


def test_fault_plans_raise_only_fault_plan_errors():
    rng = random.Random(21)
    devices = ("2080ti", "orin", "nano")
    for _ in range(4000):
        payload = _mutate_json(rng, rng.choice(PLAN_SEEDS), PLAN_KEYS)
        try:
            plan = FaultPlan.from_json(payload)
            validate_fault_plan(plan, devices)
        except FaultPlanError:
            continue
        assert isinstance(lint_fault_plan(plan, devices=devices), LintReport)


GRAPH_KEYS = ("nodes", "model", "batch_size", "name", "id", "parents",
              "input_shapes", "output_shapes", "input_dtypes",
              "output_dtypes", "flops", "bytes_written", "threads", "host",
              "kind", "bytes", "stage", "modality", "pass", "category",
              "attrs", "modalities", "parameters")


def test_graphs_raise_only_ingest_errors_and_lint_to_diagnostics():
    rng = random.Random(22)
    seeds = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
    assert len(seeds) == 6
    # Explicit bytes on every node too, so the dtype-vs-bytes rule (MMB110)
    # reads the mutated shapes and dtypes.
    seeds += [{**graph, "nodes": [{**node, "bytes_written": 1e9}
                                  for node in graph["nodes"]]}
              for graph in seeds]
    for _ in range(4000):
        payload = _mutate_json(rng, rng.choice(seeds), GRAPH_KEYS)
        assert isinstance(lint_graph(payload), LintReport)
        try:
            ingested = ingest_graph(payload)
        except IngestError:
            continue
        assert isinstance(lint_trace(ingested), LintReport)


MMT_KEYS = ("tables", "ids", "strings", "n", "host_n", "meta", "host_meta",
            "key", "extra", "modalities", "model_name", "parameters",
            "parameter_bytes", "input_bytes", "m", "k", "stride")


def _mutate_mmt(rng: random.Random, blob: bytes) -> tuple[bytes, bool]:
    """A mutated ``.mmt`` file and whether its crc was recomputed.

    Sealed (crafted) edits reach the checks behind the crc: header-field
    edits (``_mutate_json``, mostly on the string tables, whose ids index
    the sidecar, and on the meta table, which the meta codes index) and
    one to four byte edits in the data section. Unsealed edits are bit
    rot: one to four raw byte edits or a truncation.
    """
    op = rng.randrange(5)
    if op < 2:
        header, data = split(blob)
        part = rng.choice(("tables", "meta", None))
        if part is None:
            header = _mutate_json(rng, header, MMT_KEYS)
        else:
            header[part] = _mutate_json(rng, header[part], MMT_KEYS)
        return join(header, data), True
    if op == 3:
        return blob[:rng.randrange(len(blob))], False
    out = bytearray(blob)
    data_start = len(blob) - len(split(blob)[1])
    for _ in range(rng.randint(1, 4)):
        if op == 2:
            pos = rng.randrange(data_start, len(out))
        else:
            # Half the edits land before the column blocks, the rest anywhere.
            pos = rng.randrange(data_start if rng.random() < 0.5 else len(out))
        out[pos] = rng.randrange(256)
    return (reseal(out), True) if op == 2 else (bytes(out), False)


def _price(stored) -> float:
    return ExecutionEngine(get_device("2080ti")).run(
        stored.trace, model_bytes=stored.parameter_bytes,
        input_bytes=stored.input_bytes).total_time


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def test_trace_store_files_fail_only_as_corrupt_entries(tmp_path):
    """A mutated ``.mmt`` entry is read by every store path and the store
    CLI; it either loads or is a corrupt entry, never a raw exception. An
    entry with unsealed edits (bit rot) that loads prices bit-identically
    to its seed."""
    seed_dir = tmp_path / "seed"
    store = TraceStore(seed_dir)
    store.get_or_capture("avmnist", batch_size=2, backend="meta")
    store.get_or_ingest(FIXTURES / "cnn_forward.json")
    seeds = [p.read_bytes() for p in sorted(seed_dir.glob("*.mmt"))]
    assert len(seeds) == 2
    prices = [_price(store.peek(p)) for p in sorted(seed_dir.glob("*.mmt"))]
    sidecar = (seed_dir / TraceStore.INTERNING_SIDECAR).read_bytes()

    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / TraceStore.INTERNING_SIDECAR).write_bytes(sidecar)
    rng = random.Random(23)
    outcomes = {(sealed, loaded): 0 for sealed in (True, False)
                for loaded in (True, False)}
    for _ in range(150):
        which = rng.randrange(len(seeds))
        seed = seeds[which]
        key = TraceKey(**split(seed)[0]["key"])
        path = cache / f"{key.digest()}.mmt"
        blob, sealed = _mutate_mmt(rng, seed)
        for stale in cache.glob("*.mmt*"):
            stale.unlink()

        path.write_bytes(blob)
        [info] = TraceStore(cache).entries()
        assert info["status"] in ("ok", "corrupt")
        assert _quiet_main(["store", "ls", "--cache-dir", str(cache)]) == 0
        assert _quiet_main(["store", "lint", "--cache-dir", str(cache)]) in (0, 1)

        path.write_bytes(blob)
        try:
            TraceStore(cache).load_digest(key.digest()[:12])
        except KeyError:
            pass

        path.write_bytes(blob)
        cold = TraceStore(cache)
        loaded = cold.get(key)
        outcomes[sealed, loaded is not None] += 1
        if loaded is None:
            assert cold.stats["misses"] == cold.stats["corrupt"] == 1
            assert not path.exists()
        elif not sealed:
            assert _price(loaded) == prices[which]
    # The campaign reaches both outcomes of crafted entries, and bit rot
    # reaches the corrupt path.
    assert outcomes[True, True] and outcomes[True, False]
    assert outcomes[False, False]

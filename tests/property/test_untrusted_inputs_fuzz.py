"""Seeded fuzzing of the serve front end's untrusted text.

Three kinds of input reach the program from outside: the ``--groups``,
``--autoscale`` and ``--devices`` specs, fault-plan JSON, and
execution-graph JSON. Each is mutated here from valid seeds and fed to
its parser; the only exception allowed to escape is the module's own
structured error. Everything is derandomized (fixed seeds, fixed
counts), so a failure names a reproducible case:

    python -m pytest tests/property/test_untrusted_inputs_fuzz.py

A longer campaign reuses the mutators and seeds here with more cases and
other ``random.Random`` seeds.
"""

from __future__ import annotations

import copy
import json
import math
import random
from pathlib import Path

import pytest

from repro.core.cli import _parse_devices
from repro.lint import LintReport, lint_fault_plan, lint_graph, lint_trace
from repro.serving import FaultPlan, parse_autoscale, parse_groups, validate_fault_plan
from repro.serving.faults import FaultPlanError
from repro.serving.fleet import FleetConfigError
from repro.trace.ingest import IngestError, ingest_graph

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

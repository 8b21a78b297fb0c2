"""Unit tests for the execution-graph ingest layer.

Covers the op-mapping registry (ordering, overrides, memoization), the
pass/stage/modality heuristics, the shape/dtype work estimators, and the
structured-error contract for malformed graphs. Golden-fixture and
round-trip coverage live in ``test_ingest_golden.py`` and
``tests/integration/test_ingest_roundtrip.py``.
"""

from __future__ import annotations

import builtins
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from repro.core.cli import main
from repro.trace.events import (
    KernelCategory,
    PASS_BACKWARD,
    PASS_FORWARD,
    PASS_LOSS,
    PASS_OPTIMIZER,
    STAGE_OPTIMIZER,
)
from repro.trace.ingest import (
    IngestError,
    OpMappingRegistry,
    STAGE_UNKNOWN,
    default_registry,
    detect_pass,
    estimate_flops,
    ingest_graph,
    source_digest,
)
from repro.trace.store import TraceStore


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "execution_graphs"


def graph_of(*nodes, **top):
    base = {"schema": "mmbench-eg/1", "name": "t", "nodes": list(nodes)}
    base.update(top)
    return base


def kernel(node_id, name, parents=(), **fields):
    node = {"id": node_id, "name": name, "parents": list(parents)}
    node.update(fields)
    return node


# -- registry -------------------------------------------------------------------


class TestRegistry:
    def test_default_rules_resolve_core_vocabulary(self):
        reg = default_registry()
        expected = {
            "conv2d": KernelCategory.CONV,
            "aten::conv2d": KernelCategory.CONV,
            "batch_norm": KernelCategory.BNORM,
            "layer_norm": KernelCategory.BNORM,
            "relu": KernelCategory.RELU,
            "max_pool2d": KernelCategory.POOLING,
            "matmul": KernelCategory.GEMM,
            "addmm": KernelCategory.GEMM,
            "linear": KernelCategory.GEMM,
            "softmax": KernelCategory.REDUCE,
            "add": KernelCategory.ELEWISE,
            "mul": KernelCategory.ELEWISE,
        }
        for name, category in expected.items():
            rule = reg.resolve(name)
            assert rule is not None and rule.category == category, name

    def test_autograd_camelcase_names_resolve(self):
        reg = default_registry()
        assert reg.resolve("MmBackward0").category == KernelCategory.GEMM
        assert reg.resolve("SoftmaxBackward0").category == KernelCategory.REDUCE
        assert (reg.resolve("CrossEntropyLossBackward0").category
                == KernelCategory.REDUCE)

    def test_token_prefix_matching_avoids_substring_traps(self):
        reg = default_registry()
        # "accumulategrad" contains "mul"; token matching must not see it.
        assert reg.resolve("AccumulateGrad") is None
        assert reg.resolve("my_custom_op") is None

    def test_registered_rules_override_defaults(self):
        reg = default_registry()
        assert reg.resolve("my_custom_op") is None
        reg.register("my_custom", KernelCategory.GEMM)
        assert reg.resolve("my_custom_op").category == KernelCategory.GEMM
        # Overrides win over defaults because they are prepended.
        reg.register("relu", "Gemm")
        assert reg.resolve("relu").category == KernelCategory.GEMM

    def test_register_rejects_bad_category_and_pass(self):
        reg = default_registry()
        with pytest.raises(IngestError):
            reg.register("x", "NotACategory")
        with pytest.raises(IngestError):
            reg.register("x", KernelCategory.GEMM, pass_="sideways")

    def test_from_mapping_layers_over_defaults(self):
        reg = OpMappingRegistry.from_mapping({"magic": "Gemm"})
        assert reg.resolve("fused_magic_kernel").category == KernelCategory.GEMM
        assert reg.resolve("conv2d").category == KernelCategory.CONV

    def test_digest_changes_with_rules(self):
        a = default_registry()
        b = default_registry()
        assert a.digest() == b.digest()
        b.register("magic", KernelCategory.GEMM)
        assert a.digest() != b.digest()

    def test_digest_is_cached_and_equals_a_fresh_hash(self, monkeypatch):
        import repro.trace.ingest as ingest_mod

        def fresh(reg):  # the same rules, hashed by a registry never asked
            dup = OpMappingRegistry(reg.rule_list)
            dup._exact = dict(reg._exact)
            return dup.digest()

        default_registry().digest()
        hashes = []
        sha256 = ingest_mod.hashlib.sha256
        monkeypatch.setattr(ingest_mod.hashlib, "sha256",
                            lambda *a: hashes.append(1) or sha256(*a))
        reg = default_registry()
        assert reg.digest() == reg.digest() and hashes == []
        reg.register("magic", KernelCategory.GEMM)
        reg.register("Exact", KernelCategory.GEMM, exact=True)
        assert reg.digest() == reg.digest() and len(hashes) == 1
        assert reg.digest() == fresh(reg) != default_registry().digest()
        assert reg.copy().digest() == reg.digest()

    def test_copy_is_independent(self):
        a = default_registry()
        b = a.copy()
        b.register("magic", KernelCategory.GEMM)
        assert a.resolve("magic") is None
        assert b.resolve("magic") is not None


# -- pass detection --------------------------------------------------------------


class TestDetectPass:
    @pytest.mark.parametrize("name,expected", [
        ("conv2d", PASS_FORWARD),
        ("relu", PASS_FORWARD),
        ("ConvolutionBackward0", PASS_BACKWARD),
        ("relu_bwd", PASS_BACKWARD),
        ("AccumulateGrad", PASS_BACKWARD),
        ("autograd::engine", PASS_BACKWARD),
        ("optimizer.step#SGD.step", PASS_OPTIMIZER),
        ("adam_update", PASS_OPTIMIZER),
        ("cross_entropy_loss", PASS_LOSS),
        ("nll_loss_forward", PASS_LOSS),
        ("mse_loss", PASS_LOSS),
    ])
    def test_detection(self, name, expected):
        assert detect_pass(name) == expected

    def test_backward_outranks_loss(self):
        # A loss gradient kernel belongs to the backward pass.
        assert detect_pass("cross_entropy_loss_backward") == PASS_BACKWARD


# -- estimators ------------------------------------------------------------------


class TestEstimators:
    def test_gemm_uses_inner_dimension(self):
        flops = estimate_flops(KernelCategory.GEMM,
                               [(4, 8), (8, 4)], [(4, 4)], 2)
        assert flops == 2.0 * 16 * 8

    def test_conv_uses_weight_volume(self):
        flops = estimate_flops(KernelCategory.CONV,
                               [(1, 3, 8, 8), (4, 3, 3, 3)], [(1, 4, 8, 8)], 2)
        assert flops == 2.0 * 256 * 27

    def test_reduce_and_pooling_scale_with_input(self):
        assert estimate_flops(KernelCategory.REDUCE, [(2, 16, 16)], [(2, 16)], 1) == 512
        assert estimate_flops(KernelCategory.POOLING,
                              [(1, 4, 8, 8)], [(1, 4, 4, 4)], 1) == 256

    def test_elewise_scales_with_arity(self):
        assert estimate_flops(KernelCategory.ELEWISE, [(4, 4), (4, 4)], [(4, 4)], 2) \
            == 32

    def test_estimates_never_negative(self):
        for category in KernelCategory:
            assert estimate_flops(category, [], [], 0) >= 0.0


# -- ingest behavior -------------------------------------------------------------


class TestIngestGraph:
    def test_explicit_work_descriptors_win_over_estimation(self):
        g = ingest_graph(graph_of(kernel(
            1, "conv2d", flops=123.0, bytes_read=7.0, bytes_written=9.0,
            threads=5, input_shapes=[[64, 64]], output_shapes=[[64, 64]])))
        [k] = g.trace.kernels
        assert (k.flops, k.bytes_read, k.bytes_written, k.threads) == (123.0, 7.0, 9.0, 5)

    def test_bytes_follow_dtypes(self):
        g = ingest_graph(graph_of(kernel(
            1, "embedding", input_shapes=[[8]], input_dtypes=["int64"],
            output_shapes=[[8, 4]], output_dtypes=["float16"])))
        [k] = g.trace.kernels
        assert k.bytes_read == 8 * 8
        assert k.bytes_written == 32 * 2

    def test_unknown_ops_reported_never_dropped(self):
        g = ingest_graph(graph_of(
            kernel(1, "totally_unknown", input_shapes=[[4]], output_shapes=[[4]]),
            kernel(2, "relu", [1], input_shapes=[[4]], output_shapes=[[4]]),
        ))
        assert g.report.n_kernels == 2  # the unknown op still became a kernel
        assert g.report.unknown_ops == {"totally_unknown": 1}
        assert g.report.unknown_fraction == 0.5
        assert g.trace.kernels[0].category == KernelCategory.OTHER

    def test_explicit_pass_beats_detection(self):
        g = ingest_graph(graph_of(kernel(
            1, "MmBackward0", output_shapes=[[4]], **{"pass": "forward"})))
        assert g.trace.kernels[0].pass_ == PASS_FORWARD

    def test_optimizer_rule_sets_stage(self):
        g = ingest_graph(graph_of(kernel(
            1, "optimizer.step#SGD.step", output_shapes=[[4]])))
        [k] = g.trace.kernels
        assert k.pass_ == PASS_OPTIMIZER
        assert k.stage == STAGE_OPTIMIZER

    def test_unattributed_stage_lands_in_unknown_bucket(self):
        g = ingest_graph(graph_of(kernel(1, "matmul", output_shapes=[[4]])))
        assert g.trace.kernels[0].stage == STAGE_UNKNOWN
        assert g.report.unknown_stage_kernels == 1
        assert STAGE_UNKNOWN in g.trace.stages()

    def test_modality_heuristic_and_explicit_null(self):
        g = ingest_graph(graph_of(
            kernel(1, "image_encoder_conv", output_shapes=[[4]]),
            kernel(2, "text_embedding", [1], output_shapes=[[4]]),
            kernel(3, "audio_conv", [2], output_shapes=[[4]], modality=None),
        ))
        modalities = [k.modality for k in g.trace.kernels]
        assert modalities == ["image", "text", None]

    def test_topological_reordering(self):
        # Nodes serialized backwards; emission order must follow deps.
        g = ingest_graph(graph_of(
            kernel(3, "relu", [2], output_shapes=[[4]]),
            kernel(2, "matmul", [1], output_shapes=[[4]]),
            kernel(1, "conv2d", [], output_shapes=[[4]]),
        ))
        assert g.topo_order == (1, 2, 3)
        assert [k.name for k in g.trace.kernels] == ["conv2d", "matmul", "relu"]
        assert [k.seq for k in g.trace.kernels] == [0, 1, 2]

    def test_host_nodes_become_host_events(self):
        g = ingest_graph(graph_of(
            {"id": 1, "name": "copy_in", "parents": [], "host": True,
             "kind": "h2d", "bytes": 1024},
            kernel(2, "relu", [1], output_shapes=[[4]]),
        ))
        assert g.report.n_host_events == 1
        [h] = g.trace.host_events
        assert h.bytes == 1024 and h.kind.value == "h2d"

    def test_batch_size_and_model_metadata(self):
        g = ingest_graph(graph_of(
            kernel(1, "relu", output_shapes=[[4]]),
            batch_size=16,
            model={"parameters": 10, "parameter_bytes": 40, "input_bytes": 64,
                   "modalities": ["image"]},
        ))
        assert g.batch_size == 16
        assert (g.parameters, g.parameter_bytes, g.input_bytes) == (10, 40, 64)
        assert g.modalities == ["image"]

    def test_source_digest_is_content_addressed(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"nodes": []}')
        b.write_text('{"nodes": []}')
        assert source_digest(a) == source_digest(b)
        b.write_text('{"nodes": [], "name": "x"}')
        assert source_digest(a) != source_digest(b)


# -- structured errors ------------------------------------------------------------


class TestIngestErrors:
    def assert_raises_naming(self, graph, *fragments):
        with pytest.raises(IngestError) as excinfo:
            ingest_graph(graph)
        message = str(excinfo.value)
        for fragment in fragments:
            assert fragment in message, (fragment, message)
        return excinfo.value

    def test_missing_parent_names_node_and_parent(self):
        err = self.assert_raises_naming(
            graph_of(kernel(2, "relu", [99], output_shapes=[[4]])),
            "unknown parent", "99", "node 2")
        assert err.node_id == 2

    def test_cycle_names_a_node(self):
        err = self.assert_raises_naming(graph_of(
            kernel(1, "a", [2], output_shapes=[[4]]),
            kernel(2, "b", [1], output_shapes=[[4]]),
        ), "cycle")
        assert err.node_id in (1, 2)

    def test_self_dependency(self):
        self.assert_raises_naming(
            graph_of(kernel(1, "a", [1], output_shapes=[[4]])),
            "depends on itself", "node 1")

    def test_unknown_dtype_names_node(self):
        err = self.assert_raises_naming(
            graph_of(kernel(1, "relu", input_shapes=[[4]],
                            input_dtypes=["complex1024"], output_shapes=[[4]])),
            "unknown dtype", "complex1024", "node 1")
        assert err.node_id == 1

    def test_duplicate_node_id(self):
        self.assert_raises_naming(graph_of(
            kernel(1, "a", output_shapes=[[4]]),
            kernel(1, "b", output_shapes=[[4]]),
        ), "duplicate node id")

    def test_negative_work_descriptor(self):
        self.assert_raises_naming(
            graph_of(kernel(1, "relu", flops=-5, output_shapes=[[4]])),
            "flops", "non-negative", "node 1")

    def test_missing_name_and_missing_id(self):
        self.assert_raises_naming(graph_of({"id": 1, "parents": []}), "no 'name'")
        self.assert_raises_naming(graph_of({"name": "relu"}), "no 'id'")

    def test_bad_shapes_and_bad_pass(self):
        self.assert_raises_naming(
            graph_of(kernel(1, "relu", input_shapes=[[4, -1]])),
            "invalid dimension", "node 1")
        self.assert_raises_naming(
            graph_of(kernel(1, "relu", output_shapes=[[4]], **{"pass": "sideways"})),
            "unknown pass", "node 1")

    @staticmethod
    def fixture_with(position, **fields):
        """``cnn_forward.json`` with ``fields`` set on one node (0 is a
        host node, 1 a kernel node)."""
        graph = json.loads((FIXTURES / "cnn_forward.json").read_text())
        graph["nodes"][position].update(fields)
        return graph

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("attrs", [[1, 2], "x", 3])
    def test_attrs_must_be_an_object(self, position, attrs):
        node_id = position + 1
        self.assert_raises_naming(self.fixture_with(position, attrs=attrs),
                                  "attrs must be an object", f"node {node_id}")

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("modality", [5, ["a"], ""])
    def test_modality_must_be_a_string_or_null(self, position, modality):
        node_id = position + 1
        self.assert_raises_naming(self.fixture_with(position, modality=modality),
                                  "modality must be a non-empty string or null",
                                  f"node {node_id}")

    @pytest.mark.parametrize("stage", [7, "", None])
    def test_host_stage_must_be_a_string(self, stage):
        self.assert_raises_naming(self.fixture_with(0, stage=stage),
                                  "stage must be a non-empty string", "node 1")

    def test_null_attrs_and_modality_are_accepted(self):
        graph = self.fixture_with(0, attrs=None, modality=None)
        graph["nodes"][1].update(attrs={"k": 3}, modality=None)
        trace = ingest_graph(graph).trace
        assert trace.host_events[0].modality is None
        assert trace.kernels[0].modality is None
        assert trace.kernels[0].meta == {"k": 3}

    def test_unparseable_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(IngestError, match="invalid JSON"):
            ingest_graph(str(bad))

    def test_missing_nodes_list(self):
        with pytest.raises(IngestError, match="no 'nodes'"):
            ingest_graph({"name": "x"})

    #: Malformed graphs (ids and metadata of the wrong JSON type, integers
    #: past the int64/float64 range or the JSON digit limit) and the
    #: fragment their IngestError names. Each is written to a file, as a
    #: user's is.
    MALFORMED = {
        "list-id": (graph_of(kernel([1], "relu", output_shapes=[[4]])),
                    "node #0 id must be a string or number"),
        "object-id": (graph_of(kernel({}, "relu", output_shapes=[[4]])),
                      "node #0 id must be a string or number"),
        "list-parent": (graph_of(kernel(1, "a", output_shapes=[[4]]),
                                 kernel(2, "b", [[1]], output_shapes=[[4]])),
                        "parent id must be a string or number"),
        "object-parent": (graph_of(kernel(1, "a", output_shapes=[[4]]),
                                   kernel(2, "b", [{}], output_shapes=[[4]])),
                          "parent id must be a string or number"),
        "number-modalities": (graph_of(kernel(1, "relu", output_shapes=[[4]]),
                                       model={"modalities": 5.0}),
                              "model.modalities must be a list of strings"),
        "huge-flops": (graph_of(kernel(1, "relu", flops=10**400,
                                       output_shapes=[[4]])),
                       "flops must be finite and non-negative"),
        "huge-shape": (graph_of(kernel(1, "relu", input_shapes=[[10**200, 10**200]],
                                       output_shapes=[[4]])),
                       "input_shapes shape has 2**63 or more elements"),
        "huge-threads": (graph_of(kernel(1, "relu", threads=1e308,
                                         output_shapes=[[4]])),
                         "threads must be below 2**63"),
        "huge-parameters": (graph_of(kernel(1, "relu", output_shapes=[[4]]),
                                     model={"parameters": 10**400}),
                            "model.parameters must be a finite non-negative"),
        "huge-batch": (graph_of(kernel(1, "relu", output_shapes=[[4]]),
                                batch_size=10**400),
                       "batch_size must be a positive int below 2**63"),
        "int-past-digit-limit": ('{"nodes": [{"id": ' + "1" * 5000 + "}]}",
                                 "invalid JSON"),
    }

    @pytest.fixture(params=sorted(MALFORMED))
    def malformed(self, request, tmp_path):
        graph, fragment = self.MALFORMED[request.param]
        path = tmp_path / "graph.json"
        path.write_text(graph if isinstance(graph, str) else json.dumps(graph))
        return str(path), fragment

    def test_malformed_graph_raises_ingest_error(self, malformed):
        path, fragment = malformed
        self.assert_raises_naming(path, fragment, "graph.json")

    def test_malformed_graph_fails_mmbench_ingest_cleanly(self, malformed, capsys):
        path, fragment = malformed
        assert main(["ingest", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ingest failed: ") and fragment in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_lint_hook_refusal_fails_mmbench_ingest_cleanly(self, tmp_path, capsys):
        # The graph ingests, but its backward kernel precedes a forward one
        # (MMB201), so the store's pre-cache lint hook refuses it.
        path = tmp_path / "interleaved.json"
        path.write_text(json.dumps(graph_of(
            kernel(1, "relu_backward", output_shapes=[[4]], **{"pass": "backward"}),
            kernel(2, "relu", [1], output_shapes=[[4]]))))
        assert main(["ingest", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ingest failed: ") and "MMB201" in err
        assert "Traceback" not in err

    def test_errors_are_never_raw_keyerror_or_recursion(self):
        # The regression this PR pins: malformed graphs must never escape
        # as KeyError/RecursionError from deep inside the mapper.
        deep = graph_of(*[kernel(i, "relu", [i - 1] if i > 1 else [],
                                 output_shapes=[[4]])
                          for i in range(1, 5001)])
        deep["nodes"][0]["parents"] = [5000]  # one giant cycle
        with pytest.raises(IngestError):
            ingest_graph(deep)


class _FileCounter:
    """Counts opens of one file and sha256 calls over its bytes."""

    def __init__(self, path: Path):
        self.path = path
        self.raw = path.read_bytes()
        self.reads = self.hashes = 0

    def open(self, real):
        def counting(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == self.path:
                self.reads += 1
            return real(file, *args, **kwargs)
        return counting

    def sha256(self, real):
        def counting(data=b"", **kwargs):
            if data == self.raw:
                self.hashes += 1
            return real(data, **kwargs)
        return counting


class TestOneRead:
    """One ingest or store lookup reads the graph file once and hashes its
    bytes once; the key, the report and the parsed graph share that read."""

    @pytest.fixture
    def counter(self, tmp_path, monkeypatch):
        path = tmp_path / "cnn_forward.json"
        path.write_bytes((FIXTURES / "cnn_forward.json").read_bytes())
        counter = _FileCounter(path)
        monkeypatch.setattr(io, "open", counter.open(io.open))
        monkeypatch.setattr(builtins, "open", counter.open(builtins.open))
        monkeypatch.setattr(hashlib, "sha256", counter.sha256(hashlib.sha256))
        return counter

    def test_ingest_graph_reads_the_file_once(self, counter):
        ingested = ingest_graph(counter.path)
        assert (counter.reads, counter.hashes) == (1, 1)
        assert ingested.report.digest == hashlib.sha256(counter.raw).hexdigest()

    def test_cold_lookup_keys_and_parses_one_read(self, counter):
        store = TraceStore()
        keys = []
        lookup = store.get
        store.get = lambda key: keys.append(key) or lookup(key)
        stored = store.get_or_ingest(counter.path)
        assert (counter.reads, counter.hashes) == (1, 1)
        assert store.stats["captures"] == 1
        digest = hashlib.sha256(counter.raw).hexdigest()
        [key] = keys
        assert key.mode.split(":")[1] == digest
        assert stored.extra["ingest"]["digest"] == digest

    def test_warm_hit_reads_and_hashes_once(self, counter):
        store = TraceStore()
        store.get_or_ingest(counter.path)
        counter.reads = counter.hashes = 0
        store.get_or_ingest(counter.path)
        assert (counter.reads, counter.hashes) == (1, 1)
        assert store.stats["captures"] == 1 and store.stats["hits"] == 1

    def test_undecodable_bytes_are_an_ingest_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "caf\xe9", "nodes": []}')
        with pytest.raises(IngestError, match="invalid JSON"):
            ingest_graph(path)


@pytest.mark.parametrize("policy", ["adaptive", "fixed"])
def test_bad_serve_slo_fails_mmbench_ingest_cleanly(policy, capsys):
    assert main(["ingest", str(FIXTURES / "cnn_forward.json"), "--serve",
                 "--policy", policy, "--slo", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "--slo must be positive and finite, got -1.0\n"

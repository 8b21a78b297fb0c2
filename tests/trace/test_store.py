"""The content-addressed trace store: keys, tiers, stats, persistence."""

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serving import PROFILE_STATS, ProfiledCostModel, clear_cost_cache
from repro.trace.store import (
    TraceKey,
    TraceStore,
    code_fingerprint,
    default_store,
    set_default_store,
)
from repro.workloads.registry import get_workload, list_workloads


@pytest.fixture(autouse=True)
def fresh_default_store():
    prev = set_default_store(None)
    yield
    set_default_store(prev)


class TestKeys:
    def test_key_is_content_addressed(self):
        store = TraceStore()
        k1 = store.make_key("avmnist", batch_size=8, seed=0, backend="meta")
        k2 = store.make_key("avmnist", batch_size=8, seed=0, backend="meta")
        assert k1 == k2 and k1.digest() == k2.digest()
        assert k1.digest() != store.make_key("avmnist", batch_size=9).digest()

    def test_default_fusion_normalized(self):
        from repro.workloads.registry import get_workload

        store = TraceStore()
        default = get_workload("avmnist").default_fusion
        assert store.make_key("avmnist", fusion=None) == \
               store.make_key("avmnist", fusion=default)

    def test_backend_and_code_version_in_key(self):
        store = TraceStore()
        k_meta = store.make_key("avmnist", backend="meta")
        k_eager = store.make_key("avmnist", backend="eager")
        assert k_meta != k_eager
        assert k_meta.code_version == code_fingerprint()

    def test_unimodal_distinct_from_fusion(self):
        store = TraceStore()
        assert store.make_key("avmnist", unimodal="image") != \
               store.make_key("avmnist", fusion="slfs")


    @given(st.builds(
        TraceKey, workload=st.text(), fusion=st.none() | st.text(),
        unimodal=st.none() | st.text(), batch_size=st.integers(),
        seed=st.integers(), backend=st.text(), code_version=st.text(),
        mode=st.text()))
    def test_canonical_equals_the_asdict_spelling(self, key):
        # Digests of stored entries hash these bytes: they must not move.
        assert key.as_dict() == dataclasses.asdict(key)
        assert key.canonical() == json.dumps(
            dataclasses.asdict(key), sort_keys=True, separators=(",", ":"))


class TestCaptureAndHits:
    def test_warm_hit_skips_capture(self):
        store = TraceStore()
        first = store.get_or_capture("avmnist", batch_size=4, backend="meta")
        assert store.stats["captures"] == 1 and store.stats["misses"] == 1
        second = store.get_or_capture("avmnist", batch_size=4, backend="meta")
        assert second is first  # same object: tracing skipped entirely
        assert store.stats["captures"] == 1 and store.stats["hits"] == 1

    def test_stored_scalars_match_model(self):
        store = TraceStore()
        stored = store.get_or_capture("avmnist", batch_size=4, backend="meta")
        model = store.model("avmnist")
        assert stored.parameters == model.num_parameters()
        assert stored.parameter_bytes == model.parameter_bytes()
        assert stored.input_bytes == model.input_bytes(4)
        assert stored.modalities == model.modality_names
        assert stored.trace.total_flops > 0

    def test_meta_and_eager_entries_price_identically(self):
        from repro.profiling.profiler import price_stored

        store = TraceStore()
        meta = store.get_or_capture("avmnist", batch_size=4, backend="meta")
        eager = store.get_or_capture("avmnist", batch_size=4, backend="eager")
        [t_meta] = price_stored(meta, ["2080ti"])
        [t_eager] = price_stored(eager, ["2080ti"])
        assert t_meta.total_time == t_eager.total_time


class TestTrainingModelReuse:
    """A meta training capture runs on the memoized build; eager builds fresh."""

    @pytest.fixture
    def builds(self, monkeypatch):
        from repro.workloads.registry import WorkloadInfo

        calls = []
        for name in ("build", "build_unimodal"):
            def counted(self, *args, _original=getattr(WorkloadInfo, name), **kwargs):
                calls.append(self.name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(WorkloadInfo, name, counted)
        return calls

    @pytest.mark.parametrize("backend, n_builds", [("meta", 1), ("eager", 2)])
    @pytest.mark.parametrize("training_first", [False, True])
    def test_one_build_per_workload_and_seed_on_meta(self, builds, backend,
                                                     n_builds, training_first):
        store = TraceStore()
        captures = [
            lambda: store.get_or_capture("avmnist", batch_size=2, seed=1,
                                         backend=backend),
            lambda: store.get_or_capture_training("avmnist", batch_size=2, seed=1,
                                                  backend=backend),
        ]
        for capture in captures[::-1] if training_first else captures:
            capture()
        assert store.stats["captures"] == 2
        assert builds == ["avmnist"] * n_builds

    @pytest.mark.parametrize("workload", list_workloads())
    def test_meta_training_capture_leaves_the_build_pristine(self, workload):
        store = TraceStore()
        store.get_or_capture_training(workload, batch_size=2, seed=1, backend="meta")
        model = store.model(workload, seed=1)
        assert all(p.grad is None for p in model.parameters())
        fresh = get_workload(workload).build(None, seed=1).state_dict()
        state = model.state_dict()
        assert state.keys() == fresh.keys()
        for name, value in state.items():
            assert value.dtype == fresh[name].dtype, name
            assert value.tobytes() == fresh[name].tobytes(), name

    @pytest.mark.parametrize("optimizer, buffers", [
        ("adam", ("_m", "_v")), ("sgd_momentum", ("_velocity",))])
    def test_meta_step_allocates_no_optimizer_state(self, monkeypatch,
                                                    optimizer, buffers):
        import repro.nn.optim as optim

        made = []

        def recording(*args, _original=optim.make_optimizer, **kwargs):
            made.append(_original(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(optim, "make_optimizer", recording)
        TraceStore().get_or_capture_training("avmnist", batch_size=2,
                                             backend="meta", optimizer=optimizer)
        (opt,) = made
        for attr in buffers:
            assert getattr(opt, attr) == [None] * len(opt.params), attr


class TestDiskTier:
    def test_round_trip_through_disk(self, tmp_path):
        warm = TraceStore(tmp_path)
        original = warm.get_or_capture("avmnist", batch_size=4, backend="meta")
        assert len(list(tmp_path.glob("*.mmt"))) == 1

        cold = TraceStore(tmp_path)  # fresh process-equivalent
        loaded = cold.get_or_capture("avmnist", batch_size=4, backend="meta")
        assert cold.stats["captures"] == 0
        assert cold.stats["disk_hits"] == 1
        assert loaded.parameters == original.parameters
        assert len(loaded.trace.kernels) == len(original.trace.kernels)
        for a, b in zip(original.trace.kernels, loaded.trace.kernels):
            assert (a.name, a.category, a.flops, a.bytes_read, a.bytes_written,
                    a.threads, a.stage, a.modality, a.seq) == \
                   (b.name, b.category, b.flops, b.bytes_read, b.bytes_written,
                    b.threads, b.stage, b.modality, b.seq)
        for a, b in zip(original.trace.host_events, loaded.trace.host_events):
            assert (a.kind, a.bytes, a.stage, a.seq, a.name) == \
                   (b.kind, b.bytes, b.stage, b.seq, b.name)

    def test_training_trace_round_trip_through_disk(self, tmp_path):
        warm = TraceStore(tmp_path)
        original = warm.get_or_capture_training("avmnist", batch_size=2,
                                                backend="meta")
        cold = TraceStore(tmp_path)
        loaded = cold.get_or_capture_training("avmnist", batch_size=2,
                                              backend="meta")
        assert cold.stats["captures"] == 0 and cold.stats["disk_hits"] == 1
        assert loaded.trace.passes() == original.trace.passes() == \
            ["forward", "loss", "backward", "optimizer"]
        for a, b in zip(original.trace.kernels, loaded.trace.kernels):
            assert (a.name, a.pass_, a.stage, a.flops) == \
                   (b.name, b.pass_, b.stage, b.flops)

    def test_binary_header_carries_key(self, tmp_path):
        from repro.trace.binfmt import read_header

        store = TraceStore(tmp_path)
        store.get_or_capture("avmnist", batch_size=2, backend="meta")
        path = next(tmp_path.glob("*.mmt"))
        header = read_header(path)
        assert path.read_bytes()[8:12] == (6).to_bytes(4, "little")
        assert header["key"]["workload"] == "avmnist"
        assert header["key"]["code_version"] == code_fingerprint()

    def test_corrupt_disk_entry_recaptured_not_fatal(self, tmp_path):
        seeded = TraceStore(tmp_path)
        seeded.get_or_capture("avmnist", batch_size=2, backend="meta")
        path = next(tmp_path.glob("*.mmt"))
        path.write_bytes(b"definitely not a trace file")

        cold = TraceStore(tmp_path)
        out = cold.get_or_capture("avmnist", batch_size=2, backend="meta")
        assert cold.stats["captures"] == 1  # recaptured, no crash
        assert cold.stats["corrupt"] == 1  # counted, distinct from a miss
        assert "1 corrupt" in cold.stats_line()
        assert out.trace.total_flops > 0
        # The bad bytes were quarantined aside, not silently vaporized.
        assert list(tmp_path.glob("*.corrupt"))
        # The bad file was replaced with a good one: next process disk-hits.
        fresh = TraceStore(tmp_path)
        fresh.get_or_capture("avmnist", batch_size=2, backend="meta")
        assert fresh.stats["disk_hits"] == 1 and fresh.stats["captures"] == 0

    def test_clear_keeps_disk_unless_asked(self, tmp_path):
        store = TraceStore(tmp_path)
        store.get_or_capture("avmnist", batch_size=2, backend="meta")
        store.clear()
        assert len(store) == 0 and list(tmp_path.glob("*.mmt"))
        store.clear(disk=True)
        # Binary files AND the interning sidecar are gone.
        assert not list(tmp_path.glob("*.mmt"))
        assert not (tmp_path / TraceStore.INTERNING_SIDECAR).exists()


class TestCostModelShims:
    """PR-1 back-compat: clear_cost_cache / PROFILE_STATS over the store."""

    def test_clear_cost_cache_clears_default_store(self):
        clear_cost_cache()
        ProfiledCostModel("avmnist", anchors=(1, 4)).latency("2080ti", 2)
        assert len(default_store()) > 0
        clear_cost_cache()
        assert len(default_store()) == 0

    def test_profile_stats_mirror_store_captures(self):
        clear_cost_cache()
        before = dict(PROFILE_STATS)
        ProfiledCostModel("avmnist", anchors=(1, 4)).latency("2080ti", 2)
        delta = PROFILE_STATS["captures"] - before["captures"]
        assert delta == 2  # one per anchor
        assert default_store().stats["captures"] == 2

    def test_cost_model_latency_backend_equivalence(self):
        clear_cost_cache()
        t_meta = ProfiledCostModel("avmnist", anchors=(1, 4),
                                   backend="meta").latency("2080ti", 3)
        clear_cost_cache()
        t_eager = ProfiledCostModel("avmnist", anchors=(1, 4),
                                    backend="eager").latency("2080ti", 3)
        assert t_meta == t_eager


class TestDefaultStore:
    def test_env_var_configures_disk_tier(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MMBENCH_CACHE_DIR", str(tmp_path / "cache"))
        set_default_store(None)
        store = default_store()
        assert store.cache_dir == tmp_path / "cache"
        assert store.cache_dir.is_dir()

    def test_set_default_store_returns_previous(self):
        mine = TraceStore()
        prev = set_default_store(mine)
        assert default_store() is mine
        set_default_store(prev)

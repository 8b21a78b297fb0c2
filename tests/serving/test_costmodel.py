"""Profiled cost models: interpolation, extrapolation and memoization."""

import pytest

from repro.serving import (
    PROFILE_STATS,
    CallableCostModel,
    ProfiledCostModel,
    clear_cost_cache,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cost_cache()
    yield
    clear_cost_cache()


def snapshot() -> dict:
    return dict(PROFILE_STATS)


class TestMemoization:
    def test_same_key_never_reprofiles(self):
        cost = ProfiledCostModel("avmnist", anchors=(1, 4, 16))
        cost.latency("2080ti", 8)
        before = snapshot()
        # Same (workload, fusion, batch size, device) again — cache only.
        cost.latency("2080ti", 8)
        cost.latency("2080ti", 12)  # different batch, same anchors
        assert snapshot()["captures"] == before["captures"]
        assert snapshot()["pricings"] == before["pricings"]

    def test_fresh_instance_shares_module_cache(self):
        ProfiledCostModel("avmnist", anchors=(1, 4, 16)).latency("2080ti", 8)
        before = snapshot()
        other = ProfiledCostModel("avmnist", anchors=(1, 4, 16))
        other.latency("2080ti", 8)
        after = snapshot()
        assert after["captures"] == before["captures"]
        assert after["pricings"] == before["pricings"]
        assert after["hits"] > before["hits"]

    def test_new_device_reprices_but_does_not_recapture(self):
        cost = ProfiledCostModel("avmnist", anchors=(1, 4, 16))
        cost.latency("2080ti", 8)
        before = snapshot()
        cost.latency("nano", 8)  # traces are device-independent
        after = snapshot()
        assert after["captures"] == before["captures"]
        assert after["pricings"] == before["pricings"] + 3  # one per anchor

    def test_default_fusion_aliases_none(self):
        from repro.workloads.registry import get_workload

        default = get_workload("avmnist").default_fusion
        ProfiledCostModel("avmnist", None, anchors=(1, 4)).latency("2080ti", 2)
        before = snapshot()
        ProfiledCostModel("avmnist", default, anchors=(1, 4)).latency("2080ti", 2)
        assert snapshot()["captures"] == before["captures"]
        assert snapshot()["pricings"] == before["pricings"]

    def test_device_aliases_share_cache(self):
        cost = ProfiledCostModel("avmnist", anchors=(1, 4, 16))
        cost.latency("2080ti", 8)
        before = snapshot()
        cost.latency("rtx2080ti", 8)  # canonical name of the same device
        assert snapshot()["pricings"] == before["pricings"]


class TestCurve:
    @pytest.fixture(scope="class")
    def cost(self):
        return ProfiledCostModel("avmnist", anchors=(1, 8, 32, 128))

    def test_monotone_in_batch_size(self, cost):
        times = [cost.latency("2080ti", k) for k in (1, 8, 24, 64, 128)]
        assert times == sorted(times)

    def test_amortization(self, cost):
        assert cost.latency("2080ti", 128) / 128 < cost.latency("2080ti", 1)

    def test_extrapolates_beyond_last_anchor(self, cost):
        inside = cost.latency("2080ti", 128)
        beyond = cost.latency("2080ti", 512)
        far = cost.latency("2080ti", 2048)
        assert inside < beyond < far  # affine growth, not np.interp clamping

    def test_extrapolates_below_first_anchor(self):
        # Non-default anchors starting above 1: small batches must ride the
        # first segment's slope down, not flat-clamp at the k=8 price.
        cost = ProfiledCostModel("avmnist", anchors=(8, 32, 128))
        t8 = cost.latency("2080ti", 8)
        t32 = cost.latency("2080ti", 32)
        slope = (t32 - t8) / (32 - 8)
        for k in (1, 2, 4, 7):
            priced = cost.latency("2080ti", k)
            assert priced < t8  # the old code returned t8 for all of these
            assert priced == pytest.approx(t8 - slope * (8 - k))
            assert priced > 0

    def test_below_anchor_extrapolation_floors_positive(self):
        import numpy as np

        from repro.serving.costmodel import _interp_affine

        # Superlinear anchor pair: the affine extrapolation would cross
        # zero at small k; the floor keeps pricing proportional instead.
        anchors = np.array([8.0, 32.0])
        times = np.array([1.0, 10.0])  # slope 0.375 -> affine at k=1: -1.625
        priced = _interp_affine(1, anchors, times)
        assert priced == pytest.approx(1.0 * 1 / 8)
        # The normal (positive-intercept) case is untouched by the floor.
        gentle = np.array([1.0, 1.24])  # slope 0.01/k
        assert _interp_affine(4, anchors, gentle) == pytest.approx(
            1.0 - (0.24 / 24) * 4)

    def test_edge_slower_than_server(self, cost):
        assert cost.latency("nano", 32) > cost.latency("2080ti", 32)

    def test_throughput_optimal_batch(self, cost):
        best = cost.throughput_optimal_batch("2080ti", max_batch=128)
        rate = best / cost.latency("2080ti", best)
        assert rate >= 1 / cost.latency("2080ti", 1)

    def test_validation(self, cost):
        with pytest.raises(ValueError):
            cost.latency("2080ti", 0)
        with pytest.raises(ValueError):
            ProfiledCostModel("avmnist", anchors=())
        with pytest.raises(ValueError):
            ProfiledCostModel("avmnist", anchors=(8, 1))
        with pytest.raises(ValueError):
            # Floats that collapse into duplicate ints after truncation.
            ProfiledCostModel("avmnist", anchors=(1.2, 1.8))


class TestCallable:
    def test_delegates_and_validates(self):
        cost = CallableCostModel(lambda k: 1e-3 * k)
        assert cost.latency("anything", 2) == pytest.approx(2e-3)
        with pytest.raises(ValueError):
            cost.latency("anything", 0)
        with pytest.raises(ValueError, match="positive duration"):
            CallableCostModel(lambda k: -1.0).latency("d", 1)

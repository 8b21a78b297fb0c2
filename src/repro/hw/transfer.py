"""Host-device data movement model.

On the discrete-GPU server every modality's input batch crosses PCIe
(host-to-device) and intermediate results that need host post-processing
cross back (device-to-host); each call also pays a fixed runtime latency.
On Jetson-class devices CPU and GPU share one physical memory, so the copy
itself vanishes but the runtime synchronization cost remains — exactly the
unified-memory behaviour the paper notes in Sec. 3.3. The link is
symmetric: a device-to-host call costs what a host-to-device call of the
same size does.
"""

from __future__ import annotations

from repro.hw.device import DeviceSpec


def h2d_time(bytes_: float, device: DeviceSpec) -> float:
    """Host-to-device transfer time for one call."""
    if bytes_ < 0:
        raise ValueError("negative transfer size")
    if device.unified_memory:
        return device.transfer_latency
    return device.transfer_latency + bytes_ / device.pcie_bandwidth

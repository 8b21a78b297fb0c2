"""The table-based faulted fill: the differential oracle of the fleet
engine's per-request timing under faults.

``table_fill`` below is how :meth:`repro.serving.fleet._FleetEngine._fill_requests`
filled a faulted run while every faulted run built its whole request
table: the completed requests' latencies and the arrival, dispatch,
formation and service sums were read off that table, tenant by tenant.
The production engine now expands sorted batch runs instead and builds
the table only when a caller reads it; both must give the same numbers
bit for bit.

Keep this copy frozen: it is a specification, not shared code. It reads
only the finished engine's ``request_table()``, ``_tenant_order()``,
``arr_t`` and ``shed_pos``; :func:`capture_engines` hands a test the
engines its runs build.
"""

from __future__ import annotations

import numpy as np

import repro.serving.fleet as fleet


def capture_engines(monkeypatch) -> list:
    """Every engine that runs from now on, in run order."""
    seen = []
    run = fleet._FleetEngine.run

    def capture(self):
        seen.append(self)
        return run(self)

    monkeypatch.setattr(fleet._FleetEngine, "run", capture)
    return seen


def table_fill(engine) -> tuple[list[np.ndarray], list[float], list[float],
                                float, float]:
    """``(lat_t, arr_sum, disp_sum, form_sum, serv_sum)`` of a finished
    faulted run, read off its request table."""
    table = engine.request_table()
    order = engine._tenant_order()
    order = order[~table.shed[order]]
    arr, disp = table.arrival[order], table.dispatch[order]
    fin, form = table.finish[order], table.formation[order]
    lat, serv = fin - arr, fin - disp
    lat_t: list[np.ndarray] = []
    arr_sum: list[float] = []
    disp_sum: list[float] = []
    form_sum = serv_sum = 0.0
    end = 0
    for t, shed in enumerate(engine.shed_pos):
        start, end = end, end + engine.arr_t[t].size - len(shed)
        arr_sum.append(float(arr[start:end].sum()))
        disp_sum.append(float(disp[start:end].sum()))
        form_sum += float(form[start:end].sum())
        serv_sum += float(serv[start:end].sum())
        lat_t.append(lat[start:end])
    return lat_t, arr_sum, disp_sum, form_sum, serv_sum


def assert_fill_matches(engine) -> None:
    """The engine's fill equals :func:`table_fill`, bit for bit."""
    lat_t, arr_sum, disp_sum, form_sum, serv_sum = table_fill(engine)
    assert [a.tobytes() for a in engine.lat_t] == [a.tobytes() for a in lat_t]
    hexed = [float.hex(x) for x in (*engine.arr_sum, *engine.disp_sum,
                                     engine.form_sum, engine.serv_sum)]
    assert hexed == [float.hex(x) for x in (*arr_sum, *disp_sum,
                                            form_sum, serv_sum)]

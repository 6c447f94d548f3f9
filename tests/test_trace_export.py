"""``SimTrace.write_events`` and ``SimTrace.events`` against the row-by-row
``json.dumps`` writer they replaced.

The writer sorts the rows as columns with one ``numpy.lexsort`` on (time,
request id rank, label text rank), formats each run of equal times in a
chunk of ``_CHUNK_ROWS`` rows once, and pieces every line together from byte
tables. Its bytes must equal those of one ``json.dumps`` per row dict, in the
same order, on every preset system and on hand-built traces with the ties,
number forms, ids and chunk edges that a shortcut would get wrong. One test
bounds the writer's traced memory per exported row.
"""

from __future__ import annotations

import dataclasses
import json
import tracemalloc

import pytest

from disaggsim import trace as trace_module
from disaggsim.engine import run_simulation
from disaggsim.presets import get_preset, preset_names, switch_preset
from disaggsim.trace import RequestRecord, SimTrace
from disaggsim.workload import generate_shifted


def reference_rows(trace: SimTrace) -> list[tuple[int, str, float]]:
    """The (rid, event, time) rows, built and sorted as before the rewrite."""
    rows: list[tuple[int, str, float]] = []
    for r in trace.requests.values():
        rows.append((r.rid, "arrival", r.arrival))
        if r.rejected is not None:
            rows.append((r.rid, f"rejected:{r.rejected}", r.arrival))
            continue
        for label, value in (
            ("encode_start", r.encode_start), ("encode_end", r.encode_end),
            ("ep_transfer_end", r.ep_transfer_end),
            ("prefill_start", r.prefill_start), ("prefill_end", r.prefill_end),
            ("first_token", r.first_token_time),
            ("pd_transfer_end", r.pd_transfer_end),
            ("completion", r.completion_time),
        ):
            if value is not None:
                rows.append((r.rid, label, value))
        for i, t in enumerate(r.token_times):
            rows.append((r.rid, f"token:{i}", t))
    rows.sort(key=lambda row: (row[2], row[0], row[1]))
    return rows


def reference_bytes(trace: SimTrace) -> bytes:
    return "".join(json.dumps({"rid": rid, "event": event, "time": t}) + "\n"
                   for rid, event, t in reference_rows(trace)).encode()


def assert_same_export(trace: SimTrace, tmp_path) -> None:
    path = tmp_path / "events.jsonl"
    trace.write_events(path)
    assert path.read_bytes() == reference_bytes(trace)
    assert list(trace.events()) == reference_rows(trace)


def record(rid: int, arrival: float, **fields) -> RequestRecord:
    tokens = fields.get("token_times", [])
    return RequestRecord(rid=rid, arrival=arrival, prompt_tokens=1, mm_tokens=0,
                         total_tokens=1, output_tokens=len(tokens), **fields)


def served(rid: int, arrival: float, tokens: list[float], **fields) -> RequestRecord:
    """A request prefilled on a fused instance: prefill end, first token and
    token 0 at one time, completion at the last token's."""
    return record(rid, arrival, prefill_start=arrival, prefill_end=tokens[0],
                  first_token_time=tokens[0], token_times=tokens,
                  completion_time=tokens[-1], **fields)


def hand_built(*records: RequestRecord) -> SimTrace:
    return SimTrace(requests={r.rid: r for r in records}, instances={})


@pytest.mark.parametrize("preset", preset_names())
def test_every_preset_system_exports_reference_bytes(preset, tmp_path):
    spec = get_preset(preset)
    workload = spec.generate(spec.workload)
    for config in spec.systems.values():
        assert_same_export(run_simulation(config, workload, seed=spec.seed), tmp_path)


def test_rejected_request_and_shared_times(tmp_path):
    step = 2.5  # one decode step's time, shared by two requests' tokens
    trace = hand_built(
        served(0, 0.25, [1.0, step, 3.0]),
        record(1, 0.5, rejected="kv_capacity"),
        served(2, 0.5, [1.0, step]),
        record(3, 1.0, rejected="mm_capacity"),
    )
    assert_same_export(trace, tmp_path)


def test_token_indexes_past_nine_sort_as_text(tmp_path):
    """At one time, ``token:10`` sorts before ``token:2``, as the labels compare."""
    same = [4.0] * 12
    times = [1.0 + i / 8 for i in range(12)]
    assert_same_export(hand_built(served(0, 0.0, same), served(1, 0.0, times)), tmp_path)


def test_signed_zero_and_number_forms_are_kept(tmp_path):
    """0.0 and -0.0 compare equal but are written differently; so are the
    exponent forms and the non-finite values of ``json.dumps``."""
    trace = hand_built(
        served(0, 0.0, [-0.0, 0.0, 1e-7]),
        served(1, -0.0, [0.0, 1e16, float("inf")]),
        record(2, 0.0, rejected="empty"),
        record(3, -0.0, rejected="context"),
    )
    assert_same_export(trace, tmp_path)


def test_int_times_beside_equal_floats(tmp_path):
    """An int time is written as an int, even where a float of equal value
    shares its run; the two still tie in the sort."""
    trace = hand_built(
        served(0, 1, [1.0, 2, 2.0]),
        served(1, 1.0, [1, 2.0, 3]),
        record(2, 1, rejected="kv_capacity"),
    )
    assert_same_export(trace, tmp_path)


def test_ids_out_of_order_sparse_and_beyond_int64(tmp_path):
    trace = hand_built(
        served(2**64 + 5, 0.5, [1.0, 2.0]),
        served(17, 0.5, [1.0, 2.0]),
        record(2**63, 0.5, rejected="context"),
        served(3, 0.25, [2.0, 2.5]),
        served(-4, 0.5, [1.0]),
    )
    assert_same_export(trace, tmp_path)


def test_empty_trace(tmp_path):
    assert_same_export(hand_built(), tmp_path)
    assert (tmp_path / "events.jsonl").read_bytes() == b""


def test_every_request_rejected(tmp_path):
    trace = hand_built(*(record(rid, rid / 4, rejected=("empty", "context")[rid % 2])
                         for rid in range(5)))
    assert_same_export(trace, tmp_path)


def test_time_group_straddles_chunk_boundary(tmp_path):
    """31 rows share one time across the end of the first chunk; their ids
    and labels keep their order on both sides of it."""
    shared, chunk = 7.0, trace_module._CHUNK_ROWS
    trace = hand_built(
        served(0, 0.0, [1.0 + i * 1e-6 for i in range(chunk - 33)] + [shared]),
        *(served(rid, 0.5, [shared]) for rid in range(1, 8)),
        served(8, 0.0, [shared - 1.0, shared, shared + 1.0]),
    )
    assert_same_export(trace, tmp_path)
    lines = (tmp_path / "events.jsonl").read_bytes().splitlines()
    group = [i for i, line in enumerate(lines) if line.endswith(b'"time": 7.0}')]
    assert group == list(range(group[0], group[0] + 31))
    assert group[0] < chunk <= group[-1]


def test_export_memory_per_row_is_bounded(tmp_path):
    """The traced peak of one export stays under 48 bytes per row on a
    switch-shifted trace of 500 requests: the columns, not a tuple per row.
    A list of (time, id, label) tuples alone takes about 80."""
    preset = switch_preset()
    spec = dataclasses.replace(preset.workload, num_requests=500)
    trace = run_simulation(preset.systems["epd"],
                           generate_shifted(spec, (50, 50), (450, 500)), seed=preset.seed)
    path = tmp_path / "events.jsonl"
    tracemalloc.start()
    try:
        trace.write_events(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = path.read_bytes().count(b"\n")
    assert rows > 200_000
    assert peak / rows < 48, f"{peak / rows:.1f} bytes per exported row"

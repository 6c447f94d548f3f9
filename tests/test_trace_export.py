"""``SimTrace.write_events`` against the ``json.dumps`` writer it replaced.

The writer formats each row by hand and each run of rows sharing a time
once. Its bytes must equal those of one ``json.dumps`` per row dict, in the
same order, on every preset system and on hand-built traces with the ties
and number forms that a shortcut would get wrong.
"""

from __future__ import annotations

import json

import pytest

from disaggsim.cli import _preset_workload
from disaggsim.engine import run_simulation
from disaggsim.presets import get_preset, preset_names
from disaggsim.trace import RequestRecord, SimTrace


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
    workload = _preset_workload(spec, None)
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

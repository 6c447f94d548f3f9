"""Per-request lifecycle records produced by the simulator."""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .controller import SwitchEventRecord
from .models import StageRole


class TraceInvariantError(ValueError):
    """A trace violated a causality or conservation invariant."""


# Lines of events.jsonl formatted before each write.
_CHUNK_ROWS = 8192


def _json_number(value) -> str:
    """``value`` as ``json.dumps`` writes it: a finite float by ``float.__repr__``."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


@dataclass
class ShardRecord:
    worker: int
    patches: int
    start: Optional[float] = None
    end: Optional[float] = None
    transfer_end: Optional[float] = None


@dataclass
class RequestRecord:
    rid: int
    arrival: float
    prompt_tokens: int
    mm_tokens: int
    total_tokens: int
    output_tokens: int
    slo: Optional[tuple[float, float]] = None
    rejected: Optional[str] = None
    e_instance: Optional[int] = None
    p_instance: Optional[int] = None
    d_instance: Optional[int] = None
    shards: list[ShardRecord] = field(default_factory=list)
    encode_start: Optional[float] = None
    encode_end: Optional[float] = None
    ep_transfer_end: Optional[float] = None
    prefill_start: Optional[float] = None
    prefill_end: Optional[float] = None
    first_token_time: Optional[float] = None
    pd_transfer_end: Optional[float] = None
    token_times: list[float] = field(default_factory=list)
    completion_time: Optional[float] = None

    @property
    def completed(self) -> bool:
        return self.completion_time is not None

    @property
    def ttft(self) -> float:
        """Seconds from submission to the first token, queueing included."""
        return self.first_token_time - self.arrival

    @property
    def tpot(self) -> float:
        """Mean inter-token gap after the first token; 0 for single-token output."""
        if self.output_tokens < 2:
            return 0.0
        return (self.completion_time - self.first_token_time) / (self.output_tokens - 1)


@dataclass
class InstanceRecord:
    iid: int
    initial_role: StageRole
    roles: list[tuple[float, StageRole]] = field(default_factory=list)

    def role_at(self, t: float) -> StageRole:
        current = self.initial_role
        for when, role in self.roles:
            if when <= t:
                current = role
            else:
                break
        return current


@dataclass
class SimTrace:
    requests: dict[int, RequestRecord]
    instances: dict[int, InstanceRecord]
    switches: list[SwitchEventRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def completed_count(self) -> int:
        return sum(1 for r in self.requests.values() if r.completed)

    @property
    def rejected_count(self) -> int:
        return sum(1 for r in self.requests.values() if r.rejected is not None)

    @property
    def horizon(self) -> float:
        times = [r.completion_time for r in self.requests.values() if r.completed]
        return max(times) if times else 0.0

    def completed_records(self) -> list[RequestRecord]:
        return [r for r in self.requests.values() if r.completed]

    def validate(self) -> None:
        """Raise :class:`TraceInvariantError` on any broken invariant."""
        for r in self.requests.values():
            if r.rejected is not None:
                if r.completed:
                    raise TraceInvariantError(f"request {r.rid} both rejected and completed")
                continue
            if not r.completed:
                raise TraceInvariantError(f"request {r.rid} neither completed nor rejected")
            self._check_causality(r)
        for switch in self.switches:
            stamps = (switch.offload_done, switch.migration_done, switch.onload_done)
            if any(s is None for s in stamps):
                raise TraceInvariantError("switch record has missing phase timestamps")
            if not stamps[0] < stamps[1] < stamps[2]:
                raise TraceInvariantError(f"switch phases not strictly ordered: {stamps}")

    @staticmethod
    def _check_causality(r: RequestRecord) -> None:
        def ordered(label: str, a: Optional[float], b: Optional[float]) -> None:
            if a is not None and b is not None and a > b + 1e-12:
                raise TraceInvariantError(f"request {r.rid}: {label} out of order ({a} > {b})")

        ordered("arrival/encode", r.arrival, r.encode_start)
        ordered("encode start/end", r.encode_start, r.encode_end)
        for shard in r.shards:
            if shard.end is None or shard.transfer_end is None:
                raise TraceInvariantError(
                    f"request {r.rid}: shard on worker {shard.worker} never ended or arrived")
            ordered("shard start", r.encode_start, shard.start)
            ordered("shard run", shard.start, shard.end)
            ordered("shard transfer", shard.end, shard.transfer_end)
            ordered("shard/ep-end", shard.transfer_end, r.ep_transfer_end)
        # A request's shards share one FIFO channel: its transfer ends with the last.
        if r.shards and r.ep_transfer_end != max(shard.transfer_end for shard in r.shards):
            raise TraceInvariantError(
                f"request {r.rid}: E->P transfer end {r.ep_transfer_end} is not its "
                "last shard's transfer end")
        ordered("encode/transfer", r.encode_end, r.ep_transfer_end)
        ordered("transfer/prefill", r.ep_transfer_end, r.prefill_start)
        ordered("prefill run", r.prefill_start, r.prefill_end)
        ordered("prefill/first token", r.prefill_end, r.first_token_time)
        ordered("first token/pd", r.first_token_time, r.pd_transfer_end)
        ordered("first token/completion", r.first_token_time, r.completion_time)
        if len(r.token_times) != r.output_tokens:
            raise TraceInvariantError(
                f"request {r.rid}: {len(r.token_times)} token times for "
                f"{r.output_tokens} output tokens")
        if r.token_times and r.first_token_time != r.token_times[0]:
            raise TraceInvariantError(f"request {r.rid}: first token time mismatch")
        for earlier, later in zip(r.token_times, r.token_times[1:]):
            if later <= earlier:
                raise TraceInvariantError(f"request {r.rid}: token times not strictly increasing")
        if r.token_times and r.completion_time != r.token_times[-1]:
            raise TraceInvariantError(f"request {r.rid}: completion != last token time")

    # --- export -------------------------------------------------------------

    def _event_rows(self) -> list[tuple[float, int, str]]:
        """Every (time, request id, event) row, sorted by time, then id, then event."""
        rows: list[tuple[float, int, str]] = []
        token_labels: list[str] = []  # "token:0", "token:1", ...: one string per index
        for r in self.requests.values():
            rid = r.rid
            rows.append((r.arrival, rid, "arrival"))
            if r.rejected is not None:
                rows.append((r.arrival, rid, f"rejected:{r.rejected}"))
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
                    rows.append((value, rid, label))
            for i in range(len(token_labels), len(r.token_times)):
                token_labels.append(f"token:{i}")
            rows.extend(zip(r.token_times, itertools.repeat(rid), token_labels))
        rows.sort()
        return rows

    def events(self) -> Iterator[tuple[int, str, float]]:
        """Flat (request id, event, time) stream sorted by time then id."""
        return ((rid, event, t) for t, rid, event in self._event_rows())

    def write_events(self, path) -> None:
        """One JSON object per row, ``{"rid": …, "event": …, "time": …}``,
        in the bytes ``json.dumps`` gives each row's dict.

        Every event label is plain ASCII that needs no escaping, and a time
        is written as ``json.dumps`` writes a number. A time is formatted
        once per run of rows that hold the same float object (one decode
        step's tokens share one); equal values are not enough, as 0.0 and
        -0.0 are equal but written apart. Lines go out in fixed-size chunks.
        """
        rows = self._event_rows()
        last = text = None
        with open(path, "w", encoding="utf-8") as handle:
            for start in range(0, len(rows), _CHUNK_ROWS):
                lines = []
                for t, rid, event in rows[start:start + _CHUNK_ROWS]:
                    if t is not last:
                        last, text = t, _json_number(t)
                    lines.append(f'{{"rid": {rid}, "event": "{event}", "time": {text}}}\n')
                handle.write("".join(lines))

    def summary_rows(self) -> list[dict]:
        rows = []
        for r in sorted(self.requests.values(), key=lambda x: x.rid):
            if r.rejected is not None:
                rows.append({"rid": r.rid, "status": f"rejected:{r.rejected}",
                             "arrival": r.arrival, "ttft": "", "tpot": "", "completion": ""})
                continue
            rows.append({"rid": r.rid, "status": "completed", "arrival": r.arrival,
                         "ttft": r.ttft, "tpot": r.tpot, "completion": r.completion_time})
        return rows

    def write_summary(self, path) -> None:
        rows = self.summary_rows()
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(
                handle, fieldnames=["rid", "status", "arrival", "ttft", "tpot", "completion"])
            writer.writeheader()
            writer.writerows(rows)

"""Per-request lifecycle records produced by the simulator."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .controller import SwitchEventRecord


class TraceInvariantError(ValueError):
    """A trace violated a causality or conservation invariant."""


# Lines of events.jsonl formatted before each write.
_CHUNK_ROWS = 8192
# A served request's stage stamps: event labels 1-8, each its attribute less "_time".
_STAMPS = ("encode_start", "encode_end", "ep_transfer_end", "prefill_start",
           "prefill_end", "first_token_time", "pd_transfer_end", "completion_time")
_LINE_END = np.frombuffer(b"}\n", dtype=np.uint8)


def _byte_table(texts: np.ndarray) -> np.ndarray:
    """A bytes array's items as the rows of a uint8 matrix, null-padded."""
    return texts.view(np.uint8).reshape(len(texts), texts.itemsize)


@dataclass(slots=True)
class ShardRecord:
    worker: int
    patches: int
    end: Optional[float] = None
    transfer_end: Optional[float] = None


@dataclass(slots=True)
class RequestRecord:
    rid: int
    arrival: float
    output_tokens: int
    rejected: Optional[str] = None
    e_instance: Optional[int] = None
    p_instance: Optional[int] = None
    d_instance: Optional[int] = None
    shards: list[ShardRecord] = field(default_factory=list)
    encode_start: Optional[float] = None
    prefill_start: Optional[float] = None
    pd_transfer_end: Optional[float] = None
    token_times: list[float] = field(default_factory=list)

    @property
    def first_token_time(self) -> Optional[float]:
        """Prefill emits the first token as it ends."""
        return self.token_times[0] if self.token_times else None

    prefill_end = first_token_time

    @property
    def completion_time(self) -> Optional[float]:
        tokens = self.token_times
        return tokens[-1] if tokens and len(tokens) == self.output_tokens else None

    @property
    def ep_transfer_end(self) -> Optional[float]:
        """The shards share one FIFO channel: the transfer ends with the last."""
        return max([s.transfer_end for s in self.shards]) if self.shards else None

    @property
    def encode_end(self) -> Optional[float]:
        """The last shard's end; a fused executor starts prefill as encoding ends."""
        if self.shards:
            return max([s.end for s in self.shards])
        return self.prefill_start if self.encode_start is not None else None

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
class SimTrace:
    requests: dict[int, RequestRecord]
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
            if not r.completed:  # it completes with its last output token
                raise TraceInvariantError(
                    f"request {r.rid}: {len(r.token_times)} token times for "
                    f"{r.output_tokens} output tokens")
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

        # The shards first: the encode and E->P ends are read from them.
        for shard in r.shards:
            if shard.end is None or shard.transfer_end is None:
                raise TraceInvariantError(
                    f"request {r.rid}: shard on worker {shard.worker} never ended or arrived")
            ordered("shard run", r.encode_start, shard.end)
            ordered("shard transfer", shard.end, shard.transfer_end)
        ordered("arrival/encode", r.arrival, r.encode_start)
        ordered("encode start/end", r.encode_start, r.encode_end)
        ordered("transfer/prefill", r.ep_transfer_end, r.prefill_start)
        ordered("prefill run", r.prefill_start, r.prefill_end)
        ordered("first token/pd", r.first_token_time, r.pd_transfer_end)
        if len(r.token_times) > 1:  # decode starts once the KV cache has arrived
            ordered("pd/second token", r.pd_transfer_end, r.token_times[1])
        for earlier, later in zip(r.token_times, r.token_times[1:]):
            if later <= earlier:
                raise TraceInvariantError(f"request {r.rid}: token times not strictly increasing")

    # --- export -------------------------------------------------------------

    def _columns(self):
        """Columns ``(order, values, ranks, codes, rids, labels)``: row ``i``
        is ``(rids[ranks[i]], labels[codes[i]], values[i])``. ``order`` sorts
        by time, id, then label text (``token:10`` first)."""
        records = sorted(self.requests.values(), key=lambda r: r.rid)
        label_codes = {label.removesuffix("_time"): code
                       for code, label in enumerate(("arrival", *_STAMPS))}
        stamp_times, stamp_ranks, stamp_codes = [], [], []
        times = [stamp_times]
        for rank, r in enumerate(records):
            if r.rejected is None:
                stamps = enumerate((r.arrival, *(getattr(r, name) for name in _STAMPS)))
                times.append(r.token_times)
            else:
                code = label_codes.setdefault(f"rejected:{r.rejected}", len(label_codes))
                stamps = ((0, r.arrival), (code, r.arrival))
                times.append(())
            for code, value in stamps:
                if value is not None:
                    stamp_times.append(value)
                    stamp_codes.append(code)
            stamp_ranks += [rank] * (len(stamp_times) - len(stamp_ranks))
        # Token rows follow the stamp rows: no two rows share a sort key.
        counts = np.array([len(tokens) for tokens in times[1:]], dtype=np.int32)
        starts = np.cumsum(counts, dtype=np.int32) - counts - len(label_codes)
        codes = np.concatenate((np.array(stamp_codes, dtype=np.int32), np.arange(
            counts.sum(), dtype=np.int32) - np.repeat(starts, counts)))
        ranks = np.concatenate((np.array(stamp_ranks, dtype=np.int32),
                                np.repeat(np.arange(len(counts), dtype=np.int32), counts)))
        labels = [*label_codes, *(f"token:{i}" for i in range(counts.max(initial=0)))]
        text_rank = np.argsort(np.argsort(labels)).astype(np.int32)
        values = np.fromiter(itertools.chain.from_iterable(times), np.float64, len(codes))
        order = np.lexsort((text_rank[codes], ranks, values))
        return order, values, ranks, codes, [r.rid for r in records], labels

    def write_events(self, path) -> None:
        """One JSON object per row, ``{"rid": …, "event": …, "time": …}``,
        in the bytes ``json.dumps`` gives each row's dict with its time as a
        float (an int time is written as its float). A non-finite time raises
        ``ValueError``, before the file is opened: JSON has no number for it.

        A chunk's lines are rows of one null-padded byte matrix, pieced from
        tables of id heads, labels and time texts. A text is formatted once
        per run of equal bits, so 0.0 and -0.0 are written apart.
        """
        order, values, ranks, codes, rids, labels = self._columns()
        if not np.isfinite(values).all():
            raise ValueError("an event time is not finite")
        heads = _byte_table(np.array([f'{{"rid": {rid}, "event": "' for rid in rids], "S"))
        tails = _byte_table(np.array([f'{label}", "time": ' for label in labels], "S"))
        with open(path, "wb") as handle:
            for start in range(0, len(order), _CHUNK_ROWS):
                rows = order[start:start + _CHUNK_ROWS]
                bits = values[rows].view(np.int64)
                new = np.concatenate(([True], bits[1:] != bits[:-1]))
                # At most 24 characters a float repr, filled without a list of them:
                # a list per chunk fragments the heap (+8 MB peak RSS, decode-switch).
                texts = np.fromiter(map(float.__repr__, values[rows[new]].tolist()), "S24",
                                    np.count_nonzero(new))
                stamps = _byte_table(texts)[np.cumsum(new) - 1]
                ends = np.broadcast_to(_LINE_END, (len(rows), 2))
                lines = np.concatenate((heads[ranks[rows]], tails[codes[rows]], stamps, ends),
                                       axis=1).ravel()
                handle.write(lines[lines != 0])

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

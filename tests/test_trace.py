"""``RequestRecord`` stores each time once and reads the others from it."""

import pytest

from disaggsim.trace import RequestRecord, ShardRecord

DERIVED = ("first_token_time", "prefill_end", "completion_time", "ep_transfer_end", "encode_end")


def test_a_record_stores_only_the_times_nothing_else_fixes():
    assert RequestRecord.__slots__ == (
        "rid", "arrival", "output_tokens", "rejected", "e_instance", "p_instance",
        "d_instance", "shards", "encode_start", "prefill_start", "pd_transfer_end",
        "token_times")
    rec = RequestRecord(rid=0, arrival=0.0, output_tokens=1)
    for name in DERIVED:
        with pytest.raises(AttributeError):
            setattr(rec, name, 1.0)


def test_sharded_request_reads_its_ends_from_its_shards():
    """The shards share one FIFO channel: the E→P transfer ends with the last
    one sent, and encoding ends with the last shard to finish, whichever
    worker that is. A request completes with its last output token."""
    rec = RequestRecord(rid=0, arrival=0.0, output_tokens=3, encode_start=0.25,
                        shards=[ShardRecord(worker=0, patches=2, end=1.0, transfer_end=1.5),
                                ShardRecord(worker=1, patches=1, end=0.75, transfer_end=2.0)],
                        prefill_start=2.0, pd_transfer_end=3.5, token_times=[3.0, 4.0])
    assert [getattr(rec, name) for name in DERIVED] == [3.0, 3.0, None, 2.0, 1.0]
    assert not rec.completed
    rec.token_times.append(5.0)
    assert rec.completion_time == 5.0 and rec.completed
    assert (rec.ttft, rec.tpot) == (3.0, 1.0)


def test_fused_request_ends_encoding_as_prefill_starts():
    fused = RequestRecord(rid=0, arrival=0.0, output_tokens=1, encode_start=0.5,
                          prefill_start=1.25, token_times=[2.0])
    assert [getattr(fused, name) for name in DERIVED] == [2.0, 2.0, 2.0, None, 1.25]
    prefill_only = RequestRecord(rid=1, arrival=0.0, output_tokens=1, prefill_start=1.25)
    assert [getattr(prefill_only, name) for name in DERIVED] == [None] * 5

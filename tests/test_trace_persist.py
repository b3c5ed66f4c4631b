"""Tests for binary HMTT trace persistence."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import TraceRecord
from repro.trace.persist import (
    RECORD_BYTES,
    TraceFormatError,
    load_trace,
    write_trace,
)

records_strategy = st.lists(
    st.builds(
        TraceRecord,
        seq=st.integers(0, 255),
        timestamp=st.integers(0, 255),
        is_write=st.booleans(),
        paddr=st.integers(0, (1 << 40) - 1),
    ),
    max_size=200,
)


class TestRoundTrip:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.hmtt"
        records = [
            TraceRecord(seq=i, timestamp=i * 2 % 256, is_write=i % 3 == 0,
                        paddr=i << 12)
            for i in range(100)
        ]
        written = write_trace(path, records)
        assert written == 100
        assert load_trace(path) == records

    def test_stream_round_trip(self):
        buffer = io.BytesIO()
        records = [TraceRecord(1, 2, True, 0x123456789A)]
        write_trace(buffer, records)
        buffer.seek(0)
        assert load_trace(buffer) == records

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.hmtt"
        assert write_trace(path, []) == 0
        assert load_trace(path) == []

    @given(records_strategy)
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, records):
        buffer = io.BytesIO()
        write_trace(buffer, records)
        buffer.seek(0)
        assert load_trace(buffer) == records

    def test_record_size_is_8_bytes(self):
        buffer = io.BytesIO()
        write_trace(buffer, [TraceRecord(0, 0, False, 0)])
        # Header (5 bytes) + one packed record.
        assert len(buffer.getvalue()) == 5 + RECORD_BYTES


class TestErrors:
    def test_bad_header_rejected(self):
        with pytest.raises(TraceFormatError, match="header"):
            load_trace(io.BytesIO(b"NOPE\x01" + b"\x00" * 8))

    def test_truncated_record_rejected(self):
        buffer = io.BytesIO()
        write_trace(buffer, [TraceRecord(0, 0, False, 0)])
        data = buffer.getvalue()[:-3]
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace(io.BytesIO(data))

    def test_oversized_paddr_rejected(self):
        with pytest.raises(TraceFormatError, match="40-bit"):
            write_trace(io.BytesIO(), [TraceRecord(0, 0, False, 1 << 40)])


class TestIntegrationWithTracer:
    def test_captured_trace_persists(self, tmp_path):
        from repro.memsim.controller import MemoryController
        from repro.trace.hmtt import HmttTracer

        mc = MemoryController()
        tracer = HmttTracer()
        tracer.attach(mc)
        for i in range(50):
            mc.access(float(i), i << 12, is_write=(i % 7 == 0))
        path = tmp_path / "captured.hmtt"
        write_trace(path, tracer.ring.drain())
        loaded = load_trace(path)
        assert len(loaded) == 50
        assert [r.ppn for r in loaded] == list(range(50))

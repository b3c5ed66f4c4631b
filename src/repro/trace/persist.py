"""Binary persistence for HMTT-format traces.

The prototype persists captured traces to SSD for offline study
(Section V; the Table II / Figure 2-3 analyses run on such files).
Records are packed little-endian: 1-byte sequence number, 1-byte
timestamp, 1-byte flags (bit 0 = write), 5-byte physical address —
8 bytes per record, mirroring the hardware's compact format.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, List, Union

from repro.common.types import TraceRecord

#: seq (B), timestamp (B), flags (B), paddr (5 bytes, little-endian).
RECORD_BYTES = 8
_HEADER = b"HMTT\x01"
_MAX_PADDR = (1 << 40) - 1


class TraceFormatError(ValueError):
    """The file is not a valid HMTT trace."""


def write_trace(
    destination: Union[str, Path, BinaryIO], records: Iterable[TraceRecord]
) -> int:
    """Write records; returns how many were written."""
    own = isinstance(destination, (str, Path))
    stream: BinaryIO = open(destination, "wb") if own else destination
    try:
        stream.write(_HEADER)
        count = 0
        for record in records:
            if not 0 <= record.paddr <= _MAX_PADDR:
                raise TraceFormatError(
                    f"paddr {record.paddr:#x} exceeds the 40-bit field"
                )
            flags = 1 if record.is_write else 0
            stream.write(
                struct.pack(
                    "<BBB", record.seq & 0xFF, record.timestamp & 0xFF, flags
                )
            )
            stream.write(record.paddr.to_bytes(5, "little"))
            count += 1
        return count
    finally:
        if own:
            stream.close()


def read_trace(source: Union[str, Path, BinaryIO]) -> Iterator[TraceRecord]:
    """Stream records back from a trace file."""
    own = isinstance(source, (str, Path))
    stream: BinaryIO = open(source, "rb") if own else source
    try:
        header = stream.read(len(_HEADER))
        if header != _HEADER:
            raise TraceFormatError("missing HMTT trace header")
        while True:
            chunk = stream.read(RECORD_BYTES)
            if not chunk:
                return
            if len(chunk) != RECORD_BYTES:
                raise TraceFormatError("truncated trace record")
            seq, timestamp, flags = struct.unpack("<BBB", chunk[:3])
            paddr = int.from_bytes(chunk[3:], "little")
            yield TraceRecord(
                seq=seq,
                timestamp=timestamp,
                is_write=bool(flags & 1),
                paddr=paddr,
            )
    finally:
        if own:
            stream.close()


def load_trace(source: Union[str, Path, BinaryIO]) -> List[TraceRecord]:
    return list(read_trace(source))

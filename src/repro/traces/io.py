"""Trace serialization.

Traces save to compressed ``.npz`` (columnar numpy arrays — compact and
fast) so expensive generations (long runs, real graph-engine traces) can
be reused across sessions, shared, or inspected offline.  A ChampSim-like
one-record-per-line text format is also provided for eyeballing and for
interop with external tooling.
"""

from __future__ import annotations

import pathlib
from typing import Union

import numpy as np

from repro.traces.trace import MemoryAccess, Trace

PathLike = Union[str, pathlib.Path]

_FORMAT_VERSION = 1


def save_trace(trace: Trace, path: PathLike) -> None:
    """Write *trace* to a compressed ``.npz`` file."""
    n = len(trace)
    pcs = np.empty(n, dtype=np.uint64)
    addresses = np.empty(n, dtype=np.uint64)
    gaps = np.empty(n, dtype=np.uint32)
    flags = np.empty(n, dtype=np.uint8)  # bit0 write, bit1 dependent
    for i, acc in enumerate(trace):
        pcs[i] = acc.pc
        addresses[i] = acc.address
        gaps[i] = acc.instr_gap
        flags[i] = (1 if acc.is_write else 0) | \
            (2 if acc.dependent else 0)
    np.savez_compressed(
        path, version=np.int64(_FORMAT_VERSION),
        name=np.array(trace.name), pc=pcs, address=addresses,
        instr_gap=gaps, flags=flags)


def load_trace(path: PathLike) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported trace format version {version}")
        name = str(data["name"])
        pcs = data["pc"]
        addresses = data["address"]
        gaps = data["instr_gap"]
        flags = data["flags"]
    records = [
        MemoryAccess(pc=int(pcs[i]), address=int(addresses[i]),
                     is_write=bool(flags[i] & 1),
                     instr_gap=int(gaps[i]),
                     dependent=bool(flags[i] & 2))
        for i in range(len(pcs))
    ]
    return Trace(name, records)


def save_trace_text(trace: Trace, path: PathLike) -> None:
    """Write a human-readable text trace.

    Format (one access per line)::

        <pc hex> <address hex> <R|W> <instr_gap> [D]
    """
    with open(path, "w") as fh:
        fh.write(f"# trace {trace.name} ({len(trace)} accesses)\n")
        for acc in trace:
            kind = "W" if acc.is_write else "R"
            dep = " D" if acc.dependent else ""
            fh.write(f"{acc.pc:#x} {acc.address:#x} {kind} "
                     f"{acc.instr_gap}{dep}\n")


def load_trace_text(path: PathLike, name: str = "") -> Trace:
    """Read a text trace written by :func:`save_trace_text`."""
    records = []
    trace_name = name
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if not trace_name and "trace " in line:
                    trace_name = line.split("trace ", 1)[1].split(" (")[0]
                continue
            parts = line.split()
            if len(parts) < 4:
                raise ValueError(f"malformed trace line: {line!r}")
            records.append(MemoryAccess(
                pc=int(parts[0], 16),
                address=int(parts[1], 16),
                is_write=parts[2] == "W",
                instr_gap=int(parts[3]),
                dependent=len(parts) > 4 and parts[4] == "D"))
    return Trace(trace_name or str(path), records)


def trace_checksum(trace: Trace) -> int:
    """Order-sensitive checksum for round-trip verification."""
    value = 0xCBF29CE484222325
    mask = (1 << 64) - 1
    for acc in trace:
        for part in (acc.pc, acc.address, acc.instr_gap,
                     int(acc.is_write), int(acc.dependent)):
            value ^= part & mask
            value = (value * 0x100000001B3) & mask
    return value

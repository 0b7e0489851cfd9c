"""The DRAM controller: channel/bank mapping, row buffers, queues.

Reads return a latency the requesting core observes; writes (LLC
writebacks) consume channel bandwidth — pushing out subsequent reads —
without stalling any core directly, which is how heavy-WPKI policies
(Mockingjay, Table 5) pay for their writeback appetite.

Scheduling approximates FR-FCFS with two terms: an open-page row buffer
per bank (row hits cost tCAS, conflicts tRP+tRCD+tCAS) and a per-channel
bus that serialises transfers (queue wait = time until the channel bus is
free).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.signature import mix64
from repro.dram.timing import DRAMTiming

BLOCK_BYTES = 64


@dataclass
class DRAMStats:
    """Aggregate controller counters."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    total_read_latency: int = 0
    queue_wait_cycles: int = 0

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    @property
    def average_read_latency(self) -> float:
        return self.total_read_latency / self.reads if self.reads else 0.0


class _Bank:
    __slots__ = ("open_row",)

    def __init__(self) -> None:
        self.open_row = -1


class _Channel:
    __slots__ = ("banks", "bus_free_at", "pending_writes")

    def __init__(self, num_banks: int) -> None:
        self.banks = [_Bank() for _ in range(num_banks)]
        self.bus_free_at = 0
        self.pending_writes = 0


class DRAMController:
    """Multi-channel DRAM behind the LLC.

    Writes are buffered in a per-channel write queue and drained in bus
    idle gaps; only when the queue crosses its watermark (paper Table 4:
    7/8 of a 32-entry queue) does a forced drain delay reads.  This is
    what lets write-heavy policies (Mockingjay's dirty deprioritisation,
    Table 5) raise WPKI without throttling every read.

    Args:
        num_channels: paper baseline is one channel per four cores.
        banks_per_channel: open-page banks per channel.
        timing: latency constants.
        write_queue_depth: per-channel write buffer entries.
        write_watermark: forced-drain threshold as a fraction of depth.
    """

    def __init__(self, num_channels: int = 1, banks_per_channel: int = 8,
                 timing: DRAMTiming = DRAMTiming(),
                 write_queue_depth: int = 32,
                 write_watermark: float = 7 / 8):
        if num_channels < 1:
            raise ValueError(f"need >= 1 channel, got {num_channels}")
        if banks_per_channel < 1:
            raise ValueError(f"need >= 1 bank, got {banks_per_channel}")
        self.num_channels = num_channels
        self.banks_per_channel = banks_per_channel
        self.timing = timing
        self.write_queue_depth = write_queue_depth
        self._watermark = max(1, int(write_queue_depth * write_watermark))
        self._channels = [_Channel(banks_per_channel)
                          for _ in range(num_channels)]
        self.stats = DRAMStats()
        self._blocks_per_row = max(1, timing.row_buffer_bytes // BLOCK_BYTES)
        # The timing is frozen: read its derived values once.
        self._row_hit_latency = timing.row_hit_latency
        self._row_miss_latency = timing.row_miss_latency
        self._drain_cycles = max(1, timing.burst_cycles)

    # ------------------------------------------------------------------
    def _map(self, block: int):
        """(channel, bank, row) for a block: rows stay contiguous so
        streaming gets row hits; channel/bank interleave by row hash."""
        row = block // self._blocks_per_row
        hashed = mix64(row)
        channel = hashed % self.num_channels
        bank = (hashed >> 8) % self.banks_per_channel
        return channel, bank, row

    # ------------------------------------------------------------------
    def read(self, block: int, now: int) -> int:
        """Fetch a line; returns the latency the requester observes."""
        channel_id, bank_id, row = self._map(block)
        channel = self._channels[channel_id]
        bank = channel.banks[bank_id]
        stats = self.stats
        if bank.open_row == row:
            array_latency = self._row_hit_latency
            stats.row_hits += 1
        else:
            array_latency = self._row_miss_latency
            stats.row_misses += 1
            bank.open_row = row

        # Drain buffered writes into idle bus time; past the watermark
        # a forced drain delays this read.
        burst = self.timing.burst_cycles
        free_at = channel.bus_free_at
        pending = channel.pending_writes
        if now > free_at:
            pending -= min(pending, (now - free_at) // self._drain_cycles)
        forced_drain = 0
        if pending > self._watermark:
            forced_drain = (pending - self._watermark) * burst
            pending = self._watermark
        channel.pending_writes = pending

        queue_wait = forced_drain + (free_at - now if free_at > now else 0)
        stats.queue_wait_cycles += queue_wait
        channel.bus_free_at = now + queue_wait + burst
        latency = queue_wait + array_latency + burst
        stats.reads += 1
        stats.total_read_latency += latency
        return latency

    def write(self, block: int, now: int) -> None:
        """Post an LLC writeback; consumes bandwidth, returns immediately.

        The write is queued; the bus carries it later, in an idle gap
        before a read or in a forced drain.
        """
        channel_id, bank_id, row = self._map(block)
        channel = self._channels[channel_id]
        bank = channel.banks[bank_id]
        if bank.open_row == row:
            self.stats.row_hits += 1
        else:
            self.stats.row_misses += 1
            bank.open_row = row
        self.stats.writes += 1
        channel.pending_writes += 1

    def publish_stats(self, registry, prefix: str = "dram") -> None:
        """Register controller counters with a ``StatsRegistry``."""
        registry.register_many(prefix, self,
                               ["reads", "writes", "row_hits", "row_misses",
                                "queue_wait_cycles"])
        registry.register(f"{prefix}.row_hit_rate",
                          lambda: self.stats.row_hit_rate)
        registry.register(f"{prefix}.avg_read_latency",
                          lambda: self.stats.average_read_latency)

    def reset_stats(self) -> None:
        self.stats = DRAMStats()

    def __repr__(self) -> str:
        return (f"DRAMController({self.num_channels} ch x "
                f"{self.banks_per_channel} banks)")

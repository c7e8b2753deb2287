"""Functional and timing memory models.

Functional state lives in :class:`GlobalMemory` / :class:`SharedMemory`:
sparse dict-backed word storage whose unwritten locations return a
deterministic hash of the address, so synthetic workloads get stable
"input data" without materializing arrays. Spilled registers round-trip
through real stores and loads, which the spill baseline depends on.

Timing lives in :class:`MemoryUnit`: a fixed-latency pipe with a
bandwidth limit of ``mem_requests_per_cycle`` — requests beyond the
bandwidth queue up, which is what makes memory-heavy kernels (and the
compiler-spill baseline with its fill/spill storm) slow down.
"""

from __future__ import annotations

import numpy as np

#: Knuth multiplicative hash constant for synthetic memory contents.
_HASH = 2654435761
_MASK = (1 << 31) - 1


class GlobalMemory:
    """Word-addressed global memory shared by every CTA."""

    def __init__(self):
        self._store: dict[int, int] = {}

    def load(self, addrs: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Vector load; inactive lanes return zero."""
        values = (addrs * _HASH) & _MASK
        if self._store:
            flat = addrs.tolist()
            store = self._store
            for lane, addr in enumerate(flat):
                if mask[lane] and addr in store:
                    values[lane] = store[addr]
        return np.where(mask, values, 0)

    def load_into(self, addrs: np.ndarray, mask: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
        """Vector load staged into a caller-owned buffer.

        Same values as :meth:`load` on *active* lanes; inactive lanes
        hold unspecified data. Callers merge the result under ``mask``
        (the in-place write invariants in docs/INTERNALS.md), which is
        what lets the vector engines skip the fresh result array and
        ``np.where`` zero-fill per dynamic load.
        """
        np.multiply(addrs, _HASH, out=out)
        np.bitwise_and(out, _MASK, out=out)
        if self._store:
            flat = addrs.tolist()
            store = self._store
            for lane, addr in enumerate(flat):
                if mask[lane] and addr in store:
                    out[lane] = store[addr]
        return out

    def store(self, addrs: np.ndarray, values: np.ndarray,
              mask: np.ndarray) -> None:
        store = self._store
        for lane in np.nonzero(mask)[0]:
            store[int(addrs[lane])] = int(values[lane])

    def peek(self, addr: int) -> int:
        """Scalar read used by tests."""
        if addr in self._store:
            return self._store[addr]
        return (addr * _HASH) & _MASK

    def image(self) -> dict[int, int]:
        """Copy of the written words."""
        return dict(self._store)

    def __len__(self) -> int:
        return len(self._store)


class SharedMemory(GlobalMemory):
    """Per-CTA scratchpad; unwritten locations read as zero."""

    def load(self, addrs: np.ndarray, mask: np.ndarray) -> np.ndarray:
        values = np.zeros_like(addrs)
        if self._store:
            flat = addrs.tolist()
            store = self._store
            for lane, addr in enumerate(flat):
                if mask[lane] and addr in store:
                    values[lane] = store[addr]
        return values

    def load_into(self, addrs: np.ndarray, mask: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
        out.fill(0)
        if self._store:
            flat = addrs.tolist()
            store = self._store
            for lane, addr in enumerate(flat):
                if mask[lane] and addr in store:
                    out[lane] = store[addr]
        return out

    def peek(self, addr: int) -> int:
        return self._store.get(addr, 0)


class MemoryUnit:
    """Latency + bandwidth timing model for global memory requests.

    Accepts at most ``requests_per_cycle`` new requests per cycle; an
    over-subscribed unit pushes the service start time forward, so the
    completion time of a request is::

        floor(max(now, last_slot + 1/bw)) + latency

    Service slots are tracked as an exact integer numerator in units of
    ``1/bw`` cycles rather than as accumulated floats: repeated float
    ``+= 1/bw`` drifts for non-power-of-two bandwidths (three ``1/3``
    additions sum to just under 1.0), which would return completion
    cycles one early and hand the cycle-skipping engine an off-by-one
    jump target. ``tests/test_sim_memory.py`` pins the drift case and
    property-tests the formulation for bw <= 8.
    """

    def __init__(self, latency: int, requests_per_cycle: int = 1):
        self.latency = latency
        self.bandwidth = max(1, requests_per_cycle)
        #: Next free service slot, in 1/bandwidth cycle units.
        self._next_numerator = 0
        self.requests = 0

    def request(self, now: int) -> int:
        """Schedule one request; returns its completion cycle."""
        start = max(now * self.bandwidth, self._next_numerator)
        self._next_numerator = start + 1
        self.requests += 1
        # floor(start/bw + latency) == start // bw + latency for
        # integer latency: the request completes ``latency`` cycles
        # after the cycle its service slot falls in.
        return start // self.bandwidth + self.latency

    @property
    def interval(self) -> float:
        """Cycles between service slots (compat accessor)."""
        return 1.0 / self.bandwidth

    @property
    def busy_until(self) -> float:
        """First cycle with a free service slot (fractional)."""
        return self._next_numerator / self.bandwidth

"""Zig-zag scanning and (LAST, RUN, LEVEL) event conversion.

H.263 codes each 8x8 block's quantized coefficients as a sequence of
events ``(LAST, RUN, LEVEL)``: RUN zeros followed by a non-zero LEVEL,
with LAST = 1 on the final event of the block.  A coded block always
contains at least one event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOCK = 8


def _build_zigzag(n: int) -> np.ndarray:
    """Classic zig-zag order as an array of flat indices."""
    order = sorted(
        ((r, c) for r in range(n) for c in range(n)),
        # Odd anti-diagonals run top-right → bottom-left (ascending row),
        # even ones the opposite (ascending column) — the JPEG/H.263 scan.
        key=lambda rc: (rc[0] + rc[1], rc[0] if (rc[0] + rc[1]) % 2 else rc[1]),
    )
    return np.array([r * n + c for r, c in order], dtype=np.int64)


#: Flat indices of the 8x8 zig-zag scan.
ZIGZAG_INDEX = _build_zigzag(BLOCK)

#: Inverse permutation: position in the scan for each flat index.
INVERSE_ZIGZAG_INDEX = np.argsort(ZIGZAG_INDEX)


@dataclass(frozen=True)
class CoefficientEvent:
    """One (LAST, RUN, LEVEL) event."""

    last: bool
    run: int
    level: int

    def __post_init__(self) -> None:
        if not 0 <= self.run <= 63:
            raise ValueError(f"run must be in 0..63, got {self.run}")
        if self.level == 0:
            raise ValueError("event level must be non-zero")


def scan(block: np.ndarray) -> np.ndarray:
    """Zig-zag a (8, 8) array into a length-64 vector."""
    b = np.asarray(block)
    if b.shape != (BLOCK, BLOCK):
        raise ValueError(f"block must be 8x8, got {b.shape}")
    return b.reshape(-1)[ZIGZAG_INDEX]


def unscan(vector: np.ndarray) -> np.ndarray:
    """Inverse of :func:`scan`."""
    v = np.asarray(vector)
    if v.shape != (BLOCK * BLOCK,):
        raise ValueError(f"vector must have 64 entries, got {v.shape}")
    return v[INVERSE_ZIGZAG_INDEX].reshape(BLOCK, BLOCK)


def block_to_events(levels: np.ndarray, skip_first: int = 0) -> list[CoefficientEvent]:
    """Convert a quantized 8x8 block to its event list.

    ``skip_first = 1`` omits the DC position (intra blocks code DC
    separately).  Returns an empty list for an all-zero (AC) block.
    """
    if skip_first not in (0, 1):
        raise ValueError(f"skip_first must be 0 or 1, got {skip_first}")
    scanned = scan(np.asarray(levels, dtype=np.int64))[skip_first:]
    nz = np.nonzero(scanned)[0]
    events: list[CoefficientEvent] = []
    prev = -1
    for idx in nz.tolist():
        events.append(CoefficientEvent(last=False, run=idx - prev - 1, level=int(scanned[idx])))
        prev = idx
    if events:
        last = events[-1]
        events[-1] = CoefficientEvent(last=True, run=last.run, level=last.level)
    return events


def events_to_block(events: list[CoefficientEvent], skip_first: int = 0) -> np.ndarray:
    """Rebuild the quantized 8x8 block from its event list.

    Validates the H.263 structure: LAST set exactly on the final event,
    and the coefficients must fit in the block.
    """
    if skip_first not in (0, 1):
        raise ValueError(f"skip_first must be 0 or 1, got {skip_first}")
    vector = np.zeros(BLOCK * BLOCK, dtype=np.int64)
    pos = skip_first
    for i, event in enumerate(events):
        is_final = i == len(events) - 1
        if event.last != is_final:
            raise ValueError(f"event {i}: LAST={event.last} but is_final={is_final}")
        pos += event.run
        if pos >= BLOCK * BLOCK:
            raise ValueError(f"events overflow the block at scan position {pos}")
        vector[pos] = event.level
        pos += 1
    return unscan(vector)

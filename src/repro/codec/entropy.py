"""Whole-picture entropy coding: a picture body as arrays, packed in
one pass.

Every input to a picture body is known before its first bit is written
— the level grid, and the per-macroblock intra modes or the motion
field and reference indices — so the encoder codes each body syntax as
array code instead of a macroblock walk:

1. every syntax element becomes a ``(value, length)`` field array:
   COD, MCBPC and CBPY from the tables compiled once into dense arrays,
   ``ue(ref)``, the MVDs against
   :func:`~repro.codec.mv_coding.predict_mv_arrays`, and one TCOEF
   field per (LAST, RUN, LEVEL) event from a single ``nonzero`` over
   the level grid, put in zig-zag order (:func:`tcoef_fields`; escapes
   are a separate fixed-length branch);
2. :func:`_write_fields` scatters the fields into bitstream order — per
   macroblock its header fields, then each of its six blocks (the
   seed I-frame's 8-bit DC level, then the events);
3. :func:`pack_fields` ORs them into uint64 words, one shift per field,
   and the body reaches the writer in one ``write_bits`` call.

Memory is O(fields), not O(bits).  The per-symbol writer the packer is
checked against bit for bit, ledger included, is
:func:`repro.reference.write_picture_body`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.codec.bitstream import BitWriter
from repro.codec.intra import INTRA_MODE_BITS
from repro.codec.macroblock import coded_block_patterns
from repro.codec.mv_coding import predict_mv_arrays
from repro.codec.vlc import VLCTable, se_golomb_arrays, ue_golomb_arrays
from repro.codec.vlc_tables import (
    CBPY_TABLE,
    ESCAPE,
    ESCAPE_PAYLOAD_BITS,
    MCBPC_TABLE,
    TCOEF_MAX_LEVEL,
    TCOEF_MAX_RUN,
    TCOEF_TABLE,
)
from repro.codec.zigzag import BLOCK, INVERSE_ZIGZAG_INDEX


class BodyBits(NamedTuple):
    """The rate ledger of one picture body: skipped macroblocks, MVD
    bits and TCOEF bits (everything else in the body is mode bits)."""

    skipped: int
    mv_bits: int
    coefficient_bits: int


def _compile(table: VLCTable, symbols) -> tuple[np.ndarray, np.ndarray]:
    """``table``'s codes for ``symbols`` as dense value and length arrays."""
    codes = [table.encode(symbol) for symbol in symbols]
    return np.array([v for v, _ in codes], dtype=np.int64), np.array([n for _, n in codes], dtype=np.int64)


_MCBPC_VALUE, _MCBPC_LENGTH = _compile(MCBPC_TABLE, range(4))
_CBPY_VALUE, _CBPY_LENGTH = _compile(CBPY_TABLE, range(16))
#: TCOEF codes indexed by ``(LAST * (TCOEF_MAX_RUN + 1) + RUN) *
#: TCOEF_MAX_LEVEL + |LEVEL| - 1``.
_TCOEF_VALUE, _TCOEF_LENGTH = _compile(
    TCOEF_TABLE,
    [
        (last, run, level)
        for last in (0, 1)
        for run in range(TCOEF_MAX_RUN + 1)
        for level in range(1, TCOEF_MAX_LEVEL + 1)
    ],
)
_ESCAPE_VALUE, _ESCAPE_LENGTH = TCOEF_TABLE.encode(ESCAPE)


def tcoef_fields(levels: np.ndarray, skip_first: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TCOEF fields of every block of a ``(..., 8, 8)`` level grid.

    Returns ``(block, values, lengths)``, one entry per (LAST, RUN,
    LEVEL) event, blocks in C order and events in scan order: the flat
    index of the event's block and its field — the table code with the
    sign bit appended, or for an event outside the table (RUN above
    ``TCOEF_MAX_RUN`` or ``|LEVEL|`` above ``TCOEF_MAX_LEVEL``) the
    escape code, LAST, 6-bit RUN and 8-bit two's-complement LEVEL.  A
    block's fields concatenate to exactly the bits
    ``write_events(writer, block_to_events(block, skip_first))`` writes;
    ``skip_first = 1`` leaves the DC position out (intra blocks code DC
    separately).
    """
    if skip_first not in (0, 1):
        raise ValueError(f"skip_first must be 0 or 1, got {skip_first}")
    lv = np.asarray(levels)
    if lv.shape[-2:] != (BLOCK, BLOCK):
        raise ValueError(f"level grid must end in (8, 8), got {lv.shape}")
    flat = lv.ravel()
    # Nonzero levels in raster order, then sorted into (block, scan
    # position) order: sorting the few nonzero entries beats gathering
    # the whole grid into zig-zag order first.
    at = np.flatnonzero(flat)
    pos = INVERSE_ZIGZAG_INDEX[at & 63] - skip_first
    if skip_first:
        keep = pos >= 0
        at, pos = at[keep], pos[keep]
    order = np.argsort(at - (at & 63) + pos)
    at, pos = at[order], pos[order]
    block = at >> 6
    level = flat[at].astype(np.int64)
    last = np.ones(block.size, dtype=np.int64)
    last[:-1] = block[1:] != block[:-1]
    prev = np.empty_like(pos)
    prev[1:] = pos[:-1]
    prev[np.flatnonzero(last[:-1]) + 1] = -1
    prev[:1] = -1
    run = pos - prev - 1
    magnitude = np.abs(level)
    in_table = (run <= TCOEF_MAX_RUN) & (magnitude <= TCOEF_MAX_LEVEL)
    index = (last * (TCOEF_MAX_RUN + 1) + np.minimum(run, TCOEF_MAX_RUN)) * TCOEF_MAX_LEVEL
    index += np.minimum(magnitude, TCOEF_MAX_LEVEL) - 1
    escape = (_ESCAPE_VALUE << ESCAPE_PAYLOAD_BITS) | (last << 14) | (run << 8) | (level & 0xFF)
    values = np.where(in_table, (_TCOEF_VALUE[index] << 1) | (level < 0), escape)
    lengths = np.where(in_table, _TCOEF_LENGTH[index] + 1, _ESCAPE_LENGTH + ESCAPE_PAYLOAD_BITS)
    return block, values, lengths


def pack_fields(values: np.ndarray, lengths: np.ndarray) -> tuple[int, int]:
    """Concatenate ``(value, length)`` fields MSB first into one
    ``(value, nbits)`` pair for :meth:`BitWriter.write_bits`.

    Every field is at most 64 bits, so it lands in the uint64 word
    holding its first bit, shifted into place, and at most spills its
    low bits into the next word; each word is the OR of its fields.
    Zero-length fields write nothing.
    """
    keep = lengths > 0
    values = values[keep].astype(np.uint64)
    lengths = lengths[keep]
    ends = np.cumsum(lengths)
    nbits = int(ends[-1]) if ends.size else 0
    if not nbits:
        return 0, 0
    starts = ends - lengths
    word = starts >> 6
    over = (starts & 63) + lengths - 64  # > 0: bits that spill into the next word
    spill = over > 0
    head = np.where(
        spill,
        values >> np.maximum(over, 0).astype(np.uint64),
        values << np.maximum(-over, 0).astype(np.uint64),
    )
    words = np.zeros((nbits + 63) >> 6, dtype=np.uint64)
    first = np.flatnonzero(np.diff(word, prepend=-1))
    words[word[first]] = np.bitwise_or.reduceat(head, first)
    words[word[spill] + 1] |= values[spill] << (64 - over[spill]).astype(np.uint64)
    packed = int.from_bytes(words.astype(">u8").tobytes(), "big")
    return packed >> (64 * words.size - nbits), nbits


def _write_fields(
    writer: BitWriter,
    head_values: np.ndarray,
    head_lengths: np.ndarray,
    events: tuple[np.ndarray, np.ndarray, np.ndarray],
    counts: np.ndarray,
    dc_levels: np.ndarray | None = None,
) -> None:
    """Lay a body's fields out in bitstream order and write them.

    ``head_values``/``head_lengths`` are ``(mbs, slots)``: each
    macroblock's header fields in order (length 0 for an absent one).
    Each macroblock's six blocks follow its header, each block its
    8-bit DC level (``dc_levels``, seed I-frames only) and then its
    ``counts[block]`` TCOEF ``events`` (:func:`tcoef_fields`).
    """
    mbs, slots = head_lengths.shape
    block, event_values, event_lengths = events
    lead = 0 if dc_levels is None else 1
    units = np.empty((mbs, 7), dtype=np.int64)
    units[:, 0] = slots
    units[:, 1:] = counts.reshape(mbs, 6) + lead
    ends = np.cumsum(units.ravel())
    starts = (ends - units.ravel()).reshape(mbs, 7)
    values = np.empty(int(ends[-1]), dtype=np.int64)
    lengths = np.empty_like(values)
    at = starts[:, :1] + np.arange(slots)
    values[at] = head_values
    lengths[at] = head_lengths
    block_start = starts[:, 1:].ravel() + lead
    if dc_levels is not None:
        values[block_start - 1] = dc_levels
        lengths[block_start - 1] = 8
    first_event = np.cumsum(counts) - counts
    at = block_start[block] + np.arange(block.size) - first_event[block]
    values[at] = event_values
    lengths[at] = event_lengths
    writer.write_bits(*pack_fields(values, lengths))


def _coded_blocks(levels: np.ndarray, skip_first: int):
    """TCOEF fields of a ``(mbs * 6)``-block grid, the events per block,
    and the per-MB ``(CBPY, MCBPC)`` they imply."""
    events = tcoef_fields(levels, skip_first)
    mbs = np.asarray(levels).size // (6 * BLOCK * BLOCK)
    counts = np.bincount(events[0], minlength=6 * mbs)
    cbpy, mcbpc = coded_block_patterns(counts.reshape(mbs, 6) > 0)
    return events, counts, cbpy, mcbpc


def write_intra_body(writer: BitWriter, levels: np.ndarray, dc_levels: np.ndarray) -> BodyBits:
    """Seed-syntax I-frame body: per macroblock MCBPC and CBPY, then per
    block its 8-bit DC level and its AC events.  ``levels`` is any
    ``(..., 6, 8, 8)`` grid in macroblock order (the DC positions are
    not read); ``dc_levels`` holds one level per block."""
    events, counts, cbpy, mcbpc = _coded_blocks(levels, skip_first=1)
    _write_fields(
        writer,
        np.stack([_MCBPC_VALUE[mcbpc], _CBPY_VALUE[cbpy]], axis=1),
        np.stack([_MCBPC_LENGTH[mcbpc], _CBPY_LENGTH[cbpy]], axis=1),
        events,
        counts,
        np.asarray(dc_levels, dtype=np.int64).ravel(),
    )
    return BodyBits(0, 0, int(events[2].sum()))


def write_intra_pred_body(writer: BitWriter, levels: np.ndarray, modes: np.ndarray) -> BodyBits:
    """GOP-syntax I-frame body: per macroblock its intra prediction
    mode, MCBPC and CBPY, then the events of its coded blocks."""
    events, counts, cbpy, mcbpc = _coded_blocks(levels, skip_first=0)
    modes = np.asarray(modes, dtype=np.int64).ravel()
    _write_fields(
        writer,
        np.stack([modes, _MCBPC_VALUE[mcbpc], _CBPY_VALUE[cbpy]], axis=1),
        np.stack(
            [np.full_like(modes, INTRA_MODE_BITS), _MCBPC_LENGTH[mcbpc], _CBPY_LENGTH[cbpy]], axis=1
        ),
        events,
        counts,
    )
    return BodyBits(0, 0, int(events[2].sum()))


def write_inter_body(
    writer: BitWriter,
    levels: np.ndarray,
    hx: np.ndarray,
    hy: np.ndarray,
    ref_idx: np.ndarray | None = None,
) -> BodyBits:
    """P-frame body over a ``(rows, cols)`` motion field in half-pel
    units.

    A macroblock predicting from reference 0 with a zero vector and no
    coded block is skipped: COD = 1 and nothing else.  Every other one
    codes COD = 0, MCBPC, CBPY, ``ue(ref)`` when ``ref_idx`` is given
    (extended pictures), the MVD pair against the median predictor of
    the field — skipped macroblocks hold the zero vector in it, as the
    decoder sees them — and the events of its coded blocks.
    """
    hx = np.asarray(hx, dtype=np.int64)
    hy = np.asarray(hy, dtype=np.int64)
    rows, cols = hx.shape
    events, counts, cbpy, mcbpc = _coded_blocks(levels, skip_first=0)
    ref = np.zeros(rows * cols, dtype=np.int64) if ref_idx is None else np.asarray(ref_idx).ravel()
    skip = (cbpy == 0) & (mcbpc == 0) & (hx.ravel() == 0) & (hy.ravel() == 0) & (ref == 0)
    coded = (~skip).astype(np.int64)
    mb_rows, mb_cols = np.divmod(np.arange(rows * cols), cols)
    px, py = predict_mv_arrays(hx, hy, mb_rows, mb_cols)
    mvx_values, mvx_lengths = se_golomb_arrays(hx.ravel() - px)
    mvy_values, mvy_lengths = se_golomb_arrays(hy.ravel() - py)
    ref_values, ref_lengths = ue_golomb_arrays(ref)
    if ref_idx is None:
        ref_lengths = np.zeros_like(ref_lengths)
    head_values = np.stack(
        [skip, _MCBPC_VALUE[mcbpc], _CBPY_VALUE[cbpy], ref_values, mvx_values, mvy_values], axis=1
    )
    head_lengths = np.stack(
        [
            np.ones_like(coded),
            _MCBPC_LENGTH[mcbpc] * coded,
            _CBPY_LENGTH[cbpy] * coded,
            ref_lengths * coded,
            mvx_lengths * coded,
            mvy_lengths * coded,
        ],
        axis=1,
    )
    _write_fields(writer, head_values, head_lengths, events, counts)
    return BodyBits(int(skip.sum()), int(head_lengths[:, 4:].sum()), int(events[2].sum()))

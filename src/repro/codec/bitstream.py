"""Bit-exact bitstream writer and reader.

The encoder counts rate by *writing an actual bitstream*; the matching
:class:`BitReader` lets the decoder (and the round-trip tests) consume
it.  This guarantees the kbit/s numbers in the RD experiments are
emitted bits, not estimates.

Both sides run on a **word-level cursor**: the writer accumulates bits
into a Python int and flushes whole bytes in one ``int.to_bytes`` call;
the reader keeps a shift/mask accumulator refilled eight bytes at a
time with ``int.from_bytes``, so ``read_bits(n)`` / ``skip_bits(n)``
cost a handful of integer operations instead of ``n`` per-bit method
calls.  On top of the plain read/skip surface the reader exposes two
fused primitives the VLC layer's hot loops are built on:

* :meth:`BitReader.read_vlc` — one peek + one lookup-table hit + one
  skip for a whole prefix code (see :class:`repro.codec.vlc.VLCTable`);
* :meth:`BitReader.read_ue` — unsigned exp-Golomb via a single 64-bit
  peek and ``int.bit_length``.

The seed's one-bit-at-a-time reader, which the word-level reader is
checked against, is :class:`repro.reference.ScalarBitReader`.
"""

from __future__ import annotations


class BitWriter:
    """Accumulates bits MSB-first, flushing whole bytes into a bytearray."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._accumulator = 0
        self._filled = 0  # bits currently held in the accumulator (0..7 after flush)
        self._bits_written = 0
        self._drained = 0  # bytes already handed out via drain()

    @property
    def bit_count(self) -> int:
        """Total bits written so far (excluding any final padding)."""
        return self._bits_written

    @property
    def byte_length(self) -> int:
        """Bytes flushed so far, including drained ones.  Only the full
        picture when the writer is byte-aligned (``bit_count % 8 == 0``)
        — the v2 framing layer calls :meth:`align` first, which is what
        makes this usable as a byte offset for :meth:`patch_u32`
        backpatching."""
        return self._drained + len(self._buffer)

    def write_bit(self, bit: int) -> None:
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        self.write_bits(bit, 1)

    def write_bits(self, value: int, count: int) -> None:
        """Write ``count`` bits of ``value``, MSB first.

        ``value`` must satisfy ``0 <= value < 2**count`` — values wider
        than ``count`` raise instead of silently dropping high bits.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if value < 0 or (value >> count):
            raise ValueError(f"value {value} does not fit in {count} bits")
        accumulator = (self._accumulator << count) | value
        filled = self._filled + count
        self._bits_written += count
        if filled >= 8:
            spill = filled & 7
            self._buffer += (accumulator >> spill).to_bytes((filled - spill) >> 3, "big")
            accumulator &= (1 << spill) - 1
            filled = spill
        self._accumulator = accumulator
        self._filled = filled

    def write_code(self, code: "tuple[int, int]") -> None:
        """Write a ``(value, length)`` pair as produced by the VLC layer."""
        value, length = code
        self.write_bits(value, length)

    def write_ue(self, value: int) -> int:
        """Write ``value >= 0`` as an unsigned exp-Golomb code; returns
        its bit length.  Inlined rather than importing the VLC layer's
        :func:`~repro.codec.vlc.ue_golomb_code` so this module stays
        dependency-free."""
        if value < 0:
            raise ValueError(f"ue(v) needs v >= 0, got {value}")
        v = value + 1
        length = 2 * v.bit_length() - 1
        self.write_bits(v, length)
        return length

    def align(self) -> int:
        """Zero-pad to the next byte boundary; returns bits padded."""
        padding = (8 - self._filled) & 7
        if padding:
            self.write_bits(0, padding)
        return padding

    def patch_u32(self, byte_pos: int, value: int) -> None:
        """Overwrite 4 already-flushed bytes with ``value`` big-endian.

        Used by the v2 framing layer to backpatch a frame-length field
        once the frame's payload size is known; the target bytes must be
        fully flushed (i.e. written while byte-aligned).
        """
        if not 0 <= value < (1 << 32):
            raise ValueError(f"value {value} does not fit in 32 bits")
        rel = byte_pos - self._drained
        if rel < 0:
            raise ValueError(
                f"patch range [{byte_pos}, {byte_pos + 4}) was already drained "
                f"(first undrained byte is {self._drained})"
            )
        if rel + 4 > len(self._buffer):
            raise ValueError(
                f"patch range [{byte_pos}, {byte_pos + 4}) outside flushed buffer "
                f"of {self.byte_length} bytes"
            )
        self._buffer[rel : rel + 4] = value.to_bytes(4, "big")

    def drain(self) -> bytes:
        """Hand out every fully flushed byte and drop it from the
        buffer; a trailing partial byte (``bit_count % 8`` bits) stays
        in the accumulator for later writes.

        Byte-streaming callers of
        :meth:`~repro.codec.encoder.Encoder.encode_frames` emit the
        bitstream incrementally through this: concatenating every drained chunk plus the final
        :meth:`getvalue` reproduces the undrained writer's bytes
        exactly.  Byte positions stay *absolute* — :attr:`byte_length`
        keeps counting drained bytes, and :meth:`patch_u32` rejects
        positions that were already handed out.
        """
        out = bytes(self._buffer)
        self._drained += len(out)
        self._buffer.clear()
        return out

    def getvalue(self) -> bytes:
        """The not-yet-drained byte string, zero-padded to a byte
        boundary (the whole stream when :meth:`drain` was never
        called)."""
        out = bytearray(self._buffer)
        if self._filled:
            out.append(self._accumulator << (8 - self._filled))
        return bytes(out)


class BitReader:
    """Reads bits MSB-first from a byte string via a word accumulator.

    Invariant: ``_accumulator`` holds the next ``_acc_bits`` unread bits
    in its low bits (``_accumulator < 2**_acc_bits``); ``_byte_pos`` is
    the next buffer byte to load.  Refills pull up to eight bytes per
    ``int.from_bytes`` call.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._num_bytes = len(data)
        self._accumulator = 0
        self._acc_bits = 0
        self._byte_pos = 0

    @property
    def bits_consumed(self) -> int:
        return 8 * self._byte_pos - self._acc_bits

    @property
    def bits_remaining(self) -> int:
        return 8 * self._num_bytes - self.bits_consumed

    def _refill(self, need: int) -> None:
        byte_pos = self._byte_pos
        while self._acc_bits < need and byte_pos < self._num_bytes:
            chunk = self._data[byte_pos : byte_pos + 8]
            self._accumulator = (self._accumulator << (8 * len(chunk))) | int.from_bytes(
                chunk, "big"
            )
            self._acc_bits += 8 * len(chunk)
            byte_pos += len(chunk)
        self._byte_pos = byte_pos

    def read_bit(self) -> int:
        return self.read_bits(1)

    def read_bits(self, count: int) -> int:
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if self._acc_bits < count:
            self._refill(count)
            if self._acc_bits < count:
                raise EOFError("bitstream exhausted")
        keep = self._acc_bits - count
        value = self._accumulator >> keep
        self._accumulator &= (1 << keep) - 1
        self._acc_bits = keep
        return value

    def skip_bits(self, count: int) -> None:
        """Advance the cursor ``count`` bits (EOFError past the end)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if self._acc_bits < count:
            self._refill(count)
            if self._acc_bits < count:
                raise EOFError("bitstream exhausted")
        self._acc_bits -= count
        self._accumulator &= (1 << self._acc_bits) - 1

    def align(self) -> int:
        """Skip to the next byte boundary; returns bits skipped."""
        padding = (-self.bits_consumed) & 7
        if padding:
            self.skip_bits(padding)
        return padding

    # -- fused decode primitives ----------------------------------------
    #
    # The VLC layer's hot loops collapse to one method call per symbol
    # through these: they manipulate the accumulator with local
    # variables instead of stacking read/peek/skip calls.

    def read_vlc(self, lut: list, first_bits: int):
        """Decode one prefix code via a lookup-table cascade.

        ``lut`` is indexed by the next ``first_bits`` bits; each entry is
        ``(symbol, total_length, None)`` for a direct hit, or
        ``(None, sub_bits, sub_table)`` where ``sub_table`` is the next
        cascade level indexed by the following ``sub_bits`` bits (see
        :meth:`repro.codec.vlc.VLCTable._build_lut`, which compiles
        them).  Codes no longer than ``first_bits`` — the overwhelming
        majority by construction — resolve with a single peek and hit.
        """
        table = lut
        width = first_bits
        total = first_bits
        while True:
            if self._acc_bits < total:
                self._refill(total)
            acc_bits = self._acc_bits
            if acc_bits >= total:
                window = self._accumulator >> (acc_bits - total)
            else:
                window = self._accumulator << (total - acc_bits)
            entry = table[window & ((1 << width) - 1)]
            if entry is None:
                if self.bits_remaining == 0:
                    raise EOFError("bitstream exhausted")
                raise ValueError("invalid prefix: no VLC symbol matches")
            symbol, length, subtable = entry
            if subtable is None:
                break
            table = subtable
            width = length
            total += length
        if length > self._acc_bits:
            # The matched code extends past the real end of the stream
            # (the peek was zero-padded) — after the refills, the
            # accumulator holds every remaining bit, so this is EOF.
            raise EOFError("bitstream exhausted")
        self._acc_bits -= length
        self._accumulator &= (1 << self._acc_bits) - 1
        return symbol

    # -- compiled-kernel seam --------------------------------------------
    #
    # The optional compiled VLC kernels (repro.kernels) parse from a
    # read-only snapshot of the buffer and report how far they got; the
    # two methods below are the whole hand-off surface, keeping this
    # module numpy- and backend-free.

    def cursor(self) -> "tuple[bytes, int]":
        """``(buffer, bit_position)`` snapshot for an external parser."""
        return self._data, self.bits_consumed

    def advance_to(self, bit_pos: int) -> None:
        """Move the cursor forward to an absolute bit position (as
        consumed by an external parser started from :meth:`cursor`)."""
        delta = bit_pos - self.bits_consumed
        if delta < 0:
            raise ValueError(
                f"cannot rewind: cursor at bit {self.bits_consumed}, "
                f"requested bit {bit_pos}"
            )
        self.skip_bits(delta)

    _UE_PEEK_BITS = 64

    def read_ue(self) -> int:
        """Unsigned exp-Golomb in one 64-bit peek.

        Returns the decoded value, or ``-1`` to signal the caller to
        fall back to the bit-at-a-time reference loop (prefix longer
        than the peek window or a malformed/truncated stream — the
        fallback reproduces the seed's exact error behaviour).
        """
        peek = self._UE_PEEK_BITS
        if self._acc_bits < peek:
            self._refill(peek)
        acc_bits = self._acc_bits
        if acc_bits >= peek:
            window = self._accumulator >> (acc_bits - peek)
        else:
            window = self._accumulator << (peek - acc_bits)
        if not window:
            return -1
        zeros = peek - window.bit_length()
        length = 2 * zeros + 1
        if length > peek or length > acc_bits:
            return -1
        code = window >> (peek - length)
        self._acc_bits = acc_bits - length
        self._accumulator &= (1 << self._acc_bits) - 1
        return code - 1


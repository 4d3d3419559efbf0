"""Unit tests for repro.codec.bitstream."""

import pytest

from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.vlc import VLCTable
from repro.reference import ScalarBitReader


class TestBitWriter:
    def test_bit_count_tracks_writes(self):
        w = BitWriter()
        w.write_bit(1)
        w.write_bits(0b101, 3)
        assert w.bit_count == 4

    def test_msb_first_packing(self):
        w = BitWriter()
        w.write_bits(0b10110000, 8)
        assert w.getvalue() == bytes([0b10110000])

    def test_padding_to_byte(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        assert w.getvalue() == bytes([0b10100000])
        assert w.bit_count == 3  # padding not counted

    def test_invalid_bit(self):
        with pytest.raises(ValueError):
            BitWriter().write_bit(2)

    def test_value_too_large(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(4, 2)

    def test_value_too_large_for_wide_counts(self):
        """The seed writer skipped range validation past 64-bit counts
        and silently dropped the high bits; every width must raise."""
        with pytest.raises(ValueError):
            BitWriter().write_bits(1 << 64, 64)
        with pytest.raises(ValueError):
            BitWriter().write_bits(1 << 100, 80)
        w = BitWriter()
        w.write_bits((1 << 64) - 1, 64)  # boundary value still fits
        assert w.getvalue() == b"\xff" * 8

    def test_negative_value(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(-1, 4)

    def test_zero_count_is_noop(self):
        w = BitWriter()
        w.write_bits(0, 0)
        assert w.bit_count == 0

    def test_write_code_tuple(self):
        w = BitWriter()
        w.write_code((0b11, 2))
        assert w.bit_count == 2
        assert w.getvalue() == bytes([0b11000000])

    def test_align_pads_with_zeros(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        assert w.align() == 5
        assert w.bit_count == 8
        assert w.byte_length == 1
        assert w.align() == 0  # already aligned
        assert w.getvalue() == bytes([0b10100000])

    def test_patch_u32_overwrites_flushed_bytes(self):
        w = BitWriter()
        w.write_bits(0xAB, 8)
        w.write_bits(0, 32)  # placeholder
        w.write_bits(0xCD, 8)
        w.patch_u32(1, 0xDEADBEEF)
        assert w.getvalue() == bytes([0xAB, 0xDE, 0xAD, 0xBE, 0xEF, 0xCD])

    def test_patch_u32_validates(self):
        w = BitWriter()
        w.write_bits(0, 32)
        with pytest.raises(ValueError):
            w.patch_u32(1, 0)  # overruns flushed buffer
        with pytest.raises(ValueError):
            w.patch_u32(0, 1 << 32)

    def test_drain_hands_out_whole_bytes_only(self):
        w = BitWriter()
        w.write_bits(0xABC, 12)
        assert w.drain() == bytes([0xAB])  # the partial 0xC nibble stays
        assert w.drain() == b""  # nothing new flushed
        w.write_bits(0xD, 4)
        assert w.drain() == bytes([0xCD])

    def test_drained_chunks_plus_getvalue_reproduce_stream(self):
        undrained = BitWriter()
        drained = BitWriter()
        chunks = []
        for value, count in [(0x7E7E, 16), (3, 5), (0b101, 3), (0xABCDE, 20), (1, 1)]:
            for w in (undrained, drained):
                w.write_bits(value, count)
            chunks.append(drained.drain())
        assert b"".join(chunks) + drained.getvalue() == undrained.getvalue()

    def test_positions_stay_absolute_across_drain(self):
        """byte_length keeps counting drained bytes, patch_u32 still
        targets absolute offsets, and already-drained bytes are
        rejected — the contract v2 length backpatching rides on when
        a caller drains the writer after every picture."""
        w = BitWriter()
        w.write_bits(0xAB, 8)
        assert w.drain() == bytes([0xAB])
        assert w.byte_length == 1
        pos = w.byte_length
        w.write_bits(0, 32)  # placeholder at absolute byte 1
        w.write_bits(0xCD, 8)
        w.patch_u32(pos, 0xDEADBEEF)
        assert w.getvalue() == bytes([0xDE, 0xAD, 0xBE, 0xEF, 0xCD])
        with pytest.raises(ValueError, match="drained"):
            w.patch_u32(0, 0)


class TestBitReader:
    def test_reads_back_writer_output(self):
        w = BitWriter()
        w.write_bits(0xABC, 12)
        w.write_bits(5, 3)
        r = BitReader(w.getvalue())
        assert r.read_bits(12) == 0xABC
        assert r.read_bits(3) == 5

    def test_bits_consumed(self):
        r = BitReader(bytes([0xFF]))
        r.read_bits(3)
        assert r.bits_consumed == 3
        assert r.bits_remaining == 5

    def test_eof(self):
        r = BitReader(bytes([0xFF]))
        r.read_bits(8)
        with pytest.raises(EOFError):
            r.read_bit()

    def test_negative_count(self):
        with pytest.raises(ValueError):
            BitReader(b"\x00").read_bits(-1)


class TestPeekSkip:
    def test_peek_does_not_consume(self):
        """``read_vlc`` peeks a whole LUT window but consumes only the
        code it decodes."""
        table = VLCTable(["a", "b"], [1.0, 1.0])
        one = next(sym for sym, code in table.items() if code == (1, 1))
        r = BitReader(bytes([0b10110100]))
        assert r.read_vlc(table.lut, table.lut_first_bits) == one
        assert r.bits_consumed == 1
        assert r.read_bits(3) == 0b011

    def test_peek_zero_pads_past_eof(self):
        """The window reads zeros past the last byte, so a final code
        shorter than the window still decodes; a code past it is EOF."""
        table = VLCTable(["a", "b"], [1.0, 1.0])
        symbols = list("abbababa")
        w = BitWriter()
        for sym in symbols:
            w.write_code(table.encode(sym))
        r = BitReader(w.getvalue())
        assert [r.read_vlc(table.lut, table.lut_first_bits) for _ in symbols] == symbols
        with pytest.raises(EOFError):
            r.read_vlc(table.lut, table.lut_first_bits)

    def test_skip_then_read(self):
        r = BitReader(bytes([0b10110100, 0b11001010]))
        r.skip_bits(5)
        assert r.read_bits(6) == 0b100110
        assert r.bits_consumed == 11

    def test_skip_past_eof(self):
        r = BitReader(bytes([0xFF]))
        with pytest.raises(EOFError):
            r.skip_bits(9)

    def test_negative_counts(self):
        r = BitReader(b"\x00")
        with pytest.raises(ValueError):
            r.skip_bits(-1)

    def test_align(self):
        r = BitReader(bytes([0xAB, 0xCD]))
        assert r.align() == 0  # already aligned
        r.read_bits(3)
        assert r.align() == 5
        assert r.read_bits(8) == 0xCD


class TestScalarBitReaderEquivalence:
    """The word-level reader must read exactly what the seed per-bit
    reference reads, on the same bytes."""

    def test_interleaved_reads_match(self):
        data = bytes((i * 89 + 31) % 256 for i in range(64))
        fast, seed = BitReader(data), ScalarBitReader(data)
        for count in (1, 7, 8, 9, 13, 1, 24, 3, 32, 5, 64, 2):
            assert fast.read_bits(count) == seed.read_bits(count)
            assert fast.bits_consumed == seed.bits_consumed
            assert fast.bits_remaining == seed.bits_remaining

    def test_eof_behaviour_matches(self):
        data = bytes([0x5A])
        fast, seed = BitReader(data), ScalarBitReader(data)
        assert fast.read_bits(8) == seed.read_bits(8)
        with pytest.raises(EOFError):
            fast.read_bit()
        with pytest.raises(EOFError):
            seed.read_bit()


class TestRoundTrip:
    def test_many_values(self):
        values = [(i * 37) % (1 << (i % 16 + 1)) for i in range(200)]
        w = BitWriter()
        for i, v in enumerate(values):
            w.write_bits(v, i % 16 + 1)
        r = BitReader(w.getvalue())
        for i, v in enumerate(values):
            assert r.read_bits(i % 16 + 1) == v

    def test_wide_chunks(self):
        """Chunks wider than the refill word exercise the multi-word
        accumulator paths on both sides."""
        values = [(1 << 70) - 3, 0, (1 << 100) // 7, 12345]
        w = BitWriter()
        for v in values:
            w.write_bits(v, 100)
        r = BitReader(w.getvalue())
        for v in values:
            assert r.read_bits(100) == v

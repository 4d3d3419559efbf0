"""Golden equivalence tests for the table-driven VLC decode path.

Three contracts:

* **round trip** — random symbol sequences encode → LUT-decode back to
  the identical sequence (and likewise through the per-bit oracle in
  :mod:`repro.reference`);
* **same bytes, same symbols** — the LUT + word-level reader and the
  oracle's per-bit reader decode identical symbol streams from identical
  bytes, including where and how they fail on corrupt/truncated input;
* **Golomb parity** — the peeked exp-Golomb reader matches the seed bit
  loop value-for-value.

``tests/test_bitstream_v2.py`` extends the same guarantees to whole
pictures and streams.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.macroblock import read_block_levels, write_events
from repro.codec.vlc import (
    LUT_FIRST_BITS,
    VLCTable,
    read_ue_golomb_bitwise,
    se_golomb_code,
    ue_golomb_code,
)
from repro.codec.vlc_tables import ALL_TABLES
from repro.codec.zigzag import CoefficientEvent, events_to_block
from repro.reference import ScalarBitReader

from .conftest import backend_matrix, read_se_golomb, read_ue_golomb

#: Every golden equivalence below re-runs per available kernel backend.
kernel_backend = backend_matrix()


#: ``(decode, reader class)`` of the LUT path and of the per-bit oracle;
#: both decoders take ``(table, reader)``.
PATHS = (
    (lambda table, reader: reader.read_vlc(table.lut, table.lut_first_bits), BitReader),
    (reference.decode_symbol, ScalarBitReader),
)


def _decode_all(table, data, count):
    """``count`` symbols off ``data`` along each path."""
    outs = []
    for decode, reader_cls in PATHS:
        reader = reader_cls(data)
        outs.append([decode(table, reader) for _ in range(count)])
    return outs


class TestLutStructure:
    def test_every_table_compiles_a_lut(self):
        for name, table in ALL_TABLES.items():
            assert table.lut_first_bits == min(table.max_length, LUT_FIRST_BITS), name
            assert len(table.lut) == 1 << table.lut_first_bits, name

    def test_complete_code_fills_every_slot(self):
        """Kraft sum 1 ⇒ every peek index resolves to an entry."""
        for name, table in ALL_TABLES.items():
            assert all(entry is not None for entry in table.lut), name

    def test_short_codes_resolve_in_one_hit(self):
        for table in ALL_TABLES.values():
            for sym, (value, length) in table.items():
                if length <= table.lut_first_bits:
                    entry = table.lut[value << (table.lut_first_bits - length)]
                    assert entry == (sym, length, None)


class TestExhaustiveEquivalence:
    @pytest.mark.parametrize("name", sorted(ALL_TABLES))
    def test_all_symbols_round_trip_both_paths(self, name):
        table = ALL_TABLES[name]
        symbols = [sym for sym, _ in table.items()]
        writer = BitWriter()
        for sym in symbols:
            writer.write_code(table.encode(sym))
        data = writer.getvalue()
        lut_path, seed_path = _decode_all(table, data, len(symbols))
        assert lut_path == symbols
        assert seed_path == symbols

    @pytest.mark.parametrize("name", sorted(ALL_TABLES))
    def test_random_bytes_decode_identically(self, name):
        """Arbitrary bytes (mostly invalid streams): both readers must
        produce the same symbol prefix and the same terminal error."""
        table = ALL_TABLES[name]
        rng = random.Random(1234)
        for _ in range(200):
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 10)))
            outcomes = []
            for decode, reader_cls in PATHS:
                reader = reader_cls(data)
                decoded, error = [], None
                try:
                    while True:
                        decoded.append(decode(table, reader))
                except (EOFError, ValueError) as exc:
                    error = (type(exc).__name__, str(exc))
                outcomes.append((decoded, error))
            assert outcomes[0] == outcomes[1], data.hex()


@st.composite
def tcoef_symbols(draw):
    table = ALL_TABLES["tcoef"]
    symbols = [sym for sym, _ in table.items()]
    return draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=60))


class TestHypothesisRoundTrip:
    @settings(max_examples=60)
    @given(tcoef_symbols())
    def test_tcoef_sequences(self, symbols):
        table = ALL_TABLES["tcoef"]
        writer = BitWriter()
        for sym in symbols:
            writer.write_code(table.encode(sym))
        data = writer.getvalue()
        assert _decode_all(table, data, len(symbols)) == [symbols, symbols]

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(st.sampled_from(sorted(ALL_TABLES)), st.integers(0, 10_000)),
            min_size=1,
            max_size=60,
        )
    )
    def test_mixed_table_sequences(self, picks):
        """Interleaved symbols from every table — the shape of a real
        macroblock layer (MCBPC, CBPY, TCOEF share one bitstream)."""
        chosen = []
        writer = BitWriter()
        for name, index in picks:
            table = ALL_TABLES[name]
            symbols = [sym for sym, _ in table.items()]
            sym = symbols[index % len(symbols)]
            chosen.append((name, sym))
            writer.write_code(table.encode(sym))
        data = writer.getvalue()
        for decode, reader_cls in PATHS:
            reader = reader_cls(data)
            for name, sym in chosen:
                assert decode(ALL_TABLES[name], reader) == sym

    @settings(max_examples=60)
    @given(st.lists(st.integers(min_value=-500, max_value=500), min_size=1, max_size=80))
    def test_se_golomb_sequences(self, values):
        writer = BitWriter()
        for v in values:
            writer.write_code(se_golomb_code(v))
        data = writer.getvalue()
        fast, seed = BitReader(data), ScalarBitReader(data)
        assert [read_se_golomb(fast) for _ in values] == values
        assert [reference.read_se_golomb(seed) for _ in values] == values
        assert fast.bits_consumed == seed.bits_consumed

    @settings(max_examples=60)
    @given(st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=80))
    def test_ue_golomb_sequences(self, values):
        writer = BitWriter()
        for v in values:
            writer.write_code(ue_golomb_code(v))
        data = writer.getvalue()
        fast, seed = BitReader(data), ScalarBitReader(data)
        assert [read_ue_golomb(fast) for _ in values] == values
        assert [read_ue_golomb_bitwise(seed) for _ in values] == values

    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 40),
                st.integers(-127, 127).filter(lambda v: v != 0),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_event_lists(self, raw_events):
        """write_events → the oracle's read_events through both readers
        and the LUT block reader, including escape-coded events
        (runs/levels outside the table)."""
        total = sum(run + 1 for run, _ in raw_events)
        if total > 64:
            raw_events = raw_events[:1]
        events = [
            CoefficientEvent(last=(i == len(raw_events) - 1), run=run, level=level)
            for i, (run, level) in enumerate(raw_events)
        ]
        writer = BitWriter()
        write_events(writer, events)
        data = writer.getvalue()
        assert reference.read_events(BitReader(data)) == events
        assert reference.read_events(ScalarBitReader(data)) == events
        levels = np.zeros(64, dtype=np.int64)
        read_block_levels(BitReader(data), levels)
        assert np.array_equal(levels.reshape(8, 8), events_to_block(events))


class TestBlockLevelErrorParity:
    """read_block_levels (LUT path) must fail exactly like the oracle's
    events_to_block(read_events(...)) on corrupt bytes:
    same exception type, message, and — when the list is readable —
    same decoded levels."""

    @staticmethod
    def _outcome_fast(data):
        out = np.zeros(64, dtype=np.int64)
        try:
            read_block_levels(BitReader(data), out)
        except (EOFError, ValueError) as exc:
            return (type(exc).__name__, str(exc)), None
        return None, out.reshape(8, 8)

    @staticmethod
    def _outcome_seed(data):
        try:
            block = events_to_block(reference.read_events(ScalarBitReader(data)))
        except (EOFError, ValueError) as exc:
            return (type(exc).__name__, str(exc)), None
        return None, block

    def test_truncated_overflowing_stream_stays_eof(self):
        """Events overflow the block *and* the stream truncates before
        LAST: the reference path raises EOFError (it reads all events
        before validating), and the fast path must match."""
        data = bytes.fromhex("7942fdb3ffbf1d6276d9f36017af152b8cb2")
        fast_err, _ = self._outcome_fast(data)
        seed_err, _ = self._outcome_seed(data)
        assert fast_err == seed_err
        assert fast_err[0] == "EOFError"

    def test_random_bytes_block_parity(self):
        rng = random.Random(99)
        for _ in range(400):
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 24)))
            fast_err, fast_block = self._outcome_fast(data)
            seed_err, seed_block = self._outcome_seed(data)
            assert fast_err == seed_err, data.hex()
            if fast_err is None:
                assert np.array_equal(fast_block, seed_block), data.hex()


def golomb_paths(data):
    """The one-peek ue(v) read and the oracle's bit loop, each on its
    own reader over ``data``."""
    return ((read_ue_golomb, BitReader(data)), (read_ue_golomb_bitwise, ScalarBitReader(data)))


class TestGolombErrorParity:
    def test_truncated_stream(self):
        # "0001" then EOF: prefix promises more bits than exist.
        data = bytes([0b00010000])
        for read, reader in golomb_paths(data):
            read(reader)  # consumes "0001000" -> value 7
            with pytest.raises(EOFError):
                read(reader)

    def test_malformed_all_zeros(self):
        data = bytes(16)  # > 64 leading zeros
        for read, reader in golomb_paths(data):
            with pytest.raises(ValueError, match="malformed exp-Golomb"):
                read(reader)


class TestCustomTableLut:
    def test_deep_codes_cascade(self):
        """A skewed weight model forces codes past LUT_FIRST_BITS; the
        cascade must still decode every symbol on both paths."""
        symbols = list(range(40))
        weights = [2.0 ** -i if i < 30 else 2.0 ** -30 for i in range(40)]
        table = VLCTable(symbols, weights)
        assert table.max_length > LUT_FIRST_BITS
        writer = BitWriter()
        for sym in symbols:
            writer.write_code(table.encode(sym))
        data = writer.getvalue()
        assert _decode_all(table, data, len(symbols)) == [symbols, symbols]

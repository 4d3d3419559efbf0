"""Unit tests for repro.codec.vlc and repro.codec.vlc_tables."""

import pytest

from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.macroblock import write_events
from repro.codec.vlc import (
    VLCTable,
    canonical_codes,
    huffman_code_lengths,
    se_golomb_code,
    ue_golomb_code,
)
from repro.codec.vlc_tables import (
    CBPY_TABLE,
    ESCAPE,
    MCBPC_TABLE,
    TCOEF_TABLE,
    tcoef_symbol,
)
from repro.codec.zigzag import CoefficientEvent

from .conftest import read_se_golomb, read_ue_golomb


def kraft_sum(table: VLCTable) -> float:
    """Σ 2^-len over a table's codes: exactly 1.0 for a complete code."""
    return sum(2.0 ** -length for _, (_, length) in table.items())


def code_length(table: VLCTable, symbol) -> int:
    return table.encode(symbol)[1]


def se_bits(value: int) -> int:
    return se_golomb_code(value)[1]


class TestHuffman:
    def test_two_symbols_one_bit_each(self):
        lengths = huffman_code_lengths(["a", "b"], [1.0, 1.0])
        assert lengths == {"a": 1, "b": 1}

    def test_rare_symbols_get_longer_codes(self):
        lengths = huffman_code_lengths(["hot", "warm", "cold"], [8.0, 2.0, 1.0])
        assert lengths["hot"] < lengths["cold"]

    def test_kraft_equality(self):
        weights = [13.0, 7.0, 5.0, 3.0, 2.0, 1.0, 1.0]
        lengths = huffman_code_lengths(list("abcdefg"), weights)
        assert sum(2.0 ** -l for l in lengths.values()) == pytest.approx(1.0)

    def test_single_symbol(self):
        assert huffman_code_lengths(["x"], [1.0]) == {"x": 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            huffman_code_lengths(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            huffman_code_lengths([], [])
        with pytest.raises(ValueError):
            huffman_code_lengths(["a", "b"], [1.0, 0.0])

    def test_deterministic(self):
        symbols = list(range(20))
        weights = [1.0] * 20  # fully tied: order must break ties
        a = huffman_code_lengths(symbols, weights)
        b = huffman_code_lengths(symbols, weights)
        assert a == b


class TestCanonicalCodes:
    def test_prefix_free(self):
        lengths = {"a": 1, "b": 2, "c": 3, "d": 3}
        codes = canonical_codes(lengths, ["a", "b", "c", "d"])
        bits = {
            sym: format(value, f"0{length}b") for sym, (value, length) in codes.items()
        }
        values = list(bits.values())
        for i, x in enumerate(values):
            for j, y in enumerate(values):
                if i != j:
                    assert not y.startswith(x)

    def test_lexicographic_by_length(self):
        codes = canonical_codes({"a": 1, "b": 2, "c": 2}, ["a", "b", "c"])
        assert codes["a"] == (0b0, 1)
        assert codes["b"] == (0b10, 2)
        assert codes["c"] == (0b11, 2)


class TestVLCTable:
    def test_encode_decode_round_trip_all_symbols(self):
        table = VLCTable(list(range(30)), [1.0 / (i + 1) for i in range(30)])
        writer = BitWriter()
        for sym in range(30):
            writer.write_code(table.encode(sym))
        reader = BitReader(writer.getvalue())
        for sym in range(30):
            assert reader.read_vlc(table.lut, table.lut_first_bits) == sym

    def test_kraft_sum_is_one(self):
        table = VLCTable(list("abcde"), [5, 3, 2, 1, 1])
        assert kraft_sum(table) == pytest.approx(1.0)

    def test_unknown_symbol(self):
        table = VLCTable(["x"], [1.0])
        with pytest.raises(KeyError):
            table.encode("y")

    def test_contains(self):
        table = VLCTable(["x", "y"], [1.0, 1.0])
        assert "x" in table and "z" not in table


class TestExpGolomb:
    def test_ue_known_values(self):
        assert ue_golomb_code(0) == (1, 1)      # "1"
        assert ue_golomb_code(1) == (2, 3)      # "010"
        assert ue_golomb_code(2) == (3, 3)      # "011"
        assert ue_golomb_code(3) == (4, 5)      # "00100"

    def test_ue_rejects_negative(self):
        with pytest.raises(ValueError):
            ue_golomb_code(-1)

    def test_se_zero_is_one_bit(self):
        assert se_bits(0) == 1

    def test_se_symmetry(self):
        for v in range(1, 40):
            assert se_bits(v) == se_bits(-v) or abs(
                se_bits(v) - se_bits(-v)
            ) <= 2

    def test_se_round_trip(self):
        writer = BitWriter()
        values = list(range(-40, 41))
        for v in values:
            writer.write_code(se_golomb_code(v))
        reader = BitReader(writer.getvalue())
        for v in values:
            assert read_se_golomb(reader) == v

    def test_ue_round_trip(self):
        writer = BitWriter()
        for v in range(100):
            writer.write_code(ue_golomb_code(v))
        reader = BitReader(writer.getvalue())
        for v in range(100):
            assert read_ue_golomb(reader) == v

    def test_longer_values_cost_more_bits(self):
        assert se_bits(1) < se_bits(10) < se_bits(100)


class TestTcoefTable:
    def test_most_common_event_has_short_code(self):
        """(LAST=0, RUN=0, LEVEL=1) must get one of the shortest codes,
        as in H.263's table."""
        assert code_length(TCOEF_TABLE, (0, 0, 1)) <= 4

    def test_code_length_grows_with_run_and_level(self):
        assert code_length(TCOEF_TABLE, (0, 0, 1)) < code_length(TCOEF_TABLE, (0, 5, 1))
        assert code_length(TCOEF_TABLE, (0, 0, 1)) < code_length(TCOEF_TABLE, (0, 0, 5))

    def test_escape_in_table(self):
        assert ESCAPE in TCOEF_TABLE

    def test_kraft_equality(self):
        assert kraft_sum(TCOEF_TABLE) == pytest.approx(1.0)

    def test_symbol_mapping(self):
        assert tcoef_symbol(CoefficientEvent(False, 3, -2)) == (0, 3, 2)
        assert tcoef_symbol(CoefficientEvent(True, 0, 1)) == (1, 0, 1)
        assert tcoef_symbol(CoefficientEvent(False, 50, 1)) is ESCAPE
        assert tcoef_symbol(CoefficientEvent(False, 0, 99)) is ESCAPE

    def test_event_bits_includes_sign(self):
        event = CoefficientEvent(False, 0, 1)
        assert write_events(BitWriter(), [event]) == code_length(TCOEF_TABLE, (0, 0, 1)) + 1

    def test_escape_bits(self):
        event = CoefficientEvent(False, 40, 1)
        assert write_events(BitWriter(), [event]) == code_length(TCOEF_TABLE, ESCAPE) + 15


class TestPatternTables:
    def test_cbpy_covers_all_patterns(self):
        for pattern in range(16):
            value, length = CBPY_TABLE.encode(pattern)
            assert length >= 1

    def test_mcbpc_covers_all_patterns(self):
        for pattern in range(4):
            MCBPC_TABLE.encode(pattern)

    def test_empty_pattern_is_cheapest(self):
        assert code_length(CBPY_TABLE, 0) == min(
            code_length(CBPY_TABLE, p) for p in range(16)
        )
        assert code_length(MCBPC_TABLE, 0) == min(
            code_length(MCBPC_TABLE, p) for p in range(4)
        )

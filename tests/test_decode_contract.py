"""The version-2 decode contract: every entry point, one outcome.

A v2 stream is judged in stream order — frame *k*'s framing, then its
payload parse and length check, then its reconstruction, then frame
*k+1*'s framing — and every decode entry point either returns the same
frames or raises the first error in that order with the same type and
message:

* ``decode_bitstream`` serially, with ``frames=k`` (which judges only the
  first *k* pictures), with ``jobs=2`` and with ``start_frame``;
* :class:`StreamDecoder` at any chunking and buffer depth;
* on framing and truncation damage, also ``parse_bitstream_symbols`` and
  the :mod:`repro.reference` oracle (on payload damage the per-bit parse
  may word an error differently, so those two are not compared there).

The reference outcome is a :class:`Decoder` loop that records the frames
it decodes before the first error.  Hypothesis mutates a small GOP
stream (byte flips, truncation, length fields off by a few bytes, two
streams' frames spliced together); the spawn-backed ``jobs=2`` modes run
on a fixed list of cases.

Version-1 streams have no framing, so only the whole-buffer entry points
take them: a truncated or corrupt v1 stream raises :class:`ValueError`
naming the damaged picture and its starting bit, never :class:`EOFError`,
whether the damage shows in the parse or in the reconstruction.  On
truncation the decoder, ``parse_bitstream_symbols`` and the oracle agree
word for word; on byte flips the decoder and the oracle agree on the
frames or on the picture that fails.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import reference
from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.decoder import (
    Decoder,
    FrameIndex,
    decode_bitstream,
    detect_version,
    parse_bitstream_symbols,
)
from repro.codec.encoder import FRAME_START_CODE, START_CODE, START_CODE_BITS, encode_sequence
from repro.codec.vlc_tables import CBPY_TABLE, MCBPC_TABLE
from repro.streaming import StreamDecoder
from repro.video.frame import FrameGeometry
from repro.video.synthesis.sequences import make_sequence

GEOMETRY = FrameGeometry(64, 48)
FRAMING = 8  # start code + length field
#: How every v1 decode error opens.
PICTURE_AT = re.compile(r"picture \d+ starting at bit \d+")


def _encode(name, frames, seed, **config):
    clip = make_sequence(name, frames=frames, seed=seed, geometry=GEOMETRY)
    return encode_sequence(clip, qp=18, estimator="tss", bitstream_version=2, **config).bitstream


@pytest.fixture(scope="module")
def gop():
    """Seven pictures, I-frames at 0, 3 and 6, up to four references."""
    return _encode("foreman", 7, 0, i_period=3, n_ref_frames=4)


@pytest.fixture(scope="module")
def donors():
    """Streams whose frames get spliced into ``gop``: another clip of
    the same geometry, and one of a different geometry."""
    return [
        _encode("carphone", 4, 1, i_period=2, n_ref_frames=2),
        encode_sequence(
            make_sequence("miss_america", frames=3, seed=2, geometry=FrameGeometry(48, 32)),
            qp=20, estimator="tss", bitstream_version=2,
        ).bitstream,
    ]


def frame_starts(bitstream):
    """Byte offset of every picture's framing."""
    return [start - FRAMING for start, _end in FrameIndex.scan(bitstream).ranges]


def serial_trace(bitstream):
    """The frames decoded before the first error in stream order, and
    that error (``None`` for a clean stream)."""
    frames = []
    try:
        decoder = Decoder(bitstream)
        while decoder.has_more:
            frames.append(decoder.decode_frame())
    except Exception as exc:  # noqa: BLE001 - the contract covers any error
        return frames, exc
    return frames, None


def outcome(decode):
    """``("ok", frames)`` or ``(type, message)``."""
    try:
        return "ok", list(decode())
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)


def expected(trace, limit=None):
    frames, error = trace
    if error is None or (limit is not None and limit <= len(frames)):
        return "ok", frames[:limit]
    return type(error), str(error)


def stream_outcome(bitstream, chunk, depth):
    """Push-decode outcome, plus the frames yielded before any error."""
    decoder = StreamDecoder(max_buffered_frames=depth)
    got = []
    try:
        for offset in range(0, len(bitstream), chunk):
            decoder.feed(bitstream[offset : offset + chunk])
            got.extend(decoder.frames())
        decoder.close()
        got.extend(decoder.frames())
    except Exception as exc:  # noqa: BLE001
        return (type(exc), str(exc)), got
    return ("ok", got), got


def assert_contract(bitstream, data=None, chunk=37, depth=2, limit=2):
    """Serial decode, a ``frames=`` limit and the push decoder against
    :func:`serial_trace`; with hypothesis ``data``, the limit, chunk
    size and buffer depth are drawn."""
    trace = serial_trace(bitstream)
    if data is not None:
        limit = data.draw(st.integers(0, 8), label="frames")
    assert outcome(lambda: decode_bitstream(bitstream)) == expected(trace)
    assert outcome(lambda: decode_bitstream(bitstream, frames=limit)) == expected(trace, limit)
    if data is not None:
        chunk = data.draw(st.integers(1, max(1, len(bitstream))), label="chunk")
        depth = data.draw(st.integers(1, 3), label="depth")
    result, got = stream_outcome(bitstream, chunk, depth)
    assert result == expected(trace)
    assert got == trace[0][: len(got)]  # frames before an error are the serial ones
    return trace


def assert_parse_and_oracle_agree(bitstream, trace):
    """Framing and truncation damage: the per-bit parse and the oracle
    reach the same outcome as the production decoder."""
    frames, error = trace
    assert outcome(lambda: reference.decode_bitstream(bitstream)) == expected(trace)
    parsed = outcome(lambda: parse_bitstream_symbols(bitstream))
    if error is None:
        assert parsed[0] == "ok" and len(parsed[1]) == len(frames)
    else:
        assert parsed == (type(error), str(error))


# -- hypothesis: mutated GOP streams ---------------------------------------


SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestMutatedStreams:
    @SETTINGS
    @given(data=st.data())
    def test_byte_flips(self, gop, data):
        corrupt = bytearray(gop)
        positions = data.draw(
            st.lists(st.integers(0, len(gop) - 1), min_size=1, max_size=3), label="positions"
        )
        for pos in positions:
            corrupt[pos] ^= data.draw(st.integers(1, 255), label="xor")
        corrupt = bytes(corrupt)
        if detect_version(corrupt) != 2:
            # The opening no longer reads as version 2: decode_bitstream
            # takes the version-1 bit walk, which the push decoder (v2
            # only) refuses up front.  Both must reject the bytes.
            with pytest.raises(ValueError, match="version-2"):
                StreamDecoder().feed(corrupt)
            with pytest.raises(ValueError):
                decode_bitstream(corrupt)
            return
        trace = assert_contract(corrupt, data)
        starts = frame_starts(gop)
        if all(any(s <= p < s + FRAMING for s in starts) for p in positions):
            assert_parse_and_oracle_agree(corrupt, trace)

    @SETTINGS
    @given(data=st.data())
    def test_truncation(self, gop, data):
        cut = gop[: data.draw(st.integers(0, len(gop)), label="cut")]
        trace = assert_contract(cut, data)
        assert_parse_and_oracle_agree(cut, trace)

    @SETTINGS
    @given(data=st.data())
    def test_length_field_off_by_k(self, gop, data):
        starts = frame_starts(gop)
        field = data.draw(st.sampled_from(starts), label="frame") + 4
        length = int.from_bytes(gop[field : field + 4], "big")
        delta = data.draw(
            st.one_of(st.integers(-min(length, 40), -1), st.integers(1, 40)), label="delta"
        )
        corrupt = bytearray(gop)
        corrupt[field : field + 4] = (length + delta).to_bytes(4, "big")
        corrupt = bytes(corrupt)
        trace = assert_contract(corrupt, data)
        assert trace[1] is not None  # a wrong length field never decodes
        assert_parse_and_oracle_agree(corrupt, trace)

    @SETTINGS
    @given(data=st.data())
    def test_spliced_streams(self, gop, donors, data):
        donor = data.draw(st.sampled_from(donors), label="donor")
        head = frame_starts(gop) + [len(gop)]
        tail = frame_starts(donor)
        spliced = (
            gop[: data.draw(st.sampled_from(head), label="head")]
            + donor[data.draw(st.sampled_from(tail), label="tail") :]
        )
        assert_contract(spliced, data)


# -- version-1 streams -----------------------------------------------------


@pytest.fixture(scope="module")
def v1_streams():
    """Three pictures in the v1 seed syntax and in the v1 GOP syntax
    (I-frames every two pictures, two references)."""
    clip = make_sequence("foreman", frames=3, seed=0, geometry=GEOMETRY)
    return {
        "seed": encode_sequence(clip, qp=18, estimator="tss").bitstream,
        "gop": encode_sequence(clip, qp=18, estimator="tss", i_period=2, n_ref_frames=2).bitstream,
    }


class TestVersion1Streams:
    @pytest.mark.parametrize("syntax", ["seed", "gop"])
    @SETTINGS
    @given(data=st.data())
    def test_truncation(self, v1_streams, syntax, data):
        """A v1 stream cut anywhere decodes its whole pictures or raises
        a ValueError naming a bit offset, identically from the decoder,
        ``parse_bitstream_symbols`` and both oracle entry points."""
        stream = v1_streams[syntax]
        cut = stream[: data.draw(st.integers(0, len(stream)), label="cut")]
        decoded = outcome(lambda: decode_bitstream(cut))
        assert outcome(lambda: reference.decode_bitstream(cut)) == decoded
        parsed = outcome(lambda: parse_bitstream_symbols(cut))
        assert outcome(lambda: reference.parse_bitstream_symbols(cut)) == parsed
        if decoded[0] == "ok":
            assert parsed[0] == "ok" and len(parsed[1]) == len(decoded[1])
        else:
            assert decoded[0] is ValueError and re.search(r"\bbit \d+", decoded[1])
            assert parsed == decoded

    @pytest.mark.parametrize("syntax", ["seed", "gop"])
    @SETTINGS
    @given(data=st.data())
    def test_byte_flips(self, v1_streams, syntax, data):
        """One to three flipped bytes: every entry point decodes the
        stream or raises a ValueError naming a picture and its starting
        bit — parse errors (a bad start code, an illegal symbol) and
        reconstruction errors (a vector leaving the reference, an
        out-of-range DC level) alike.  The decoder and the oracle agree
        on the frames, or on the picture that fails."""
        stream = v1_streams[syntax]
        corrupt = bytearray(stream)
        positions = data.draw(
            st.lists(st.integers(0, len(stream) - 1), min_size=1, max_size=3), label="positions"
        )
        for pos in positions:
            corrupt[pos] ^= data.draw(st.integers(1, 255), label="xor")
        corrupt = bytes(corrupt)
        if detect_version(corrupt) != 1:
            return  # the flips spelled a version-2 opening
        entry_points = (
            decode_bitstream,
            reference.decode_bitstream,
            parse_bitstream_symbols,
            reference.parse_bitstream_symbols,
        )
        outcomes = [outcome(lambda decode=decode: decode(corrupt)) for decode in entry_points]
        for kind, result in outcomes:
            if kind != "ok":
                assert kind is ValueError and PICTURE_AT.match(result), result
        decoded, oracle = outcomes[:2]
        if decoded[0] == "ok":
            assert oracle == decoded
        else:
            assert oracle[0] is ValueError
            assert PICTURE_AT.match(oracle[1]).group() == PICTURE_AT.match(decoded[1]).group()

    def test_cut_picture_names_its_start(self, v1_streams):
        stream = v1_streams["seed"]
        message = outcome(lambda: decode_bitstream(stream[: len(stream) // 2]))[1]
        assert re.fullmatch(
            r"picture \d+ starting at bit \d+ runs past the end of the \d+-bit stream: "
            r"the stream is cut short or corrupt",
            message,
        )


# -- an over-long exp-Golomb prefix ----------------------------------------


def golomb_probe(version):
    """An I picture, then a P picture whose first coded macroblock's
    horizontal MVD is an exp-Golomb code with 64 leading zeros (64 ones
    after its marker bit) — a value no int64 motion grid holds."""
    clip = make_sequence("foreman", frames=1, seed=0, geometry=GEOMETRY)
    intra = encode_sequence(clip, qp=18, estimator="tss", bitstream_version=version)
    body = BitWriter()
    body.write_bits(START_CODE, START_CODE_BITS)
    body.write_bit(1)  # P picture
    body.write_bits(18, 5)
    body.write_bits(15, 5)
    body.write_bits(GEOMETRY.mb_rows, 8)
    body.write_bits(GEOMETRY.mb_cols, 8)
    body.write_bit(0)  # COD: coded
    body.write_code(MCBPC_TABLE.encode(0))
    body.write_code(CBPY_TABLE.encode(0))
    body.write_bits(1, 65)  # 64 zeros, then the marker bit
    body.write_bits((1 << 64) - 1, 64)
    body.write_bits(0, 64)
    if version == 2:
        payload = body.getvalue()
        frame = FRAME_START_CODE.to_bytes(4, "big") + len(payload).to_bytes(4, "big")
        return intra.bitstream + frame + payload
    stream = BitWriter()
    bits = intra.frames[0].bits
    stream.write_bits(BitReader(intra.bitstream).read_bits(bits), bits)
    picture = body.getvalue()
    stream.write_bits(int.from_bytes(picture, "big"), 8 * len(picture))
    return stream.getvalue()


class TestOverlongGolombPrefix:
    @pytest.mark.parametrize("version", [1, 2])
    def test_every_entry_point_raises_the_same_value_error(self, version):
        """``decode_bitstream``, a :class:`Decoder` loop,
        ``parse_bitstream_symbols``, both oracle entry points and (v2)
        the push decoder raise one ``ValueError`` naming the bit where
        the code starts — never the ``OverflowError`` of storing the
        decoded vector."""
        stream = golomb_probe(version)
        _, error = serial_trace(stream)
        outcomes = [
            outcome(lambda: decode_bitstream(stream)),
            (type(error), str(error)),
            outcome(lambda: parse_bitstream_symbols(stream)),
            outcome(lambda: reference.decode_bitstream(stream)),
            outcome(lambda: reference.parse_bitstream_symbols(stream)),
        ]
        if version == 2:
            outcomes.append(stream_outcome(stream, 37, 2)[0])
        kind, message = outcomes[0]
        assert outcomes == [(kind, message)] * len(outcomes)
        assert kind is ValueError
        assert re.search(r"more than 32 leading zeros in the code starting at bit \d+$", message)
        assert bool(PICTURE_AT.match(message)) == (version == 1)


# -- fixed cases for the spawn-backed modes --------------------------------


def _set(gop, pos, value):
    corrupt = bytearray(gop)
    corrupt[pos] = value
    return bytes(corrupt)


def _relength(gop, starts, frame, delta):
    corrupt = bytearray(gop)
    field = starts[frame] + 4
    length = int.from_bytes(corrupt[field : field + 4], "big") + delta
    corrupt[field : field + 4] = length.to_bytes(4, "big")
    return bytes(corrupt)


def _flip_payload1(gop, starts):
    return _set(gop, starts[1] + FRAMING, gop[starts[1] + FRAMING] ^ 0xFF)


#: The corruptions the spawn-backed modes run on, built from the clean
#: stream and its frame offsets.
CASES = {
    "clean": lambda gop, starts: gop,
    "bad start code at frame 1": lambda gop, starts: _set(gop, starts[1] + 3, 0x49),
    "bad picture start code in payload 1": _flip_payload1,
    "payload 1 and start code 2 both bad": lambda gop, starts: _set(
        _flip_payload1(gop, starts), starts[2] + 3, 0x49
    ),
    "frame 1 length one byte short": lambda gop, starts: _relength(gop, starts, 1, -1),
    "frame 1 length one byte long": lambda gop, starts: _relength(gop, starts, 1, +1),
    "cut 5 bytes into frame 2's payload": lambda gop, starts: gop[: starts[2] + FRAMING + 5],
}


def make_case(gop, case):
    return CASES[case](gop, frame_starts(gop))


class TestFixedCases:
    @pytest.mark.parametrize("case", list(CASES))
    def test_in_process_modes_agree(self, gop, case):
        corrupt = make_case(gop, case)
        trace = assert_contract(corrupt, chunk=11, depth=1, limit=1)
        assert_parse_and_oracle_agree(corrupt, trace)
        if case != "clean":
            assert isinstance(trace[1], ValueError)

    @pytest.mark.parametrize("case", list(CASES)[1:])
    def test_spawned_modes_agree(self, gop, case):
        """``jobs=2`` (with and without a frame limit) and the push
        decoder at a different chunking and depth."""
        corrupt = make_case(gop, case)
        trace = serial_trace(corrupt)
        assert outcome(lambda: decode_bitstream(corrupt, jobs=2)) == expected(trace)
        assert outcome(lambda: decode_bitstream(corrupt, jobs=2, frames=1)) == expected(trace, 1)
        result, _ = stream_outcome(corrupt, 64, 2)
        assert result == expected(trace)

    def test_seek_judges_pictures_from_the_keyframe_on(self, gop):
        whole = decode_bitstream(gop)
        damaged = make_case(gop, "bad picture start code in payload 1")
        with pytest.raises(ValueError, match="bad start code 0x"):
            decode_bitstream(damaged)
        # Pictures before the keyframe are never parsed.
        assert decode_bitstream(damaged, start_frame=3) == whole[3:]
        cut = make_case(gop, "cut 5 bytes into frame 2's payload")
        # A seek past the framing error raises that error, not "out of range".
        with pytest.raises(ValueError, match="overruns"):
            decode_bitstream(cut, start_frame=3)

"""Golden tests for GOP structure: ``i_Period``, spatial intra modes,
multi-reference P-frames, per-GOP parallel encode and random access.

The contracts under test:

* the default configuration (``i_period=None``, ``n_ref_frames=1``)
  still emits the **seed syntax byte-for-byte** — pinned by SHA-256
  against pre-GOP encodes;
* GOP-syntax (multi-reference, predictive-intra) encodes are pinned
  by SHA-256 too, and every golden stream round-trips bit-identically
  through every decode path (batched engine, the per-block oracle
  :mod:`repro.reference` and its per-bit ``ScalarBitReader`` parse);
* an I-frame resets the reference list, so per-GOP parallel encode
  splices a stream **byte-identical** to the serial encoder for any
  ``--jobs``;
* decoding from any I-frame reproduces the full decode's tail
  bit-identically, and seeking to a P-frame is rejected.
"""

import hashlib

import numpy as np
import pytest

from repro import reference
from repro.codec.bitstream import BitWriter
from repro.codec.decoder import (
    FrameIndex,
    decode_bitstream,
    parse_bitstream_symbols,
)
from repro.codec.encoder import (
    MAX_REF_FRAMES,
    PICTURE_HEADER_BITS,
    Encoder,
    encode_sequence,
)
from repro.codec.intra import (
    INTRA_VERTICAL,
    choose_intra_modes,
    intra_mode_costs_reference,
    intra_predict,
)
from repro.me.engine import intra_mode_cost_surfaces
from repro.parallel import encode_sequence_parallel, split_gops
from repro.streaming import StreamDecoder
from repro.video.frame import Frame
from repro.video.sequence import Sequence
from repro.video.synthesis.sequences import make_sequence

from .conftest import backend_matrix, shifted_plane, textured_plane

#: Every golden equivalence below re-runs per available kernel backend.
kernel_backend = backend_matrix()

I_PERIOD = 3


def gop_clip(frames: int = 8, seed: int = 7) -> Sequence:
    """Small (64x48) moving clip — enough frames for three GOPs."""
    base = textured_plane(48, 64, seed=seed)
    return Sequence(
        [Frame(shifted_plane(base, (i % 3) - 1, i % 2), index=i) for i in range(frames)],
        fps=30.0,
        name="gopclip",
    )


def oscillating_clip(frames: int = 6) -> Sequence:
    """Content alternates A/B/A/B — with two references, matching the
    frame *two back* beats the immediate predecessor, so the encoder
    must actually use reference index 1."""
    a = textured_plane(48, 64, seed=3)
    b = shifted_plane(a, 3, 2)
    return Sequence(
        [Frame([a, b][i % 2].copy(), index=i) for i in range(frames)],
        fps=30.0,
        name="osc",
    )


class TestConfigValidation:
    def test_i_period_must_be_positive(self):
        for bad in (0, -1, -5):
            with pytest.raises(ValueError, match="i_Period must be a positive GOP length"):
                Encoder(i_period=bad)

    def test_n_ref_frames_bounded_by_wire_field(self):
        for bad in (0, -1, MAX_REF_FRAMES + 1):
            with pytest.raises(ValueError, match="nRefFrames must be between 1 and 8"):
                Encoder(n_ref_frames=bad)

    def test_defaults_stay_on_seed_syntax(self):
        encoder = Encoder()
        assert encoder.i_period is None
        assert encoder.n_ref_frames == 1
        assert not encoder.gop_syntax


#: SHA-256 of default-path (``i_period=None``) encodes, recorded at the
#: seed revision this PR grew from: the GOP layer must not move a byte.
GOLDEN_SEED_STREAMS = {
    ("miss_america", 5, 16, "tss", 1): (
        "6457fb8e0c673e68d107593cfd097d09ed4a49c2d25e677b9f3b9af0337bf4da"
    ),
    ("miss_america", 5, 16, "tss", 2): (
        "77eb9679adac4704b45bbc137810f06ac3c43f61deb6db045053fbd4a7e9322b"
    ),
    ("foreman", 4, 22, "fsbm", 1): (
        "892c2bf90f17587f29865f147091c3d5e6b2e4a8f5a6027461546930f13c3bf3"
    ),
    ("foreman", 4, 22, "fsbm", 2): (
        "effa25188f95e5804f39084abd05a4c9d5728237014273ceca9db71d5ee03d3c"
    ),
    ("carphone", 3, 28, "acbm", 1): (
        "8583aba2e2088af51a0ab3658963ae89f67713040b14757f9872ec18779d5125"
    ),
    # Dense coefficients (recorded before the encoder's transform and
    # quantisation were batched over the whole frame): all three code
    # escape-coded levels, Qp 1 reaches the +-127 level clip and the
    # carphone case clips reconstructed pixels at 0 and 255.  None
    # reaches the 1..254 intra-DC clamp; the saturated-content pins in
    # tests/test_reconstruction.py do.
    ("foreman", 4, 2, "acbm", 1): (
        "d14c6a8f1771e9fb29bb0b22927facc0dde41e57bff190a3704085e49469fb01"
    ),
    ("foreman", 4, 1, "fsbm", 2): (
        "184b30849c726a932eb0943a1f248d718fb1b152b0e3fce2b42d37672064d166"
    ),
    ("carphone", 3, 8, "acbm", 2): (
        "213a91a979b4fbd8712cb8fbbb45dd659f250ace4ae3560faebc6f98824d20c1"
    ),
}


#: SHA-256 of GOP-syntax encodes (keys add ``i_period, n_ref_frames``
#: to the seed table's), recorded while the encoder still had separate
#: single- and multi-reference P-frame coders and its scalar
#: reference-choice loop: merging them must not move a byte.
GOLDEN_GOP_STREAMS = {
    ("foreman", 10, 18, "ntss", 2, 8, 4): (
        "205b9a8c52640e6414863fecb9b89cb8c8bd708a0a63b41745c140a87983ada3"
    ),
    ("miss_america", 9, 20, "acbm", 2, 3, 2): (
        "ffb6866dc071bb1b1571e79e2a65842790ddb63b236c9fc0753e79b5c998cd69"
    ),
    ("foreman", 6, 16, "acbm", 1, None, 3): (
        "698e7b2b8d8eb4f36f57139080355d55c415b5bea4e43581784e410051298d63"
    ),
}


def assert_golden(case: tuple, table: dict) -> None:
    """Encode one pinned case: its bytes hash to ``table[case]``, and
    the batched decoder, the per-block oracle and the encoder's closed
    loop agree on every frame."""
    sequence, frames, qp, estimator, version, *gop = case
    i_period, n_ref_frames = gop or (None, 1)
    result = encode_sequence(
        make_sequence(sequence, frames=frames, seed=0),
        qp=qp,
        estimator=estimator,
        bitstream_version=version,
        i_period=i_period,
        n_ref_frames=n_ref_frames,
        keep_reconstruction=True,
    )
    assert hashlib.sha256(result.bitstream).hexdigest() == table[case]
    decoded = decode_bitstream(result.bitstream)
    assert decoded == result.reconstruction
    assert reference.decode_bitstream(result.bitstream) == decoded


class TestSeedCompatibility:
    @pytest.mark.parametrize("case", sorted(GOLDEN_SEED_STREAMS))
    def test_default_path_byte_identical_to_seed(self, case):
        assert_golden(case, GOLDEN_SEED_STREAMS)

    @pytest.mark.parametrize("case", list(GOLDEN_GOP_STREAMS))
    def test_gop_syntax_byte_identical(self, case):
        assert_golden(case, GOLDEN_GOP_STREAMS)


class TestGopRoundTrip:
    @pytest.fixture(scope="class")
    def clip(self):
        return gop_clip()

    def test_frame_type_pattern(self, clip):
        result = encode_sequence(
            clip, qp=18, estimator="tss", bitstream_version=2, i_period=I_PERIOD
        )
        assert [r.frame_type for r in result.frames] == list("IPPIPPIP")
        assert result.keyframes == (0, 3, 6)
        index = FrameIndex.scan(result.bitstream)
        assert index.frame_types(result.bitstream) == tuple("IPPIPPIP")
        assert index.keyframes(result.bitstream) == (0, 3, 6)
        # Random access costs real bits: the I-frames carry a share of
        # the stream strictly between nothing and everything.
        intra_bits = sum(r.bits for r in result.frames if r.frame_type == "I")
        assert 0 < intra_bits < result.total_bits

    @pytest.mark.parametrize("version", [1, 2])
    def test_decode_paths_bit_identical(self, clip, version):
        result = encode_sequence(
            clip,
            qp=18,
            estimator="tss",
            keep_reconstruction=True,
            bitstream_version=version,
            i_period=I_PERIOD,
        )
        engine = decode_bitstream(result.bitstream)
        per_block = reference.decode_bitstream(result.bitstream)
        assert engine == result.reconstruction
        assert per_block == result.reconstruction
        # The seed one-bit-at-a-time reader parses identical symbols.
        lut = parse_bitstream_symbols(result.bitstream)
        seed = reference.parse_bitstream_symbols(result.bitstream)
        assert lut == seed

    def test_multi_reference_actually_used(self):
        clip = oscillating_clip()
        result = encode_sequence(
            clip,
            qp=18,
            estimator="tss",
            keep_reconstruction=True,
            bitstream_version=2,
            i_period=6,
            n_ref_frames=2,
        )
        parsed = parse_bitstream_symbols(result.bitstream)
        assert any(p.ref_idx is not None and p.ref_idx.any() for p in parsed)
        assert decode_bitstream(result.bitstream) == result.reconstruction
        assert reference.decode_bitstream(result.bitstream) == result.reconstruction


class TestSplitGops:
    def test_half_open_ranges_cover_tail(self):
        assert split_gops(10, 3) == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_period_longer_than_clip_is_one_gop(self):
        assert split_gops(10, 20) == [(0, 10)]


class TestParallelGopEncode:
    @pytest.fixture(scope="class")
    def clip(self):
        return gop_clip()

    @pytest.fixture(scope="class")
    def serial(self, clip):
        return encode_sequence(
            clip, qp=18, estimator="tss", bitstream_version=2, i_period=I_PERIOD
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_splice_byte_identical_to_serial(self, clip, serial, jobs):
        parallel = encode_sequence_parallel(
            clip, qp=18, estimator="tss", i_period=I_PERIOD, jobs=jobs
        )
        assert parallel.bitstream == serial.bitstream
        assert [r.frame_type for r in parallel.frames] == [
            r.frame_type for r in serial.frames
        ]
        assert [r.bits for r in parallel.frames] == [r.bits for r in serial.frames]

    def test_requires_gop_cuts(self, clip):
        with pytest.raises(ValueError, match="nothing to split"):
            encode_sequence_parallel(clip, qp=18, estimator="tss", i_period=None)

    def test_requires_byte_aligned_v2(self, clip):
        with pytest.raises(ValueError, match="cannot be spliced"):
            encode_sequence_parallel(
                clip, qp=18, estimator="tss", i_period=I_PERIOD, bitstream_version=1
            )


class TestRandomAccess:
    @pytest.fixture(scope="class")
    def encoded(self):
        return encode_sequence(
            gop_clip(), qp=18, estimator="tss", bitstream_version=2, i_period=I_PERIOD
        )

    def test_seek_from_every_keyframe_matches_full_decode(self, encoded):
        full = decode_bitstream(encoded.bitstream)
        for kf in encoded.keyframes:
            tail = decode_bitstream(encoded.bitstream, start_frame=kf)
            assert tail == full[kf:]
            assert [f.index for f in tail] == list(range(kf, len(full)))

    def test_seek_to_p_frame_rejected_with_keyframe_list(self, encoded):
        with pytest.raises(ValueError, match=r"random access needs an I-frame.*\[0, 3, 6\]"):
            decode_bitstream(encoded.bitstream, start_frame=4)

    def test_seek_out_of_range(self, encoded):
        with pytest.raises(ValueError, match="out of range"):
            decode_bitstream(encoded.bitstream, start_frame=99)


class TestStreamingGop:
    @pytest.fixture(scope="class")
    def clip(self):
        return gop_clip()

    @pytest.fixture(scope="class")
    def whole(self, clip):
        return encode_sequence(
            clip,
            qp=18,
            estimator="tss",
            keep_reconstruction=True,
            bitstream_version=2,
            i_period=I_PERIOD,
        )

    def test_stream_encode_byte_identical_and_tracks_keyframes(self, clip, whole):
        encoder = Encoder(
            estimator="tss", qp=18, keep_reconstruction=False, bitstream_version=2,
            i_period=I_PERIOD,
        )
        writer = BitWriter()
        chunks, keyframes = [], []
        for position, (record, _recon) in enumerate(encoder.encode_frames(writer, iter(clip))):
            chunks.append(writer.drain())
            if record.frame_type == "I":
                keyframes.append(position)
        assert b"".join(chunks) + writer.getvalue() == whole.bitstream
        assert keyframes == [0, 3, 6]

    def test_encode_frames_from_a_gop_start_matches_serial(self, clip, whole):
        """``encode_frames(start=k)`` over one GOP's frames — what a
        per-GOP job runs — reproduces the serial encoder's records and
        byte run for that GOP."""
        encoder = Encoder(
            estimator="tss", qp=18, keep_reconstruction=False, bitstream_version=2,
            i_period=I_PERIOD,
        )
        ranges = FrameIndex.scan(whole.bitstream).ranges
        frames = list(clip)
        for start, end in split_gops(len(frames), I_PERIOD):
            writer = BitWriter()
            records = [r for r, _recon in encoder.encode_frames(writer, frames[start:end], start)]
            assert records == whole.frames[start:end]
            first, last = ranges[start][0] - 8, ranges[end - 1][1]  # with framing
            assert writer.getvalue() == whole.bitstream[first:last]

    def test_stream_decode_tracks_keyframes(self, whole):
        decoder = StreamDecoder(max_buffered_frames=16)
        decoder.feed(whole.bitstream)
        frames = list(decoder.frames())
        decoder.close()
        assert frames == whole.reconstruction
        assert decoder.keyframes == [0, 3, 6]


class TestIntraModes:
    def test_batched_costs_match_reference(self):
        y = textured_plane(48, 64, seed=11)
        assert np.array_equal(intra_mode_cost_surfaces(y), intra_mode_costs_reference(y))

    def test_vertical_wins_on_column_constant_content(self):
        # Every row identical -> the row above predicts interior MBs
        # exactly; DC (flat 128) cannot.
        row = np.clip(40 + 2 * np.arange(64), 0, 255).astype(np.uint8)
        y = np.tile(row, (48, 1))
        modes = choose_intra_modes(intra_mode_costs_reference(y))
        assert (modes[1:, :] == INTRA_VERTICAL).all()

    def test_illegal_mode_rejected_by_predictor(self):
        with pytest.raises(ValueError, match="illegal intra prediction mode 3"):
            intra_predict(np.zeros((48, 64), dtype=np.uint8), 1, 1, 16, 3)

    def test_illegal_wire_mode_rejected_by_parser(self):
        clip = Sequence([Frame(textured_plane(48, 64))], fps=30.0, name="one")
        result = encode_sequence(
            clip, qp=16, estimator="tss", bitstream_version=1, i_period=1
        )
        corrupt = bytearray(result.bitstream)
        # Force the first macroblock's 2-bit mode field (right after the
        # 43-bit picture header) to the reserved value 3.
        shift = 8 - PICTURE_HEADER_BITS % 8 - 2
        corrupt[PICTURE_HEADER_BITS // 8] |= 0b11 << shift
        with pytest.raises(ValueError, match="illegal intra prediction mode 3"):
            parse_bitstream_symbols(bytes(corrupt))

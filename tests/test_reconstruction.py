"""Golden-equivalence tests for the reconstruction engine.

The reconstruction kernels (``repro.me.engine.reconstruction`` /
``chroma_plane``) re-implement the decode/closed-loop hot path as
whole-frame batched NumPy.  Nothing about the numbers is allowed to
change: every test pins a batched path against the seed per-block
reference it replaced — same chroma vector derivation and clamping,
same interpolated samples, same rounding, same reconstructed frames,
same bitstream bytes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.codec.dct import inverse_dct
from repro.codec.decoder import decode_bitstream, parse_bitstream_symbols
from repro.codec.encoder import Encoder, encode_sequence
from repro.codec.macroblock import (
    chroma_mv,
    join_luma_blocks,
    macroblock_views,
    predict_chroma_block,
)
from repro.codec.quantizer import dequantize, dequantize_intra_dc
from repro.me.engine import (
    ChromaReferencePlane,
    ReferencePlane,
    add_residual_clip,
    chroma_mv_grids,
    composite_predictions,
    frame_mc_chroma,
    frame_mc_luma,
    split_frame_blocks,
    tile_blocks,
    tile_luma_blocks,
)
from repro.me.subpel import predict_block
from repro.me.types import MotionVector
from repro.video.frame import Frame
from repro.video.sequence import Sequence
from repro.video.synthesis.sequences import make_sequence

from .conftest import backend_matrix, shifted_plane, split_luma_blocks, textured_plane

#: Every golden equivalence below re-runs per available kernel backend.
kernel_backend = backend_matrix()


def random_plane(seed: int, h: int = 48, w: int = 64) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8)


def random_field(seed: int, rows: int, cols: int, plane_h: int, plane_w: int, s: int = 16):
    """Random legal half-pel motion grids: every block's support stays
    inside the plane (the decoder's guarantee for luma vectors)."""
    rng = np.random.default_rng(seed)
    ys = s * np.arange(rows)[:, None]
    xs = s * np.arange(cols)[None, :]
    hy_min, hy_max = -2 * ys, 2 * (plane_h - s - ys)
    hx_min, hx_max = -2 * xs, 2 * (plane_w - s - xs)
    hy = rng.integers(
        np.maximum(hy_min, -2 * 15), np.minimum(hy_max, 2 * 15) + 1, size=(rows, cols)
    )
    hx = rng.integers(
        np.maximum(hx_min, -2 * 15), np.minimum(hx_max, 2 * 15) + 1, size=(rows, cols)
    )
    return hx, hy


def moving_sequence(n=4, seed=210, dx=2, with_chroma=True):
    base_y = textured_plane(48, 64, seed=seed)
    base_cb = textured_plane(24, 32, seed=seed + 1, amplitude=25.0)
    base_cr = textured_plane(24, 32, seed=seed + 2, amplitude=25.0)
    frames = []
    for i in range(n):
        y = shifted_plane(base_y, 0, dx * i)
        cb = shifted_plane(base_cb, 0, dx * i // 2) if with_chroma else None
        cr = shifted_plane(base_cr, 0, dx * i // 2) if with_chroma else None
        frames.append(Frame(y, cb, cr, index=i))
    return Sequence(frames, fps=30, name="recon")


# -- chroma vector derivation --------------------------------------------


class TestChromaMvGrids:
    @settings(max_examples=50, deadline=None)
    @given(hx=st.integers(-64, 64), hy=st.integers(-64, 64))
    def test_matches_scalar_chroma_mv(self, hx, hy):
        """Property: the vectorized halving agrees with the scalar
        H.263 derivation on every component value."""
        gx, gy = chroma_mv_grids(np.array([[hx]]), np.array([[hy]]))
        scalar = chroma_mv(MotionVector(hx, hy))
        assert (int(gx[0, 0]), int(gy[0, 0])) == (scalar.hx, scalar.hy)

    def test_exhaustive_small_range(self):
        values = np.arange(-33, 34)
        gx, gy = chroma_mv_grids(values[None, :], values[None, :])
        for i, v in enumerate(values.tolist()):
            scalar = chroma_mv(MotionVector(v, v))
            assert int(gx[0, i]) == scalar.hx
            assert int(gy[0, i]) == scalar.hy


# -- whole-frame luma MC --------------------------------------------------


class TestFrameMcLuma:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_predict_block(self, seed):
        ref = textured_plane(48, 64, seed=seed)
        plane = ReferencePlane(ref)
        hx, hy = random_field(seed + 100, 3, 4, 48, 64)
        pred = frame_mc_luma(plane, hx, hy)
        for r in range(3):
            for c in range(4):
                mv = MotionVector(int(hx[r, c]), int(hy[r, c]))
                np.testing.assert_array_equal(
                    pred[16 * r : 16 * r + 16, 16 * c : 16 * c + 16],
                    predict_block(ref, 16 * r, 16 * c, mv, 16, 16),
                )

    def test_zero_field_is_reference(self):
        ref = random_plane(9)
        zeros = np.zeros((3, 4), dtype=np.int64)
        np.testing.assert_array_equal(frame_mc_luma(ReferencePlane(ref), zeros, zeros), ref)

    def test_out_of_plane_rejected(self):
        plane = ReferencePlane(random_plane(10))
        hx = np.zeros((3, 4), dtype=np.int64)
        hy = np.zeros((3, 4), dtype=np.int64)
        hx[0, 0] = -1  # support leaves the plane at the left border
        with pytest.raises(ValueError, match="leaves"):
            frame_mc_luma(plane, hx, hy)

    def test_grid_shape_mismatch_rejected(self):
        plane = ReferencePlane(random_plane(11))
        with pytest.raises(ValueError, match="block grid"):
            frame_mc_luma(plane, np.zeros((2, 4), dtype=np.int64), np.zeros((2, 4), dtype=np.int64))


# -- whole-frame chroma MC ------------------------------------------------


class TestFrameMcChroma:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.integers(1, 15))
    def test_matches_predict_chroma_block(self, seed, p):
        """Property: batched chroma MC reproduces the per-block
        prediction — H.263 rounding, derivation and border clamping
        included — for arbitrary luma vectors (clamping legalizes
        whatever the derivation produces)."""
        ref = random_plane(seed, 24, 32)  # chroma plane of a 48x64 frame
        rng = np.random.default_rng(seed + 1)
        hx = rng.integers(-2 * p - 3, 2 * p + 4, (3, 4))
        hy = rng.integers(-2 * p - 3, 2 * p + 4, (3, 4))
        pred = frame_mc_chroma(ReferencePlane(ref), hx, hy, p)
        for r in range(3):
            for c in range(4):
                mv = MotionVector(int(hx[r, c]), int(hy[r, c]))
                np.testing.assert_array_equal(
                    pred[8 * r : 8 * r + 8, 8 * c : 8 * c + 8],
                    predict_chroma_block(ref, 8 * r, 8 * c, mv, p),
                )

    def test_border_clamp_exercised(self):
        """Odd vectors at the frame border: the away-from-zero rounding
        exceeds the luma-implied support and must clamp identically to
        the per-block path."""
        ref = random_plane(77, 24, 32)
        p = 7
        hx = np.full((3, 4), -2 * p - 1, dtype=np.int64)
        hy = np.full((3, 4), 2 * p + 1, dtype=np.int64)
        pred = frame_mc_chroma(ReferencePlane(ref), hx, hy, p)
        for r in range(3):
            for c in range(4):
                mv = MotionVector(int(hx[r, c]), int(hy[r, c]))
                np.testing.assert_array_equal(
                    pred[8 * r : 8 * r + 8, 8 * c : 8 * c + 8],
                    predict_chroma_block(ref, 8 * r, 8 * c, mv, p),
                )


class TestChromaReferencePlane:
    def test_wrap_rejects_uncacheable(self):
        """A float64, 3-D or smaller-than-2x2 chroma plane raises, naming
        its dtype or shape, as do mismatched Cb/Cr shapes."""
        ok = np.zeros((8, 8), dtype=np.uint8)
        for bad, named in (
            (ok.astype(np.float64), "float64"),
            (np.zeros((8, 8, 2), dtype=np.uint8), r"\(8, 8, 2\)"),
            (np.zeros((1, 1), dtype=np.uint8), r"\(1, 1\)"),
        ):
            for cb, cr in ((bad, ok), (ok, bad)):
                with pytest.raises(ValueError, match=named):
                    ChromaReferencePlane(cb, cr)
        with pytest.raises(ValueError, match="Cb/Cr shapes differ"):
            ChromaReferencePlane(ok, np.zeros((8, 10), dtype=np.uint8))
        assert ChromaReferencePlane(ok, ok).shape == (8, 8)

    def test_mc_frame_matches_per_plane_calls(self):
        cb = random_plane(52, 24, 32)
        cr = random_plane(53, 24, 32)
        chroma = ChromaReferencePlane(cb, cr)
        hx, hy = random_field(54, 3, 4, 48, 64)
        pred_cb, pred_cr = chroma.mc_frame(hx, hy, 15)
        np.testing.assert_array_equal(pred_cb, frame_mc_chroma(chroma.cb, hx, hy, 15))
        np.testing.assert_array_equal(pred_cr, frame_mc_chroma(chroma.cr, hx, hy, 15))


# -- tiling / residual helpers -------------------------------------------


class TestTileHelpers:
    def test_tile_luma_blocks_inverts_split(self):
        plane = random_plane(60, 32, 48)
        rows, cols = 2, 3
        stacks = np.stack(
            [
                np.stack([split_luma_blocks(plane[16 * r : 16 * r + 16, 16 * c : 16 * c + 16])
                          for c in range(cols)])
                for r in range(rows)
            ]
        )
        np.testing.assert_array_equal(tile_luma_blocks(stacks), plane)

    def test_tile_luma_blocks_matches_join(self):
        blocks = np.random.default_rng(61).integers(0, 256, (2, 3, 4, 8, 8))
        tiled = tile_luma_blocks(blocks)
        for r in range(2):
            for c in range(3):
                np.testing.assert_array_equal(
                    tiled[16 * r : 16 * r + 16, 16 * c : 16 * c + 16],
                    join_luma_blocks(blocks[r, c]),
                )

    def test_tile_blocks_round_trip(self):
        plane = random_plane(62, 24, 32)
        grid = plane.reshape(3, 8, 4, 8).transpose(0, 2, 1, 3)
        np.testing.assert_array_equal(tile_blocks(grid), plane)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            tile_blocks(np.zeros((2, 3, 8, 4)))
        with pytest.raises(ValueError):
            tile_luma_blocks(np.zeros((2, 3, 6, 8, 8)))

    def test_split_frame_blocks_round_trips_through_tiles(self):
        y, cb, cr = random_plane(64, 32, 48), random_plane(65, 16, 24), random_plane(66, 16, 24)
        grid = split_frame_blocks(y, cb, cr)
        assert grid.shape == (2, 3, 6, 8, 8)
        assert grid.dtype == np.float64
        np.testing.assert_array_equal(tile_luma_blocks(grid[:, :, :4]), y)
        np.testing.assert_array_equal(tile_blocks(grid[:, :, 4]), cb)
        np.testing.assert_array_equal(tile_blocks(grid[:, :, 5]), cr)

    def test_split_frame_blocks_matches_per_macroblock_split(self):
        planes = (random_plane(67, 32, 48), random_plane(68, 16, 24), random_plane(69, 16, 24))
        grid = split_frame_blocks(*planes)
        for r in range(2):
            for c in range(3):
                mb_y, mb_cb, mb_cr = macroblock_views(planes, r, c)
                np.testing.assert_array_equal(grid[r, c, :4], split_luma_blocks(mb_y))
                np.testing.assert_array_equal(grid[r, c, 4], mb_cb)
                np.testing.assert_array_equal(grid[r, c, 5], mb_cr)

    def test_split_frame_blocks_rejects_non_420_planes(self):
        with pytest.raises(ValueError, match="4:2:0 macroblock grid"):
            split_frame_blocks(np.zeros((32, 48)), np.zeros((16, 16)), np.zeros((16, 16)))
        with pytest.raises(ValueError, match="4:2:0 macroblock grid"):
            split_frame_blocks(np.zeros((30, 48)), np.zeros((15, 24)), np.zeros((15, 24)))

    def test_add_residual_clip_matches_per_block_arithmetic(self):
        rng = np.random.default_rng(63)
        pred = rng.integers(0, 256, (48, 64)).astype(np.uint8)
        residual = rng.normal(0, 40, (48, 64))
        expected = np.clip(np.rint(residual + pred.astype(np.float64)), 0, 255).astype(np.uint8)
        np.testing.assert_array_equal(add_residual_clip(pred, residual), expected)


class TestCompositePredictions:
    @staticmethod
    def planes_for(k: int):
        return tuple(random_plane(70 + 3 * k + i, h, w) for i, (h, w) in
                     enumerate(((32, 48), (16, 24), (16, 24))))

    def test_each_macroblock_takes_its_chosen_reference(self):
        choice = np.array([[2, 0, 2], [1, 2, 0]])
        calls = []

        def predict(k):
            calls.append(k)
            return self.planes_for(k)

        out = composite_predictions(choice, predict)
        assert calls == [0, 1, 2]
        for r in range(2):
            for c in range(3):
                expected = macroblock_views(self.planes_for(int(choice[r, c])), r, c)
                for got, want in zip(macroblock_views(out, r, c), expected):
                    np.testing.assert_array_equal(got, want)

    def test_single_reference_returns_its_planes(self):
        planes = self.planes_for(3)
        out = composite_predictions(np.full((2, 3), 3), lambda k: planes)
        assert all(a is b for a, b in zip(out, planes))


# -- golden equivalence: decoder -----------------------------------------


class TestGoldenDecoder:
    @pytest.mark.parametrize("estimator", ["pbm", "fsbm", "acbm"])
    def test_batched_decode_bit_identical(self, estimator):
        """The tentpole guarantee: the batched decoder reconstructs the
        same frames, bit for bit, as the seed per-block loop — and both
        match the encoder's closed-loop reconstruction."""
        seq = moving_sequence(3)
        result = encode_sequence(
            seq, qp=10, estimator=estimator,
            estimator_kwargs={"p": 7}, keep_reconstruction=True,
        )
        batched = decode_bitstream(result.bitstream)
        per_block = reference.decode_bitstream(result.bitstream)
        assert len(batched) == len(per_block) == 3
        for b, s, r in zip(batched, per_block, result.reconstruction):
            assert b == s
            assert b == r

    @pytest.mark.parametrize("qp", [1, 9, 16, 31])
    def test_batched_decode_across_qp_ladder(self, qp):
        seq = moving_sequence(2)
        result = encode_sequence(seq, qp=qp, estimator="pbm", keep_reconstruction=True)
        batched = decode_bitstream(result.bitstream)
        per_block = reference.decode_bitstream(result.bitstream)
        for b, s in zip(batched, per_block):
            assert b == s

    def test_intra_only_stream(self):
        """Single-frame stream: the batched intra path (whole-frame
        dequantize + IDCT + tiling) against the per-block loop."""
        seq = moving_sequence(1)
        result = encode_sequence(seq, qp=12, estimator="pbm", keep_reconstruction=True)
        batched = decode_bitstream(result.bitstream)
        per_block = reference.decode_bitstream(result.bitstream)
        assert len(batched) == len(per_block) == 1
        assert batched[0] == per_block[0] == result.reconstruction[0]

    def test_synthetic_preset_round_trip(self):
        seq = make_sequence("carphone", frames=3)
        result = encode_sequence(seq, qp=14, estimator="acbm", keep_reconstruction=True)
        batched = decode_bitstream(result.bitstream)
        for b, r in zip(batched, result.reconstruction):
            assert b == r

    def test_half_pel_motion_stream(self):
        """Half-pel vectors exercise the cached half-plane gathers in
        both luma and chroma MC."""
        from repro.me.subpel import half_pel_block

        base = textured_plane(48, 64, seed=211)
        second = np.empty_like(base)
        second[:, :] = base
        second[:48, : 64 - 1] = half_pel_block(base, 0, 1, 48, 63)
        seq = Sequence([Frame(base, index=0), Frame(second, index=1)], fps=30)
        result = encode_sequence(seq, qp=8, estimator="fsbm",
                                 estimator_kwargs={"p": 3}, keep_reconstruction=True)
        batched = decode_bitstream(result.bitstream)
        per_block = reference.decode_bitstream(result.bitstream)
        for b, s, r in zip(batched, per_block, result.reconstruction):
            assert b == s == r


# -- golden equivalence: encoder -----------------------------------------


#: SHA-256 of encodes made when the encoder still carried its seed
#: per-block motion-compensation branch, which emitted these exact
#: bytes too: the whole-frame engine MC must not move one.
MOVING_SEQUENCE_STREAM = "c330208b524997bca1f2a5a559cbe338f2ff16112085f04171246f89cd213c6e"
MISS_AMERICA_FSBM_STREAM = "7ff2107446e4b8aa385b84eaa3928c49fa2e95dc9daec91fbff1dd1636557dc0"


#: SHA-256 of saturated-content encodes (0/255 tiles plus impulses),
#: recorded before the encoder's transform, quantisation and local
#: decode were batched over the whole frame.  Each case drives the
#: intra-DC clamp to both ends (levels 1 and 254) and pushes the intra
#: reconstruction outside 0..255 before clipping; Qp 1 also hits the
#: +-127 level clip.
SATURATED_STREAMS = {
    (1, "fsbm"): "7963304da5f75b3afaa5b2391920a2b6bac1fef4a5f771f126ec4b79121a1ce9",
    (31, "acbm"): "922de325237cd67ecb62eb82d8e931daaf198296a98034be46389e3b88738d6c",
}


def saturated_sequence(n=3, seed=230):
    rng = np.random.default_rng(seed)

    def plane(h, w):
        tiles = rng.integers(0, 2, (h // 8, w // 8)) * 255
        p = np.kron(tiles, np.ones((8, 8), dtype=np.int64))
        p[: h // 2 : 5, ::3] = 255 - p[: h // 2 : 5, ::3]  # impulses in the top half
        return p.astype(np.uint8)

    y, cb, cr = plane(48, 64), plane(24, 32), plane(24, 32)
    frames = [
        Frame(np.roll(y, 3 * i, axis=1), np.roll(cb, i, axis=1), np.roll(cr, i, axis=1), index=i)
        for i in range(n)
    ]
    return Sequence(frames, fps=30, name="saturated")


class TestGoldenEncoder:
    @pytest.mark.parametrize("qp, estimator", sorted(SATURATED_STREAMS))
    def test_saturated_content_pinned(self, qp, estimator):
        result = encode_sequence(
            saturated_sequence(), qp=qp, estimator=estimator, keep_reconstruction=True
        )
        assert hashlib.sha256(result.bitstream).hexdigest() == SATURATED_STREAMS[qp, estimator]
        pictures = parse_bitstream_symbols(result.bitstream)
        intra = pictures[0]
        assert (intra.dc_levels.min(), intra.dc_levels.max()) == (1, 254)
        coefficients = dequantize(intra.levels, qp)
        coefficients[:, 0, 0] = dequantize_intra_dc(intra.dc_levels)
        unclipped = np.rint(inverse_dct(coefficients))
        assert unclipped.min() < 0 and unclipped.max() > 255
        if qp == 1:
            assert max(int(np.abs(p.levels).max()) for p in pictures) == 127
        decoded = decode_bitstream(result.bitstream)
        assert decoded == result.reconstruction
        assert reference.decode_bitstream(result.bitstream) == decoded

    @pytest.mark.parametrize("estimator", ["pbm", "fsbm", "acbm"])
    def test_bitstream_identical_with_engine(self, estimator):
        """The engine-MC encoder emits the pinned seed-era bytes, and its
        closed-loop reconstruction is exactly what the per-block oracle
        decodes from them — the shared chroma plane changes no sample."""
        seq = moving_sequence(3, seed=220)
        result = Encoder(estimator=estimator, qp=12, estimator_kwargs={"p": 7},
                         keep_reconstruction=True).encode(seq)
        assert hashlib.sha256(result.bitstream).hexdigest() == MOVING_SEQUENCE_STREAM
        assert reference.decode_bitstream(result.bitstream) == result.reconstruction

    def test_synthetic_preset_identical(self):
        seq = make_sequence("miss_america", frames=3, seed=1)
        result = encode_sequence(seq, qp=16, estimator="fsbm")
        assert hashlib.sha256(result.bitstream).hexdigest() == MISS_AMERICA_FSBM_STREAM

    def test_engine_reconstruction_decodes_exactly(self):
        """End to end with every batched path on: encode (engine MC) →
        decode (batched reconstruction) is still the exact closed loop."""
        seq = make_sequence("foreman", frames=3, seed=2)
        result = encode_sequence(seq, qp=18, estimator="fsbm", keep_reconstruction=True)
        decoded = decode_bitstream(result.bitstream)
        for d, r in zip(decoded, result.reconstruction):
            assert d == r

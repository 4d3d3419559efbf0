"""Unit tests for repro.codec.mv_coding (H.263 median prediction + MVD)."""

import numpy as np

from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.mv_coding import predict_mv, predict_mv_arrays, write_mvd
from repro.codec.vlc import se_golomb_arrays, se_golomb_code
from repro.me.types import MotionField, MotionVector

from .conftest import read_se_golomb


def field_with(entries, rows=3, cols=4):
    field = MotionField.zeros(rows, cols)
    for (r, c), mv in entries.items():
        field.set(r, c, mv)
    return field


class TestPredictMv:
    def test_first_block_predicts_zero(self):
        field = MotionField.zeros(3, 4)
        assert predict_mv(field, 0, 0) == MotionVector.zero()

    def test_top_row_uses_left(self):
        field = field_with({(0, 0): MotionVector(6, 2)})
        assert predict_mv(field, 0, 1) == MotionVector(6, 2)

    def test_median_of_three(self):
        field = field_with(
            {
                (1, 0): MotionVector(2, 0),    # left
                (0, 1): MotionVector(4, 2),    # above
                (0, 2): MotionVector(6, -2),   # above-right
            }
        )
        assert predict_mv(field, 1, 1) == MotionVector(4, 0)

    def test_missing_above_right_treated_as_zero(self):
        field = field_with(
            {
                (1, 2): MotionVector(4, 4),   # left of (1,3)
                (0, 3): MotionVector(4, 4),   # above (last column)
            },
        )
        # above-right outside grid → zero; median(4, 4, 0) = 4.
        assert predict_mv(field, 1, 3) == MotionVector(4, 4)

    def test_left_missing_on_row_start(self):
        field = field_with(
            {
                (0, 0): MotionVector(8, 0),
                (0, 1): MotionVector(8, 0),
            }
        )
        # left → zero; median(0, 8, 8) = 8.
        assert predict_mv(field, 1, 0) == MotionVector(8, 0)

    def test_component_wise_median(self):
        field = field_with(
            {
                (1, 0): MotionVector(10, -4),
                (0, 1): MotionVector(0, 0),
                (0, 2): MotionVector(2, 8),
            }
        )
        assert predict_mv(field, 1, 1) == MotionVector(2, 0)


def mvd_bits(mv: MotionVector, predictor: MotionVector) -> int:
    """Bits :func:`write_mvd` spends on ``mv`` against ``predictor``."""
    return write_mvd(BitWriter(), mv, predictor)


class TestMvdBits:
    def test_zero_difference_costs_two_bits(self):
        # One 1-bit exp-Golomb zero per component.
        assert mvd_bits(MotionVector(4, -2), MotionVector(4, -2)) == 2

    def test_cost_grows_with_difference(self):
        pred = MotionVector.zero()
        assert mvd_bits(MotionVector(1, 0), pred) < mvd_bits(MotionVector(20, 0), pred)

    def test_write_matches_declared_bits(self):
        writer = BitWriter()
        mv, pred = MotionVector(-7, 9), MotionVector(1, -1)
        written = write_mvd(writer, mv, pred)
        assert written == se_golomb_code(-8)[1] + se_golomb_code(10)[1] == writer.bit_count

    def test_write_read_round_trip(self):
        cases = [
            (MotionVector(0, 0), MotionVector(0, 0)),
            (MotionVector(31, -31), MotionVector.zero()),
            (MotionVector(-5, 17), MotionVector(3, 3)),
        ]
        writer = BitWriter()
        for mv, pred in cases:
            write_mvd(writer, mv, pred)
        reader = BitReader(writer.getvalue())
        for mv, pred in cases:
            dhx, dhy = read_se_golomb(reader), read_se_golomb(reader)
            assert MotionVector(pred.hx + dhx, pred.hy + dhy) == mv


def field_bits(hx, hy) -> int:
    """Total MVD bits of a whole field, read off the vectorised twins
    the picture-body packer (:mod:`repro.codec.entropy`) uses."""
    rows, cols = hx.shape
    r, c = np.divmod(np.arange(rows * cols), cols)
    px, py = predict_mv_arrays(hx, hy, r, c)
    return int(se_golomb_arrays(hx.ravel() - px)[1].sum() + se_golomb_arrays(hy.ravel() - py)[1].sum())


class TestFieldBits:
    def test_uniform_field_is_cheap(self):
        uniform = np.full((4, 6), 8), np.full((4, 6), -4)
        rnd = np.random.default_rng(3)
        jagged = rnd.integers(-15, 16, (4, 6)) * 2, rnd.integers(-15, 16, (4, 6)) * 2
        assert field_bits(*uniform) < field_bits(*jagged)

    def test_zero_field_minimum_cost(self):
        zeros = np.zeros((4, 6), dtype=np.int64)
        assert field_bits(zeros, zeros) == 2 * 24  # 1 bit per component per MB

    def test_smooth_fields_beat_incoherent_ones(self):
        """The paper's R(mv) argument: predictive (smooth) fields cost
        fewer bits than full-search (incoherent) fields."""
        smooth = np.tile(np.arange(4), (3, 1)), np.zeros((3, 4), dtype=np.int64)  # slowly varying
        values = [(-20, 14), (8, -30), (0, 0), (22, 2), (-6, -8), (30, 30),
                  (-30, 4), (2, -22), (16, 16), (-12, 28), (6, -2), (26, -18)]
        noisy = np.array(values)[:, 0].reshape(3, 4), np.array(values)[:, 1].reshape(3, 4)
        assert field_bits(*smooth) < field_bits(*noisy)

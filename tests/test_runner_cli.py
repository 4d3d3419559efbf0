"""Tests for the experiments CLI (repro.experiments.runner)."""

import pytest

from repro.experiments.runner import build_parser, main

from .conftest import shm_segments


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for command in ("fig4", "fig5", "fig6", "table1", "all"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_bench_subcommands_removed(self):
        """Timing lives in benchmarks/ and perfbench/; the runner keeps
        no bench subcommands."""
        parser = build_parser()
        for command in ("decode-bench", "stream-bench", "transport-bench", "gop-bench"):
            with pytest.raises(SystemExit):
                parser.parse_args([command])

    def test_common_options_after_command(self):
        args = build_parser().parse_args(["table1", "--frames", "9", "--seed", "3"])
        assert args.frames == 9
        assert args.seed == 3

    def test_stream_subcommands_exist(self):
        parser = build_parser()
        args = parser.parse_args(["stream-encode", "--from-yuv", "clip.yuv"])
        assert args.command == "stream-encode"
        assert args.geometry.width == 176 and args.geometry.height == 144
        assert args.bitstream_version == 2
        args = parser.parse_args(["stream-decode", "stream.v2", "--chunk-size", "7"])
        assert args.command == "stream-decode"
        assert args.chunk_size == 7
        assert args.verify is False

    def test_stream_encode_geometry_parses(self):
        parser = build_parser()
        args = parser.parse_args(
            ["stream-encode", "--from-yuv", "c.yuv", "--geometry", "cif"]
        )
        assert args.geometry.width == 352
        args = parser.parse_args(
            ["stream-encode", "--from-yuv", "c.yuv", "--geometry", "64x48"]
        )
        assert (args.geometry.width, args.geometry.height) == (64, 48)
        with pytest.raises(SystemExit):
            parser.parse_args(["stream-encode", "--from-yuv", "c.yuv", "--geometry", "65x48"])

    def test_transport_and_shm_options(self):
        parser = build_parser()
        # Every --jobs subcommand takes the tri-state --shm/--no-shm.
        for command in ("fig4", "fig5", "fig6", "table1", "all"):
            assert parser.parse_args([command]).shm is None
            assert parser.parse_args([command, "--shm"]).shm is True
            assert parser.parse_args([command, "--no-shm"]).shm is False
        args = parser.parse_args(["stream-decode", "s.v2", "--pipeline", "process"])
        assert args.pipeline == "process"
        assert parser.parse_args(["stream-decode", "s.v2"]).pipeline == "off"
        with pytest.raises(SystemExit):
            parser.parse_args(["stream-decode", "s.v2", "--pipeline", "fork"])

    def test_stream_encode_requires_input(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream-encode"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_fig4_prints_classes(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "error=0" in out
        assert "true-vector fraction" in out

    def test_table1_small_run(self, capsys):
        argv = [
            "table1", "--frames", "4", "--sequences", "miss_america",
            "--qps", "30", "--fps", "30",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "max reduction vs FSBM" in out

    def test_fig5_small_run(self, capsys):
        argv = [
            "fig5", "--frames", "4", "--sequences", "miss_america",
            "--qps", "30", "16",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "miss_america" in out
        assert "acbm" in out and "fsbm" in out and "pbm" in out

    @pytest.mark.parametrize(
        "base_argv",
        [
            pytest.param(
                ["fig5", "--frames", "4", "--sequences", "miss_america",
                 "--qps", "30", "16"],
                id="fig5",
            ),
            pytest.param(["fig4"], id="fig4"),
        ],
    )
    def test_stdout_byte_identical_across_jobs_and_shm(self, capsys, base_argv):
        """The transport is invisible in the report: jobs ∈ {1, 2} ×
        shm ∈ {on, off} print byte-identical stdout, and nothing
        outlives the run in /dev/shm."""
        outputs = []
        for jobs in ("1", "2"):
            for shm_flag in ("--shm", "--no-shm"):
                assert main(base_argv + ["--jobs", jobs, shm_flag]) == 0
                outputs.append(capsys.readouterr().out)
                assert not shm_segments()
        assert outputs[0]  # the runs actually printed a report
        assert len(set(outputs)) == 1

    def test_stream_encode_decode_round_trip(self, capsys, tmp_path):
        """The CI smoke in miniature: YUV file → stream-encode (v2) →
        stream-decode in 7-byte chunks with whole-buffer identity
        gated, decoded planes written back out as YUV."""
        import numpy as np

        from repro.video.frame import Frame, FrameGeometry
        from repro.video.sequence import Sequence
        from repro.video.yuv_io import frame_size_bytes, write_yuv

        geometry = FrameGeometry(32, 32)
        rng = np.random.default_rng(3)
        clip = Sequence(
            [
                Frame(
                    rng.integers(0, 256, (32, 32), dtype=np.uint8),
                    rng.integers(0, 256, (16, 16), dtype=np.uint8),
                    rng.integers(0, 256, (16, 16), dtype=np.uint8),
                    index=i,
                )
                for i in range(3)
            ],
            fps=30,
        )
        yuv = tmp_path / "clip.yuv"
        write_yuv(yuv, clip)
        stream = tmp_path / "stream.v2"
        assert main([
            "stream-encode", "--from-yuv", str(yuv), "--geometry", "32x32",
            "--qp", "20", "--estimator", "tss", "--out", str(stream),
        ]) == 0
        decoded = tmp_path / "decoded.yuv"
        assert main([
            "stream-decode", str(stream), "--chunk-size", "7",
            "--out", str(decoded), "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "identical to whole-buffer decode: True" in out
        assert decoded.stat().st_size == 3 * frame_size_bytes(geometry)

    def test_stream_decode_rejects_zero_chunk_size(self, capsys, tmp_path):
        stream = tmp_path / "s.v2"
        stream.write_bytes(b"\x00\x00\x01\xb6")
        assert main(["stream-decode", str(stream), "--chunk-size", "0"]) == 2
        assert "chunk-size" in capsys.readouterr().err
        assert main(["stream-decode", str(stream), "--max-buffered", "0"]) == 2
        assert "max-buffered" in capsys.readouterr().err

    def test_stream_decode_reports_missing_input(self, capsys, tmp_path):
        assert main(["stream-decode", str(tmp_path / "nope.v2")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_stream_decode_reports_corrupt_stream(self, capsys, tmp_path):
        bad = tmp_path / "bad.v2"
        bad.write_bytes(b"\x00\x00\x01\xb6" + (1 << 20).to_bytes(4, "big") + b"\x00" * 32)
        assert main(["stream-decode", str(bad)]) == 1
        assert "overruns" in capsys.readouterr().err

    @pytest.fixture
    def gop_stream(self, tmp_path):
        """Two 3-frame GOPs (keyframes 0 and 3), as gop-encode writes them."""
        stream = tmp_path / "gop.v2"
        argv = [
            "gop-encode", "--frames", "6", "--i-period", "3",
            "--sequences", "miss_america", "--out", str(stream),
        ]
        assert main(argv) == 0
        return stream.read_bytes()

    def test_seek_decode_reports_truncated_stream(self, capsys, tmp_path, gop_stream):
        """A stream cut mid-frame, or one holding no frame at all:
        seek-decode prints the scan's error and returns 1, as
        stream-decode does, instead of a traceback."""
        cut = tmp_path / "cut.v2"
        for data, message in ((gop_stream[:300], "overruns"), (gop_stream[:4], "no frames")):
            cut.write_bytes(data)
            capsys.readouterr()
            for argv in (["seek-decode", str(cut)], ["seek-decode", str(cut), "--verify"]):
                assert main(argv) == 1
                assert message in capsys.readouterr().err
        cut.write_bytes(gop_stream[:300])
        assert main(["stream-decode", str(cut)]) == 1
        assert "overruns" in capsys.readouterr().err

    def test_seek_decode_reports_corrupt_stream(self, capsys, tmp_path, gop_stream):
        """Damage in the first GOP: the seek from keyframe 3 still
        decodes, and the --verify full decode reports its error and
        returns 1, as stream-decode does."""
        from repro.codec.decoder import FrameIndex, decode_bitstream

        def damaged() -> bytes:
            start, end = FrameIndex.scan(gop_stream).ranges[0]
            for offset in range(start + 4, end):
                corrupt = bytearray(gop_stream)
                corrupt[offset] ^= 0xFF
                corrupt = bytes(corrupt)
                try:
                    FrameIndex.scan(corrupt).frame_types(corrupt)
                    decode_bitstream(corrupt, start_frame=3)
                except ValueError:
                    continue  # visible before the seek: not this case
                try:
                    decode_bitstream(corrupt)
                except ValueError:
                    return corrupt
            pytest.fail("no byte of frame 0 breaks only the full decode")

        bad = tmp_path / "bad.v2"
        bad.write_bytes(damaged())
        capsys.readouterr()
        assert main(["seek-decode", str(bad), "--verify"]) == 1
        captured = capsys.readouterr()
        assert "decoded 3 frames from keyframe 3" in captured.out
        assert captured.err.startswith("error: ")
        assert main(["stream-decode", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

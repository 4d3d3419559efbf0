"""Tests for the experiments CLI (repro.experiments.runner)."""

import pytest

from repro.experiments.runner import build_parser, main
from repro.kernels import numba_available

#: Provenance keys write_records stamps into every BENCH_*.json.
STAMP_KEYS = {"backend", "machine_numba"} | (
    {"backend_numba_version"} if numba_available() else set()
)


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for command in ("fig4", "fig5", "fig6", "table1", "all", "decode-bench"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_decode_bench_options(self):
        args = build_parser().parse_args(
            ["decode-bench", "--frames", "2", "--rounds", "1", "--json", "out.json"]
        )
        assert args.frames == 2
        assert args.rounds == 1
        assert args.json == "out.json"
        assert args.estimator == "fsbm"
        assert args.parse_only is False
        assert args.bitstream_version == 1

    def test_decode_bench_parse_and_version_options(self):
        args = build_parser().parse_args(
            ["decode-bench", "--parse-only", "--bitstream-version", "2"]
        )
        assert args.parse_only is True
        assert args.bitstream_version == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["decode-bench", "--bitstream-version", "3"])

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
        args = parser.parse_args(["stream-bench", "--frames", "4"])
        assert args.command == "stream-bench"
        assert args.chunk_size == 1500

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
        args = parser.parse_args(["transport-bench", "--frames", "4"])
        assert args.command == "transport-bench"
        assert args.rounds == 3 and args.estimator == "tss"
        args = parser.parse_args(
            ["decode-bench", "--bitstream-version", "2", "--jobs", "2", "--shm"]
        )
        assert args.shm is True
        # Every --jobs subcommand takes the tri-state --shm/--no-shm.
        for command in ("fig4", "fig5", "fig6", "table1", "all"):
            assert parser.parse_args([command]).shm is None
            assert parser.parse_args([command, "--shm"]).shm is True
            assert parser.parse_args([command, "--no-shm"]).shm is False
        args = parser.parse_args(["stream-decode", "s.v2", "--pipeline", "process"])
        assert args.pipeline == "process"
        assert parser.parse_args(["stream-decode", "s.v2"]).pipeline == "off"
        assert parser.parse_args(["stream-bench"]).pipeline == "thread"
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
        import glob

        outputs = []
        for jobs in ("1", "2"):
            for shm_flag in ("--shm", "--no-shm"):
                assert main(base_argv + ["--jobs", jobs, shm_flag]) == 0
                outputs.append(capsys.readouterr().out)
                assert not glob.glob("/dev/shm/repro-*")
        assert outputs[0]  # the runs actually printed a report
        assert len(set(outputs)) == 1

    def test_decode_bench_small_run(self, capsys, tmp_path):
        """A 2-frame encode→decode round trip: verifies bit-identity,
        prints a speedup and records the JSON payload."""
        import json

        out_path = tmp_path / "BENCH_decode.json"
        argv = [
            "decode-bench", "--frames", "2", "--sequences", "miss_america",
            "--rounds", "1", "--json", str(out_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out and "True" in out
        assert "speedup" in out
        records = json.loads(out_path.read_text())
        assert set(records) == {
            "decode_per_block_ms", "decode_batched_ms", "decode_speedup",
        } | STAMP_KEYS
        assert records["decode_per_block_ms"] > 0
        assert records["decode_batched_ms"] > 0

    def test_decode_bench_parse_only(self, capsys, tmp_path):
        """--parse-only reports the parse/reconstruct split and records
        the VLC payload (BENCH_vlc.json keys)."""
        import json

        out_path = tmp_path / "BENCH_vlc.json"
        argv = [
            "decode-bench", "--frames", "2", "--sequences", "miss_america",
            "--rounds", "1", "--parse-only", "--json", str(out_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "symbols identical" in out and "True" in out
        assert "decode split" in out
        records = json.loads(out_path.read_text())
        assert set(records) == {
            "vlc_parse_lut_ms", "vlc_parse_seed_ms", "vlc_parse_speedup",
            "vlc_parse_mbps", "vlc_reconstruct_ms",
        } | STAMP_KEYS
        assert records["vlc_parse_speedup"] > 0

    def test_decode_bench_parse_only_rejects_v2(self, capsys):
        argv = ["decode-bench", "--parse-only", "--bitstream-version", "2"]
        assert main(argv) == 2

    def test_decode_bench_parse_only_rejects_jobs(self, capsys):
        """--jobs has no effect on the serial parse timing — reject it
        loudly instead of silently ignoring it."""
        argv = ["decode-bench", "--parse-only", "--jobs", "4"]
        assert main(argv) == 2

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

    def test_stream_bench_small_run(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "BENCH_stream.json"
        argv = [
            "stream-bench", "--frames", "3", "--sequences", "miss_america",
            "--qps", "20", "--rounds", "1", "--json", str(out_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "bit-identical (streamed == whole-buffer == encoder loop): True" in out
        assert "stream-encode byte-identical (v1 and v2): True" in out
        records = json.loads(out_path.read_text())
        assert set(records) == {
            "stream_whole_decode_ms", "stream_push_decode_ms",
            "stream_vs_whole_speedup", "stream_decode_mbps",
            "stream_peak_buffered_bytes", "stream_buffer_bound_bytes",
            "stream_pipeline_decode_ms", "stream_pipeline_speedup",
            "stream_pipeline_peak_buffered_bytes",
            "stream_bytes_copied", "stream_handles_passed",
            "machine_cpu_count",
        } | STAMP_KEYS
        assert records["stream_peak_buffered_bytes"] < records["stream_buffer_bound_bytes"]
        assert records["stream_pipeline_decode_ms"] > 0

    def test_decode_bench_shm_requires_a_parallel_transport(self, capsys):
        """--shm changes how payloads cross the worker pipe; without a
        parallel path (the v2 parallel parse) there is nothing to smoke,
        whatever --jobs says."""
        assert main(["decode-bench", "--shm"]) == 2
        assert "--shm" in capsys.readouterr().err
        assert main(["decode-bench", "--shm", "--jobs", "2"]) == 2
        assert "--shm" in capsys.readouterr().err

    def test_transport_bench_small_run(self, capsys, tmp_path):
        """The zero-copy claims in miniature: spec/result pickles shrink
        to handles, the 2-worker shm decode and RD sweep are
        bit-identical, and the run leaves /dev/shm clean."""
        import json

        out_path = tmp_path / "BENCH_transport.json"
        argv = [
            "transport-bench", "--frames", "2", "--sequences", "miss_america",
            "--qps", "20", "--rounds", "1", "--json", str(out_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out and "True" in out
        assert "transport sweep bench" in out
        records = json.loads(out_path.read_text())
        assert set(records) == {
            "transport_spec_pickle_bytes_plain", "transport_spec_pickle_bytes_shm",
            "transport_payload_bytes_per_frame_plain",
            "transport_payload_bytes_per_frame_shm",
            "transport_result_pickle_bytes_plain", "transport_result_pickle_bytes_shm",
            "transport_decode_plain_ms", "transport_decode_shm_ms",
            "transport_shm_speedup",
            "transport_sweep_encode_spec_bytes_value",
            "transport_sweep_encode_spec_bytes_shm",
            "transport_sweep_encode_pickle_shrink",
            "transport_sweep_sweepjob_spec_bytes_value",
            "transport_sweep_sweepjob_spec_bytes_shm",
            "transport_sweep_sweepjob_pickle_shrink",
            "transport_sweep_fig4_spec_bytes_value",
            "transport_sweep_fig4_spec_bytes_shm",
            "transport_sweep_fig4_pickle_shrink",
            "transport_sweep_payload_bytes_per_job_value",
            "transport_sweep_payload_bytes_per_job_shm",
            "transport_sweep_plain_ms", "transport_sweep_shm_ms",
            "transport_sweep_shm_speedup",
            "machine_cpu_count",
        } | STAMP_KEYS
        assert records["transport_payload_bytes_per_frame_shm"] == 0.0
        assert records["transport_spec_pickle_bytes_shm"] < records[
            "transport_spec_pickle_bytes_plain"
        ]
        assert records["transport_sweep_payload_bytes_per_job_shm"] == 0.0
        for kind in ("encode", "sweepjob", "fig4"):
            assert records[f"transport_sweep_{kind}_pickle_shrink"] >= 3.0

    def test_decode_bench_v2(self, capsys, tmp_path):
        """--bitstream-version 2 verifies the frame index and the
        parallel symbol parse alongside the usual decode identity.
        Note this spawns a small 2-worker pool: run_decode_bench
        always drives the indexed parse with at least two workers so
        the verification covers the real parallel path (the same
        pipeline CI smokes via --jobs 2)."""
        import json

        out_path = tmp_path / "BENCH_decode.json"
        argv = [
            "decode-bench", "--frames", "2", "--sequences", "miss_america",
            "--rounds", "1", "--bitstream-version", "2", "--json", str(out_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(v2)" in out
        assert "parallel parse" in out and "True" in out
        # v2 records are version-suffixed so they can never collide
        # with the v1 keys the committed baselines gate on.
        records = json.loads(out_path.read_text())
        assert set(records) == {
            "decode_v2_per_block_ms", "decode_v2_batched_ms", "decode_v2_speedup",
        } | STAMP_KEYS

"""Kernel-backend registry, selection edge cases, and compiled-kernel
bit identity.

The numba backend's kernels are plain Python functions that only get
``@njit``-wrapped lazily, so everything about them except raw speed is
testable without numba: ``make_backend(jit=False)`` builds a
"numba-sim" backend running the identical kernel bodies un-jitted.
This module pins

* registry semantics — ``REPRO_BACKEND`` resolution, the loud error
  for a forced-but-missing numba, the silent ``auto`` fallback,
  spawn-boundary name filtering;
* the flat packed LUTs against the nested LUT walk, code-for-code;
* encode/decode **bit identity** (byte-identical bitstreams, identical
  frames) between the numpy backend and the sim backend across v1/v2
  syntax, GOP structure, intra prediction and multi-reference;
* **error parity** — corrupt and truncated streams raise the same
  exception type and message under every backend, because the compiled
  scan never consumes bits unless the whole structure parsed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.decoder import decode_bitstream, parse_bitstream_symbols
from repro.codec.encoder import Encoder
from repro.codec.macroblock import read_block_levels
from repro.codec.vlc_tables import ESCAPE, TCOEF_TABLE
from repro.kernels import (
    BACKEND_ENV_VAR,
    KernelBackend,
    available_backend_names,
    get_backend,
    numba_available,
    reset_backend,
    set_backend,
)
from repro.kernels.lut_pack import (
    PACKED_TCOEF,
    TCOEF_FIRST_BITS,
    tcoef_symbol_id,
)
from repro.kernels.numba_backend import k_read_vlc, make_backend
from repro.video.frame import Frame
from repro.video.sequence import Sequence

from .conftest import shifted_plane, textured_plane


@pytest.fixture(autouse=True)
def _clean_registry(monkeypatch):
    """Each test starts from an unpinned registry with no env override
    and leaves the same way."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    reset_backend()
    yield
    reset_backend()


@pytest.fixture(scope="module")
def sim_backend() -> KernelBackend:
    return make_backend(jit=False)


def small_clip(frames: int = 4, seed: int = 7) -> Sequence:
    base = textured_plane(48, 64, seed=seed)
    return Sequence(
        [Frame(shifted_plane(base, (i % 3) - 1, i % 2), index=i) for i in range(frames)],
        fps=30.0,
        name="backendclip",
    )


# -- registry / selection edge cases -------------------------------------


class TestRegistry:
    def test_default_resolution(self):
        """No env, no pin: numba when importable, else numpy."""
        expected = "numba" if numba_available() else "numpy"
        assert get_backend().name == expected

    def test_env_var_numpy(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        reset_backend()
        assert get_backend().name == "numpy"

    def test_auto_falls_back_silently(self, monkeypatch):
        """``auto`` never raises — it is the spelling for 'numba if you
        have it', so a numba-less machine just gets numpy."""
        monkeypatch.setenv(BACKEND_ENV_VAR, "auto")
        reset_backend()
        assert get_backend().name in ("numpy", "numba")

    def test_forced_numba_without_numba_raises(self, monkeypatch):
        """``REPRO_BACKEND=numba`` on a machine without numba must fail
        loudly, naming the env var — not silently un-accelerate."""
        if numba_available():
            pytest.skip("numba installed — the forced path succeeds here")
        monkeypatch.setenv(BACKEND_ENV_VAR, "numba")
        reset_backend()
        with pytest.raises(RuntimeError, match=BACKEND_ENV_VAR):
            get_backend()
        with pytest.raises(RuntimeError, match="--backend"):
            set_backend("numba")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            set_backend("cuda")

    def test_set_backend_instance_and_reset(self, sim_backend):
        assert set_backend(sim_backend) is sim_backend
        assert get_backend() is sim_backend
        reset_backend()
        assert get_backend().name in ("numpy", "numba")

    def test_available_names(self):
        names = available_backend_names()
        assert names[0] == "numpy" or "numpy" in names
        assert ("numba" in names) == numba_available()

    def test_runner_backend_flag(self, capsys):
        """The runner's global --backend flag: numpy accepted, numba
        without numba exits 2 with the registry's error."""
        from repro.experiments.runner import main

        assert main(["fig4", "--backend", "numpy"]) == 0
        if not numba_available():
            assert main(["fig4", "--backend", "numba"]) == 2
            assert BACKEND_ENV_VAR in capsys.readouterr().err

    def test_spawn_name_filter(self, sim_backend):
        """Only real installable backend names cross the spawn boundary:
        an explicit request wins; a pinned sim instance (unknown to a
        fresh child process) must not travel."""
        from repro.parallel.pool import _spawn_backend_name

        assert _spawn_backend_name("numpy") == "numpy"
        set_backend("numpy")
        assert _spawn_backend_name(None) == "numpy"
        set_backend(sim_backend)
        assert _spawn_backend_name(None) is None
        assert _spawn_backend_name("numba") == "numba"


# -- packed LUTs ----------------------------------------------------------


class TestPackedLut:
    def test_packed_tcoef_matches_nested_walk(self):
        """Every TCOEF code decodes to the same symbol through the flat
        packed array as through the nested LUT walk."""
        for symbol, _code in TCOEF_TABLE.items():
            writer = BitWriter()
            writer.write_code(TCOEF_TABLE.encode(symbol))
            data = np.frombuffer(writer.getvalue(), dtype=np.uint8)
            sym_id, new_pos = k_read_vlc(
                data, 0, 8 * len(data), PACKED_TCOEF, TCOEF_FIRST_BITS
            )
            assert sym_id == tcoef_symbol_id(symbol)
            assert new_pos == TCOEF_TABLE.code_length(symbol)
            reader = BitReader(writer.getvalue())
            assert reader.read_vlc(TCOEF_TABLE.lut, TCOEF_TABLE.lut_first_bits) == symbol

    def test_invalid_prefix_signals_fallback(self):
        """An INVALID packed entry returns -1 (replay in Python) without
        consuming bits.  The real tables are complete Huffman codes with
        no invalid prefixes, so pin the path on a hand-built 1-bit LUT:
        prefix ``0`` invalid, prefix ``1`` a length-1 leaf for symbol 5."""
        from repro.kernels.lut_pack import INVALID

        lut = np.array([INVALID, (1 << 16) | 5], dtype=np.int32)
        sym_id, _pos = k_read_vlc(np.zeros(1, dtype=np.uint8), 0, 8, lut, 1)
        assert sym_id == -1
        sym_id, new_pos = k_read_vlc(np.array([0x80], dtype=np.uint8), 0, 8, lut, 1)
        assert sym_id == 5
        assert new_pos == 1

    def test_truncated_stream_signals_fallback(self):
        """Bits run out mid-code: the kernel reports fallback rather
        than inventing padding (the Python replay raises the EOFError)."""
        symbol = next(sym for sym, (_v, length) in TCOEF_TABLE.items() if length >= 4)
        writer = BitWriter()
        writer.write_code(TCOEF_TABLE.encode(symbol))
        data = np.frombuffer(writer.getvalue(), dtype=np.uint8)
        nbits = TCOEF_TABLE.code_length(symbol) - 1  # one bit short
        sym_id, _pos = k_read_vlc(data, 0, nbits, PACKED_TCOEF, TCOEF_FIRST_BITS)
        assert sym_id == -1


# -- bit identity: sim backend vs numpy backend ---------------------------


ENCODER_CONFIGS = [
    dict(estimator="fsbm", qp=16, bitstream_version=1),
    dict(estimator="tss", qp=12, bitstream_version=2, i_period=2),
    dict(estimator="fsbm", qp=20, bitstream_version=2, i_period=3, n_ref_frames=2),
]


class TestSimBitIdentity:
    @pytest.mark.parametrize("config", ENCODER_CONFIGS)
    def test_encode_decode_identical(self, sim_backend, config):
        """Encoding and decoding under the (un-jitted) numba kernels is
        byte- and sample-identical to the numpy backend — v1 seed
        syntax, v2 GOP/intra-pred syntax and multi-reference alike."""
        clip = small_clip()
        set_backend("numpy")
        bs_numpy = Encoder(keep_reconstruction=False, **config).encode(clip).bitstream
        frames_numpy = decode_bitstream(bs_numpy)
        set_backend(sim_backend)
        bs_sim = Encoder(keep_reconstruction=False, **config).encode(clip).bitstream
        frames_sim = decode_bitstream(bs_numpy)
        assert bs_sim == bs_numpy
        assert len(frames_sim) == len(frames_numpy)
        assert all(a == b for a, b in zip(frames_sim, frames_numpy))

    def test_parse_symbols_identical(self, sim_backend):
        clip = small_clip()
        set_backend("numpy")
        bs = Encoder(
            estimator="tss", qp=14, bitstream_version=2, i_period=2,
            keep_reconstruction=False,
        ).encode(clip).bitstream
        parsed_numpy = parse_bitstream_symbols(bs)
        set_backend(sim_backend)
        parsed_sim = parse_bitstream_symbols(bs)
        assert len(parsed_sim) == len(parsed_numpy)
        assert all(a == b for a, b in zip(parsed_sim, parsed_numpy))


# -- error parity ---------------------------------------------------------


def _decode_outcome(bitstream: bytes):
    """(type name, message) of the decode failure, or the frame count."""
    try:
        return len(decode_bitstream(bitstream))
    except Exception as exc:  # noqa: BLE001 — parity is the whole point
        return (type(exc).__name__, str(exc))


class TestErrorParity:
    def test_corrupt_streams_fail_identically(self, sim_backend):
        """Bit flips and truncations anywhere in a valid stream produce
        the same exception type and message under both backends (the
        compiled scan backs off without consuming bits, so the Python
        path reports every error)."""
        clip = small_clip()
        set_backend("numpy")
        good = Encoder(
            estimator="tss", qp=18, bitstream_version=1, keep_reconstruction=False
        ).encode(clip).bitstream
        cases = [good[:n] for n in range(0, len(good), 97)]
        rng = np.random.default_rng(3)
        for _ in range(40):
            corrupt = bytearray(good)
            corrupt[rng.integers(0, len(good))] ^= 1 << rng.integers(0, 8)
            cases.append(bytes(corrupt))
        outcomes_numpy = []
        for case in cases:
            set_backend("numpy")
            outcomes_numpy.append(_decode_outcome(case))
        for case, expected in zip(cases, outcomes_numpy):
            set_backend(sim_backend)
            assert _decode_outcome(case) == expected

    def test_escape_level_zero_message_parity(self, sim_backend):
        """The one structure error the compiled scan detects itself
        (escape level 0) still surfaces with the Python path's exact
        message, because the scan defers to the replay."""
        writer = BitWriter()
        writer.write_code(TCOEF_TABLE.encode(ESCAPE))
        writer.write_bit(1)          # last
        writer.write_bits(0, 6)      # run
        writer.write_bits(0, 8)      # level 0 — illegal
        data = writer.getvalue()
        messages = []
        for backend in ("numpy", sim_backend):
            set_backend(backend)
            out = np.zeros(64, dtype=np.int64)
            with pytest.raises(ValueError) as excinfo:
                read_block_levels(BitReader(data), out)
            messages.append(str(excinfo.value))
            assert not out.any()
        assert messages[0] == messages[1] == "escape-coded level of 0 is illegal"

    def test_block_overflow_message_parity(self, sim_backend):
        """Events overflowing the 64-coefficient block: same ValueError
        either way (the compiled scan defers the overflow exactly like
        the reference path, so truncation stays an EOFError)."""
        long_run = next(
            sym for sym, _ in TCOEF_TABLE.items()
            if sym is not ESCAPE and sym[1] >= 10 and not sym[0]
        )
        writer = BitWriter()
        for _ in range(8):
            writer.write_code(TCOEF_TABLE.encode(long_run))
            writer.write_bit(0)
        last_sym = next(sym for sym, _ in TCOEF_TABLE.items() if sym is not ESCAPE and sym[0])
        writer.write_code(TCOEF_TABLE.encode(last_sym))
        writer.write_bit(0)
        data = writer.getvalue()
        messages = []
        for backend in ("numpy", sim_backend):
            set_backend(backend)
            out = np.zeros(64, dtype=np.int64)
            with pytest.raises(ValueError, match="overflow the block") as excinfo:
                read_block_levels(BitReader(data), out)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]


# -- sim backend kernel smoke --------------------------------------------


class TestSimKernels:
    def test_sad_surfaces_match_numpy(self, sim_backend):
        from repro.me.engine.kernels import sad_surfaces_numpy

        rng = np.random.default_rng(11)
        cur = rng.integers(0, 256, (48, 64), dtype=np.uint8)
        ref = rng.integers(0, 256, (48, 64), dtype=np.uint8)
        expected = sad_surfaces_numpy(cur, ref, 16, 7)
        got = sim_backend.sad_surfaces(cur, ref, 16, 7)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_dequant_matches_numpy(self, sim_backend):
        from repro.codec.quantizer import dequantize

        rng = np.random.default_rng(5)
        levels = rng.integers(-40, 41, (8, 8)).astype(np.int64)
        for qp in (1, 7, 16, 31):
            assert np.array_equal(sim_backend.dequant(levels, qp), dequantize(levels, qp))

    def test_idct_is_shared_binding(self, sim_backend):
        """No backend reimplements the IDCT — float reassociation could
        flip rint half-cases, so all backends bind the same matmul."""
        from repro.codec.dct import inverse_dct
        from repro.kernels.numpy_backend import BACKEND as NUMPY_BACKEND

        assert sim_backend.idct is inverse_dct
        assert NUMPY_BACKEND.idct is inverse_dct

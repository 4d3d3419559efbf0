"""Decode-side speed gates: the batched decoder and the LUT symbol
parse against the per-block / per-bit oracles in :mod:`repro.reference`.

One shared QCIF encode (foreman, ``REPRO_BENCHMARK_FRAMES`` frames,
Qp 16, FSBM); both paths read the same bytes, best-of-5 each.  The
equivalences are pinned by ``tests/test_bitstream_v2.py``,
``tests/test_reconstruction.py`` and ``tests/test_vlc_lut.py`` and
re-checked here before timing.
"""

import pytest

from repro import reference
from repro.codec.decoder import decode_bitstream, parse_bitstream_symbols
from repro.codec.encoder import encode_sequence

from .conftest import best_of


@pytest.fixture(scope="module")
def encoded(sequence_cache):
    return encode_sequence(
        sequence_cache["foreman"], qp=16, estimator="fsbm", keep_reconstruction=True
    )


def test_decode_speedup_batched_vs_per_block(encoded):
    """Batched whole-frame decode must beat the per-block oracle (which
    also parses with the per-bit reader) by >= 2.4x."""
    bitstream = encoded.bitstream
    assert decode_bitstream(bitstream) == reference.decode_bitstream(bitstream)
    batched = best_of(lambda: decode_bitstream(bitstream), 5)
    per_block = best_of(lambda: reference.decode_bitstream(bitstream), 5)
    speedup = per_block / batched
    print(
        f"\ndecode: per-block {per_block * 1e3:.1f} ms, batched {batched * 1e3:.1f} ms "
        f"-> {speedup:.2f}x"
    )
    assert speedup >= 2.4, f"batched decode regressed: only {speedup:.2f}x"


def test_parse_speedup_lut_vs_seed(encoded):
    """The LUT + word-level reader must beat the per-bit oracle parse
    by >= 3.0x on the symbol parse alone."""
    bitstream = encoded.bitstream
    assert parse_bitstream_symbols(bitstream) == reference.parse_bitstream_symbols(bitstream)
    lut = best_of(lambda: parse_bitstream_symbols(bitstream), 5)
    seed = best_of(lambda: reference.parse_bitstream_symbols(bitstream), 5)
    speedup = seed / lut
    print(f"\nparse: per-bit {seed * 1e3:.1f} ms, LUT {lut * 1e3:.1f} ms -> {speedup:.2f}x")
    assert speedup >= 3.0, f"LUT parse regressed: only {speedup:.2f}x vs the per-bit reader"

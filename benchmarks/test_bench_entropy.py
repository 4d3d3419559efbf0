"""Entropy-coding speed gate: the whole-picture body packer
(:mod:`repro.codec.entropy`) against the per-symbol oracle writer
(:func:`repro.reference.write_picture_body`).

One dense CIF encode (carphone, 2 frames, Qp 8, ACBM, the
``stream-decode-cif`` perfbench shape): its I and P picture bodies are
re-coded from the parsed symbols by both writers, best-of-5 each.  Bit
identity is pinned by ``tests/test_entropy.py`` and re-checked here
before timing.
"""

import pytest

from repro import reference
from repro.codec.bitstream import BitWriter
from repro.codec.decoder import parse_bitstream_symbols
from repro.codec.encoder import encode_sequence
from repro.codec.entropy import write_inter_body, write_intra_body
from repro.video.frame import CIF
from repro.video.synthesis.sequences import make_sequence

from .conftest import best_of


@pytest.fixture(scope="module")
def pictures():
    encoded = encode_sequence(
        make_sequence("carphone", frames=2, seed=0, geometry=CIF), qp=8, estimator="acbm"
    )
    return parse_bitstream_symbols(encoded.bitstream)


def pack(parsed):
    writer = BitWriter()
    if parsed.header.frame_type == "P":
        write_inter_body(writer, parsed.levels, parsed.hx, parsed.hy, parsed.ref_idx)
    else:
        write_intra_body(writer, parsed.levels, parsed.dc_levels)
    return writer


def oracle(parsed):
    writer = BitWriter()
    reference.write_picture_body(writer, parsed)
    return writer


@pytest.mark.parametrize("frame_type", ["I", "P"])
def test_entropy_speedup_packer_vs_per_symbol(pictures, frame_type):
    """Packing a CIF Qp 8 picture body must beat the per-symbol writer
    by >= 10x (measured about 20x on the P body and 29x on the I body
    on a 2-core x86 container)."""
    (parsed,) = [p for p in pictures if p.header.frame_type == frame_type]
    assert pack(parsed).getvalue() == oracle(parsed).getvalue()
    packed = best_of(lambda: pack(parsed), 5)
    per_symbol = best_of(lambda: oracle(parsed), 5)
    speedup = per_symbol / packed
    print(
        f"\n{frame_type} body ({pack(parsed).bit_count} bits): per-symbol "
        f"{per_symbol * 1e3:.1f} ms, packed {packed * 1e3:.2f} ms -> {speedup:.1f}x"
    )
    assert speedup >= 10.0, f"body packer regressed: only {speedup:.1f}x vs the per-symbol writer"

"""Analysis utilities: PSNR, rate-distortion curves and plain-text
report rendering."""

from repro.analysis.psnr import psnr, sequence_psnr
from repro.analysis.rd import RDCurve, RDPoint

__all__ = ["RDCurve", "RDPoint", "psnr", "sequence_psnr"]

"""VBR video substrate: GOP structure, traces, and the synthetic codec.

The paper's experiments consume a two-hour MPEG-1 trace of the movie
"Last Action Hero" (Table 1).  That trace is proprietary, so this
subpackage provides :class:`~repro.video.synthetic.SyntheticMPEGCodec`,
a scene-oriented synthetic codec simulator calibrated to the trace
statistics the paper reports (Hurst ~0.9, autocorrelation knee near lag
60, Gamma-body/heavy-tail marginals, IBBPBBPBBPBB GOP at a 12-frame I
period).  Every experiment touches the trace only through those
statistics, so the substitution preserves the behaviour under study.
"""

from .gop import FrameType, GopStructure
from .io import infer_gop_pattern, load_trace, save_trace
from .synthetic import SyntheticCodecConfig, SyntheticMPEGCodec
from .table1 import TraceParameters, paper_table1, trace_parameters
from .trace import VideoTrace

__all__ = [
    "FrameType",
    "GopStructure",
    "VideoTrace",
    "SyntheticCodecConfig",
    "SyntheticMPEGCodec",
    "TraceParameters",
    "trace_parameters",
    "paper_table1",
    "load_trace",
    "save_trace",
    "infer_gop_pattern",
]

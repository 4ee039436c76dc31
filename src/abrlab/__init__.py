"""abrlab: adaptive-bitrate buffer-control laboratory.

Client-buffer plant simulation, flatness-based feedforward with an
intelligent-proportional feedback loop, closed-form windowed bandwidth
estimation, reference replanning, and QoE reporting.
"""
__version__ = "0.1.0"

# The kernels run as plain Python; perfbench's context line still reads this.
NUMBA_ENABLED = False

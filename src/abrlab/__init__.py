"""abrlab: adaptive-bitrate buffer-control laboratory.

Client-buffer plant simulation, flatness-based feedforward with an
intelligent-proportional feedback loop, closed-form windowed bandwidth
estimation, reference replanning, and QoE reporting.
"""
from .metrics import QoEReport, avg_quality, batch_report, qoe_report, \
    quality_variation, rebuffering_time
from .plant import ChannelTrace, EpisodeLog, build_scenario, run_episode

__version__ = "0.1.0"

# The kernels run as plain Python; perfbench's context line still reads this.
NUMBA_ENABLED = False

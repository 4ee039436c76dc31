"""Compiled kernels against the plain-Python fallback path.

Without numba both sides of each comparison run the fallback; every test
prints which paths it compared (visible with pytest -s).
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from abrlab import kernels
from abrlab._accel import NUMBA_ENABLED
from abrlab.config import RunConfig
from abrlab.plant import build_scenario, run_episode

SNIPPET = """
import json
from abrlab._accel import NUMBA_ENABLED
from abrlab.config import RunConfig
from abrlab.metrics import qoe_report
from abrlab.plant import build_scenario, run_episode

cfg = RunConfig(scenario=2, duration=120.0, replan=True)
log = run_episode(build_scenario(cfg, 3), cfg)
r = qoe_report(log, cfg.chunk_duration, cfg.delta_startup)
print(json.dumps({"numba": NUMBA_ENABLED, "avg": r.avg_quality,
                  "switches": r.switch_count, "rebuf": r.rebuffer_count,
                  "x_end": log.x[-1]}))
"""


def _path(numba: bool) -> str:
    return "compiled" if numba else "fallback"


def run_subprocess(disable: bool) -> dict:
    env = dict(os.environ, ABRLAB_DISABLE_NUMBA="1" if disable else "0")
    out = subprocess.run([sys.executable, "-c", SNIPPET], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_fallback_loop_matches_compiled():
    cfg = RunConfig(scenario=3, duration=120.0, replan=True)
    trace = build_scenario(cfg, 1)
    jitted = run_episode(trace, cfg)
    compiled = kernels.episode_loop
    kernels.episode_loop = kernels._episode_loop
    try:
        plain = run_episode(trace, cfg)
    finally:
        kernels.episode_loop = compiled
    print(f"compared {_path(compiled is not kernels._episode_loop)} episode_loop "
          f"with the fallback _episode_loop")
    for name in ("x", "x_meas", "R", "u", "ref", "R_k", "x_k", "t_k"):
        np.testing.assert_allclose(getattr(jitted, name), getattr(plain, name),
                                   rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(jitted.R_k, plain.R_k)


def test_env_flag_selects_fallback():
    res = run_subprocess(disable=True)
    print(f"ABRLAB_DISABLE_NUMBA=1 selected the {_path(res['numba'])} path")
    assert res["numba"] is False


def test_fallback_episode_matches_subprocess():
    a = run_subprocess(disable=False)
    b = run_subprocess(disable=True)
    print(f"compared {_path(a['numba'])} with {_path(b['numba'])} in subprocesses"
          f" (numba {'present' if NUMBA_ENABLED else 'absent'} in this process)")
    assert a["avg"] == pytest.approx(b["avg"], rel=1e-12)
    assert a["switches"] == b["switches"]
    assert a["rebuf"] == b["rebuf"]
    assert a["x_end"] == pytest.approx(b["x_end"], rel=1e-12)

"""Compiled kernels against the plain-Python fallback path.

Without numba both sides of each comparison run the fallback; every test
prints which paths it compared (visible with pytest -s).  The interpreted
loop computes on Python floats when numba is absent; forced to index NumPy
arrays, as under numba and ``--kernel fallback`` with numba, it must give
bitwise-equal results.
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abrlab import kernels
from abrlab._accel import NUMBA_ENABLED
from abrlab.config import RunConfig
from abrlab.plant import build_scenario, run_episode

from config_strategies import run_configs

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
    # the child imports the abrlab this process imported, wherever it came from
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, ABRLAB_DISABLE_NUMBA="1" if disable else "0", PYTHONPATH=path)
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


def _interpreted(cfg, seed, on_arrays):
    """One episode through the interpreted loop, on arrays if ``on_arrays``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(kernels, "episode_loop", kernels._episode_loop)
        if on_arrays:
            m.setattr(kernels, "as_floats", lambda a: a)
        return run_episode(build_scenario(cfg, seed), cfg)


def _assert_paths_equal(cfg, seed):
    a = _interpreted(cfg, seed, on_arrays=False)
    b = _interpreted(cfg, seed, on_arrays=True)
    for name in kernels.EpisodeArrays._fields:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (seed, name)


@pytest.mark.parametrize("replan", (False, True), ids=("noreplan", "replan"))
@pytest.mark.parametrize("scenario", (1, 2, 3))
def test_float_path_matches_array_path(scenario, replan):
    default = "Python floats" if isinstance(kernels.as_floats(np.zeros(1)), list) \
        else "NumPy arrays"
    print(f"compared the interpreted _episode_loop on {default} with it on NumPy arrays")
    for seed in range(3):
        _assert_paths_equal(RunConfig(scenario=scenario, replan=replan), seed)


@settings(max_examples=40, deadline=None)
@given(cfg=run_configs(), seed=st.integers(0, 1000))
def test_float_path_matches_array_path_over_configs(cfg, seed):
    _assert_paths_equal(cfg, seed)

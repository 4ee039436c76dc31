"""Per-layer tracing from outside the program.

The tracer replaces the public functions that ``abrlab.cli`` calls, under
the names through which the CLI path reaches them, with wrappers that record
a span per call: name, start, end and the enclosing span.  Spans stay in
memory and are reduced to per-round metrics when a round ends.  Removing the
wrappers restores the original objects.

The trajectory and controller modules have no public call on the CLI path;
their work runs inside ``kernels.episode_loop`` and is timed there.
"""
import contextlib
import cProfile
import pstats
import time
from pathlib import Path

LAYERS = ("config", "plant", "estimation", "kernels", "metrics", "cli")

# (owner path from the abrlab package, attribute, span name).  The owner is
# the namespace in which the caller looks the name up at call time: the CLI
# reaches ``parse_config`` and ``run_episode`` through its own globals and
# ``qoe_report`` through ``cli.metrics``; ``plant`` reaches the kernel and
# the estimator weights through its ``kernels`` and ``estimation`` modules.
TARGETS = (
    ("cli", "parse_config", "config.parse"),
    ("cli", "run", "cli.run"),
    ("cli", "_write_plotdata", "cli.plotdata"),
    ("cli", "build_scenario", "plant.build_scenario"),
    ("cli", "run_episode", "plant.run_episode"),
    ("cli.EpisodeLog", "to_csv", "plant.log_csv"),
    ("cli.metrics", "qoe_report", "metrics.qoe_report"),
    ("cli.metrics", "batch_report", "metrics.batch_report"),
    ("cli.metrics", "reports_to_csv", "metrics.writers"),
    ("cli.metrics", "reports_to_json", "metrics.writers"),
    ("cli.metrics", "table_to_csv", "metrics.writers"),
    ("cli.metrics", "format_table", "metrics.writers"),
    ("plant.estimation", "linear_kernel_weights", "estimation.weights"),
    ("plant.estimation", "bump_kernel_weights", "estimation.weights"),
    ("plant.kernels", "episode_loop", "kernels.episode_loop"),
)

# Per-round metrics from spans: name -> (span name, what is summed).
_SPAN_METRICS = {
    "config.parse_calls": ("config.parse", "calls"),
    "config.parse_s": ("config.parse", "total"),
    "plant.build_scenario_s": ("plant.build_scenario", "total"),
    "plant.run_episode_self_s": ("plant.run_episode", "self"),
    "plant.log_csv_s": ("plant.log_csv", "total"),
    "estimation.weights_calls": ("estimation.weights", "calls"),
    "estimation.weights_s": ("estimation.weights", "total"),
    "kernels.episode_loop_calls": ("kernels.episode_loop", "calls"),
    "kernels.episode_loop_s": ("kernels.episode_loop", "total"),
    "metrics.qoe_report_s": ("metrics.qoe_report", "total"),
    "metrics.batch_report_s": ("metrics.batch_report", "total"),
    "metrics.writers_s": ("metrics.writers", "total"),
    "cli.plotdata_s": ("cli.plotdata", "total"),
    "cli.run_self_s": ("cli.run", "self"),
}


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _nbytes(value) -> int:
    """Bytes of the arrays in a kernel result: a tuple or a record of arrays."""
    if hasattr(value, "nbytes"):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    if hasattr(value, "__dict__"):
        return sum(_nbytes(v) for v in vars(value).values())
    return 0


class Tracer:
    """Install span-recording wrappers; use as a context manager."""

    def __init__(self, package):
        self.package = package
        self.spans = []        # [name, start, end, parent index or -1]
        self.steps = 0         # kernel input steps, from the first argument's size
        self.out_bytes = 0     # computed from the nbytes of kernel results
        self.errors = dict.fromkeys(LAYERS, 0)
        self.missing = []      # targets that no longer exist in the program
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        layer = name.split(".", 1)[0]
        spans, stack = self.spans, self._stack
        is_kernel = name == "kernels.episode_loop"

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if is_kernel:
                self.steps += int(getattr(args[0], "size", 0)) if args else 0
                self.out_bytes += _nbytes(result)
            return result
        return traced

    def __enter__(self):
        self.missing = []
        for path, attr, name in TARGETS:
            try:
                owner = _resolve(self.package, path)
                original = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self.missing.append(f"{path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def take_round(self) -> dict:
        """Reduce and clear the spans, counts and bytes of the round just run."""
        totals, selfs, calls = {}, {}, {}
        covered = 0.0
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            d = end - start
            totals[name] = totals.get(name, 0.0) + d
            selfs[name] = selfs.get(name, 0.0) + d - child[i]
            calls[name] = calls.get(name, 0) + 1
            # top-level layer spans: what the CLI calls directly
            if name != "cli.run" and (parent < 0 or self.spans[parent][0] == "cli.run"):
                covered += d
        out = {}
        for metric, (name, kind) in _SPAN_METRICS.items():
            table = {"calls": calls, "total": totals, "self": selfs}[kind]
            out[metric] = table.get(name, 0)
        out["kernels.steps"] = self.steps
        out["kernels.out_mb"] = self.out_bytes / 1e6
        out["kernels.ns_per_step"] = (totals.get("kernels.episode_loop", 0.0) * 1e9
                                      / self.steps if self.steps else 0.0)
        out["_covered_s"] = covered
        self.spans.clear()
        self.steps = 0
        self.out_bytes = 0
        return out


@contextlib.contextmanager
def fallback_kernel(kernels):
    """Swap the uncompiled ``_episode_loop`` in for ``kernels.episode_loop``."""
    compiled = kernels.episode_loop
    kernels.episode_loop = getattr(kernels, "_episode_loop", compiled)
    try:
        yield
    finally:
        kernels.episode_loop = compiled


def profile_shares(prof: cProfile.Profile, kernels) -> dict:
    """Shares of ``_episode_loop``'s cumulative time in ``ring_dot`` and in the
    loop's own bytecode, from a profile of calls on the uncompiled loop.

    Fallback-path figures only: compiled callees are invisible to cProfile.
    """
    kernel_file = Path(kernels.__file__).name
    found = {}
    for (filename, _line, func), (_cc, _nc, tottime, cumtime, _callers) in \
            pstats.Stats(prof).stats.items():
        if Path(filename).name == kernel_file and func in ("_episode_loop", "ring_dot"):
            found[func] = (tottime, cumtime)
    loop_tt, loop_ct = found.get("_episode_loop", (0.0, 0.0))
    ring_tt = found.get("ring_dot", (0.0, 0.0))[0]
    if loop_ct <= 0.0:
        return {"kernels.ring_dot_share": 0.0, "kernels.loop_self_share": 0.0}
    return {"kernels.ring_dot_share": ring_tt / loop_ct,
            "kernels.loop_self_share": loop_tt / loop_ct}

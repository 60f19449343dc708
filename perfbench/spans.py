"""Per-layer spans for the traced benchmark run, recorded from outside ringnet.

``traced(tracer)`` patches ringnet's public functions with wrappers that
open a span around each call. A span's self time is its duration minus the
durations of the spans opened inside it, so the self times of one pass add
up to the pass's traced time.

``from .x import y`` binds ``y`` in the importing module when it is
imported, so every name is patched where its caller looks it up:
``ringnet.cli.run_ensemble`` as well as ``ringnet.simulate``'s own globals.
A target a later version of ringnet no longer has is skipped and listed in
``missing``; its span then reports zero calls.
"""

from __future__ import annotations

import contextlib
import importlib
import time

# every span the traced run reports, with calls and self_s for each
SPANS = (
    "cli.main",
    "cli.format",
    "cli.write",
    "config.load",
    "config.parse",
    "simulate.ensemble",
    "simulate.snapshot",
    "network.step_factors",
    "network.phase_layer",
    "network.rng",
    "network.rng_init",
    "network.motif",
    "network.compose",
    "analysis.classify",
    "analysis.localization",
    "analysis.band_mass",
    "linalg.eig_unitary",
    "linalg.principal_log",
    "linalg.unitarity_defect",
)

# exact work counts recorded at the span boundaries
COUNTS = (
    "network.rng.draws",
    "simulate.realization_steps",
    "simulate.mode_steps",
    "analysis.fit_points",
    "cli.files_written",
    "cli.output_bytes",
)


class Tracer:
    """In-memory span and count accumulator for one traced pass."""

    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, total, self
        self.counts = dict.fromkeys(COUNTS, 0)
        self.missing = []
        self._stack = []

    def open(self, name: str):
        self._stack.append([name, time.perf_counter(), 0.0])

    def close(self):
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        record = self.spans[name]
        record[0] += 1
        record[1] += duration
        record[2] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, amount: int):
        self.counts[name] += int(amount)

    def wrap(self, name: str, fn, after=None):
        """Span around each call; ``after(args, kwargs, result)`` records counts."""

        def traced_call(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after:
                after(args, kwargs, result)
            return result

        return traced_call

    def wrap_generator(self, name: str, fn):
        """Span around each ``next()`` of the generator ``fn`` returns.

        The caller's work between two items stays in the caller's span.
        """

        def traced_generator(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                self.open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.close()
                yield item

        return traced_generator

    def layer_metrics(self) -> dict:
        """Flat per-layer metrics of everything recorded so far."""
        out = {}
        for name, (calls, _, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        steps = self.counts["simulate.mode_steps"]
        ensemble_self = self.spans["simulate.ensemble"][2]
        out["simulate.ns_per_mode_step"] = ensemble_self / steps * 1e9 if steps else 0.0
        return out


GENERATOR = "generator"


def _arg(args, kwargs, index: int, name: str):
    """Argument ``name`` at position ``index``, passed either way."""
    return args[index] if len(args) > index else kwargs[name]


def _targets(tracer: Tracer):
    """(module, attribute, span, hook) for every patched name.

    The hook is GENERATOR for generator functions, else None or a callable
    ``hook(args, kwargs, result)`` run after the call to record counts.
    """

    def ensemble_work(args, kwargs, result):
        scenario = _arg(args, kwargs, 0, "scenario")
        runs = _arg(args, kwargs, 3, "runs")
        tracer.count("simulate.realization_steps", runs * scenario.depth)
        tracer.count("simulate.mode_steps", runs * scenario.depth * scenario.n_modes)

    def fit_points(args, kwargs, verdict):
        tracer.count("analysis.fit_points", verdict.gaussian.n_points)
        tracer.count("analysis.fit_points", verdict.exponential.n_points)

    def written(args, kwargs, result):
        text = _arg(args, kwargs, 1, "text")
        tracer.count("cli.files_written", 1)
        tracer.count("cli.output_bytes", len(text.encode("utf-8")))

    def draws(args, kwargs, result):
        # args[0] is the RngStream instance
        tracer.count("network.rng.draws", _arg(args, kwargs, 1, "count"))

    return [
        ("ringnet.cli", "load_config", "config.load", None),
        ("ringnet.cli", "parse_config", "config.parse", None),
        ("ringnet.cli", "run_ensemble", "simulate.ensemble", ensemble_work),
        ("ringnet.cli", "classify", "analysis.classify", fit_points),
        ("ringnet.cli", "eigenvector_localization", "analysis.localization", None),
        ("ringnet.cli", "compose", "network.compose", None),
        ("ringnet.cli", "distribution_csv", "cli.format", None),
        ("ringnet.cli", "render_json", "cli.format", None),
        ("ringnet.cli", "_write_text", "cli.write", written),
        ("ringnet.simulate", "scenario_step_factors", "network.step_factors", GENERATOR),
        ("ringnet.simulate", "output_distribution", "simulate.snapshot", None),
        ("ringnet.simulate", "unitarity_defect", "linalg.unitarity_defect", None),
        ("ringnet.network", "scenario_step_factors", "network.step_factors", GENERATOR),
        ("ringnet.network", "build_motif", "network.motif", None),
        ("ringnet.network", "build_phase_layer", "network.phase_layer", None),
        ("ringnet.network", "RngStream.uniform", "network.rng", draws),
        ("ringnet.network", "RngStream.__init__", "network.rng_init", None),
        ("ringnet.analysis", "eig_unitary", "linalg.eig_unitary", None),
        ("ringnet.analysis", "principal_log_unitary", "linalg.principal_log", None),
        ("ringnet.analysis", "band_mass_profile", "analysis.band_mass", None),
        ("ringnet.linalg", "eig_unitary", "linalg.eig_unitary", None),
        ("ringnet.linalg", "unitarity_defect", "linalg.unitarity_defect", None),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Patch ringnet with ``tracer``'s spans; restore every name on exit."""
    restore = []
    try:
        for module_name, path, span, hook in _targets(tracer):
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                tracer.missing.append(f"{module_name}.{path}")
                continue
            if hook == GENERATOR:
                wrapper = tracer.wrap_generator(span, original)
            else:
                wrapper = tracer.wrap(span, original, hook)
            setattr(owner, attr, wrapper)
            restore.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

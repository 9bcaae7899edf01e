"""Spans and counters around bjj's public entry points, installed from outside.

``Tracer.install`` swaps each traced function for a wrapper wherever a bjj
module holds a reference to it, and ``uninstall`` puts the originals back,
so traced and untraced passes can alternate in one process.  Spans stay in
memory (id, parent id, job id, name, start, end, counter deltas) until the
benchmark writes them out.  The rate function and ``fmt`` run about 10^6
and 10^5 times per job, so they get counters instead of spans; one call in
``SAMPLE_EVERY`` is timed to price them.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from typing import Callable

now = time.perf_counter_ns

SAMPLE_EVERY = 64  # power of two: the counters test it with a mask


class Span:
    __slots__ = ("id", "parent", "job", "name", "start", "end",
                 "rate", "fmt", "attrs")

    def __init__(self, sid, parent, job, name, start, rate, fmt):
        self.id, self.parent, self.job, self.name = sid, parent, job, name
        self.start, self.end = start, start
        self.rate, self.fmt = rate, fmt  # counter values at open, deltas at close
        self.attrs: dict = {}

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def _timer_overhead_ns() -> float:
    """Median cost of the back-to-back clock reads around a timed call."""
    gaps = []
    for _ in range(2000):
        t0 = now()
        gaps.append(now() - t0)
    return float(statistics.median(gaps))


# Landing targets and model time units of each integrator entry point, from
# its bound arguments and result.
def _integrate_adaptive_work(args, result):
    targets = len(result) - 1 if args.get("sample_dt") is not None else 1
    return {"tu": args["t_end"] - args["s0"].t, "targets": targets}


def _sample_stroboscopic_work(args, result):
    return {"tu": args["n_periods"] * args["p"].period, "targets": args["n_periods"]}


def _advance_work(args, result):
    return {"tu": args["t_end"] - args["s0"].t, "targets": 1}


def _crosscheck_result(args, result):
    return {"max_abs_dz": result.max_abs_dz}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job: int | None = None
        # [calls, timed calls, timed ns]
        self.rate = [0, 0, 0]
        self.fmt = [0, 0, 0]
        self.timer_ns = _timer_overhead_ns()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, fn: Callable, describe=None) -> Callable:
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            span = Span(len(tracer.spans), stack[-1].id if stack else None,
                        tracer.job, name, 0, tracer.rate[0], tracer.fmt[0])
            tracer.spans.append(span)
            stack.append(span)
            span.start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = now()
                stack.pop()
                span.rate = tracer.rate[0] - span.rate
                span.fmt = tracer.fmt[0] - span.fmt
            if describe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = describe(bound.arguments, result)
            return result

        return traced

    @staticmethod
    def _counted(fn: Callable, box: list[int]) -> Callable:
        mask = SAMPLE_EVERY - 1

        @functools.wraps(fn)
        def counted(*args):
            box[0] += 1
            if box[0] & mask:
                return fn(*args)
            t0 = now()
            result = fn(*args)
            box[2] += now() - t0
            box[1] += 1
            return result

        return counted

    def _counted_rate_factory(self, make_rate: Callable) -> Callable:
        box = self.rate
        counted = self._counted

        @functools.wraps(make_rate)
        def make_counted_rate(p):
            return counted(make_rate(p), box)

        return make_counted_rate

    # -- install / uninstall ---------------------------------------------

    def _replace(self, original: object, replacement: object) -> None:
        """Point every bjj module attribute that is ``original`` elsewhere."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "bjj" and not mod_name.startswith("bjj."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        from bjj import analysis, cli, config, integrate, model, separatrix, twomode

        self._replace(model.make_rate, self._counted_rate_factory(model.make_rate))
        self._replace(config.fmt, self._counted(config.fmt, self.fmt))
        spans = [
            ("integrate.integrate_adaptive", integrate.integrate_adaptive,
             _integrate_adaptive_work),
            ("integrate.sample_stroboscopic", integrate.sample_stroboscopic,
             _sample_stroboscopic_work),
            ("integrate.advance", integrate.advance, _advance_work),
            ("twomode.integrate_twomode", twomode.integrate_twomode, None),
            ("twomode.crosscheck_max_dz", twomode.crosscheck_max_dz,
             _crosscheck_result),
            ("separatrix.melnikov_numeric", separatrix.melnikov_numeric, None),
            ("separatrix.stability_curve", separatrix.stability_curve, None),
            ("analysis.lyapunov_estimate", analysis.lyapunov_estimate, None),
            ("analysis.detect_frequency_locking",
             analysis.detect_frequency_locking, None),
            ("analysis.power_spectrum", analysis.power_spectrum, None),
            ("config.parse_config", config.parse_config, None),
            ("config.merge_sources", config.merge_sources, None),
            ("cli.main", cli.main, None),
        ]
        for name, fn, describe in spans:
            self._replace(fn, self._span(name, fn, describe))
        run_config = config.RunConfig
        from_values = run_config.__dict__["from_values"].__func__
        validate = run_config.__dict__["validate"]
        self._undo.append((run_config, "from_values", classmethod(from_values)))
        self._undo.append((run_config, "validate", validate))
        run_config.from_values = classmethod(
            self._span("config.RunConfig.from_values", from_values))
        run_config.validate = self._span("config.RunConfig.validate", validate)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- per-layer summary -----------------------------------------------

    def _price(self, box: list[int]) -> float:
        """Mean ns per call from the sampled calls, clock cost removed."""
        if box[1] == 0:
            return 0.0
        return max(box[2] / box[1] - self.timer_ns, 0.0)

    def layer_metrics(self, spans: list[Span], rate_evals: int,
                      fmt_calls: int, wall_ns: int) -> dict[str, float]:
        """Per-layer numbers for one traced pass over a workload's jobs."""
        rate_ns = self._price(self.rate)
        fmt_ns = self._price(self.fmt)
        by_id = {s.id: s for s in spans}
        child_ns = dict.fromkeys(by_id, 0)
        child_rate = dict.fromkeys(by_id, 0)
        child_fmt = dict.fromkeys(by_id, 0)
        for s in spans:
            if s.parent in by_id:
                child_ns[s.parent] += s.end - s.start
                child_rate[s.parent] += s.rate
                child_fmt[s.parent] += s.fmt

        def self_ns(s: Span) -> float:
            return (s.end - s.start - child_ns[s.id]
                    - (s.rate - child_rate[s.id]) * rate_ns
                    - (s.fmt - child_fmt[s.id]) * fmt_ns)

        def total_s(name: str) -> float:
            return sum(s.end - s.start for s in spans if s.name == name) / 1e9

        layer = {s.id: s.name.split(".", 1)[0] for s in spans}
        integ = [s for s in spans if layer[s.id] == "integrate"]
        tu = sum(s.attrs.get("tu", 0.0) for s in integ)
        targets = sum(s.attrs.get("targets", 0) for s in integ)
        evals_in_integrate = sum(s.rate for s in integ)
        lyap_ids = {s.id for s in spans if s.name == "analysis.lyapunov_estimate"}
        top_ns = sum(s.end - s.start for s in spans if s.parent not in by_id)
        return {
            "model.rate_evals": rate_evals,
            "model.rate_ns": rate_ns,
            "integrate.calls": len(integ),
            "integrate.self_s": sum(self_ns(s) for s in integ) / 1e9,
            "integrate.evals_per_tu": evals_in_integrate / tu if tu else 0.0,
            "integrate.evals_per_target":
                evals_in_integrate / targets if targets else 0.0,
            "twomode.s": total_s("twomode.integrate_twomode"),
            "twomode.max_abs_dz": max(
                (s.attrs["max_abs_dz"] for s in spans
                 if s.name == "twomode.crosscheck_max_dz"), default=0.0),
            "separatrix.melnikov_s": total_s("separatrix.melnikov_numeric"),
            "separatrix.curve_s": total_s("separatrix.stability_curve"),
            "analysis.lyapunov_s": total_s("analysis.lyapunov_estimate"),
            "analysis.lyapunov_advance_calls": sum(
                1 for s in spans
                if s.name == "integrate.advance" and s.parent in lyap_ids),
            "analysis.locking_s": total_s("analysis.detect_frequency_locking"),
            "analysis.spectrum_s": total_s("analysis.power_spectrum"),
            "config.resolve_s": sum(
                s.end - s.start for s in spans
                if layer[s.id] == "config"
                and layer.get(s.parent) != "config") / 1e9,
            "config.fmt_calls": fmt_calls,
            "config.fmt_s": fmt_calls * fmt_ns / 1e9,
            "cli.self_s": sum(self_ns(s) for s in spans
                              if s.name == "cli.main") / 1e9,
            "trace.unattributed_frac": (wall_ns - top_ns) / wall_ns,
        }

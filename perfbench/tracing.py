"""Layer tracing for the benchmark's traced runs.

Wrappers go on the public functions of risense's modules, in every module
that binds the function under some name (``budget.wmmse_active`` and
``optimizer.equivalent_channels`` are the same objects as
``optimizer.wmmse_active`` and ``sensing.equivalent_channels``). Each call
records a span (layer, start, end, parent span, round) in memory; the
spans are written out when the run ends. A layer's self time is the time of
its spans minus the time of the traced spans they called.

Timed runs install no tracer.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array

# (module, function) -> (layer, counted). A counted function adds one to its
# layer's call count; the others only give their time to the layer.
SPAN_FUNCTIONS = {
    ("channel", "sample_rayleigh_channelset"): ("channel.draw", True),
    ("channel", "build_los_channelset"): ("channel.los", True),
    ("channel", "steering_vector_upa"): ("channel.steering", True),
    ("optimizer", "wmmse_active"): ("optimizer.wmmse", True),
    ("optimizer", "wmmse_passive"): ("optimizer.wmmse", True),
    ("optimizer", "mf_init_phi"): ("optimizer.wmmse", False),
    ("optimizer", "update_u"): ("optimizer.receiver", False),
    ("optimizer", "mse_epsilon"): ("optimizer.receiver", False),
    ("optimizer", "build_qcqp"): ("optimizer.qcqp_build", False),
    ("optimizer", "solve_p22"): ("optimizer.qcqp", True),
    ("optimizer", "solve_p22p_unit_modulus"): ("optimizer.qcqp", True),
    ("sensing", "noise_covariance"): ("sensing.covariance", True),
    ("sensing", "sample_signals"): ("sensing.synthesize", True),
    ("sensing", "whiten"): ("sensing.whiten", False),
    ("sensing", "psd_sqrt_inverse"): ("sensing.whiten", False),
    ("sensing", "max_eig_statistic"): ("sensing.max_eig", False),
    ("sensing", "population_eta"): ("sensing.eta", False),
    ("sensing", "spiked_stats"): ("sensing.eta", False),
    ("sensing", "predicted_pd"): ("sensing.eta", False),
    ("sensing", "detection_threshold"): ("sensing.threshold", False),
    ("sensing", "solve_min_eta"): ("sensing.threshold", False),
    ("budget", "required_budget"): ("budget.plan", True),
    ("budget", "ClosedFormContext.from_scenario"): ("budget.context", True),
    ("budget", "mf_phi"): ("budget.closed_form", False),
    ("budget", "mmse_phi"): ("budget.closed_form", False),
    ("budget", "zf_phi"): ("budget.closed_form", False),
    ("budget", "passive_mf_eta"): ("budget.closed_form", False),
    ("harness", "run_detection_mc"): ("harness.mc", False),
    ("harness", "load_scenario"): ("harness.load", False),
    ("cli", "main"): ("cli", False),
}
# Counted without a span: their time stays with the calling layer.
# sample_cn also counts the Gaussian variates drawn under sensing.synthesize.
COUNT_FUNCTIONS = {
    ("sensing", "equivalent_channels"): "sensing.equiv",
    ("rng", "sample_cn"): "rng.sample_cn",
}
MODULES = ("channel", "optimizer", "sensing", "budget", "harness", "cli", "rng")


def _modules() -> dict:
    return {name: importlib.import_module(f"risense.{name}") for name in MODULES}


class Rebinder:
    """Replaces a function in every risense module that binds it; undo() restores."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._mods = _modules()

    def replace(self, module: str, qualname: str, make_wrapper) -> bool:
        mod = self._mods[module]
        if "." in qualname:  # a classmethod
            cls_name, meth = qualname.split(".")
            cls = getattr(mod, cls_name, None)
            raw = None if cls is None else cls.__dict__.get(meth)
            if not isinstance(raw, classmethod):
                self.missing.append(f"{module}.{qualname}")
                return False
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, classmethod(make_wrapper(raw.__func__)))
            return True
        orig = getattr(mod, qualname, None)
        if orig is None:
            self.missing.append(f"{module}.{qualname}")
            return False
        wrapper = make_wrapper(orig)
        for other in self._mods.values():
            for name, value in list(vars(other).items()):
                if value is orig:
                    self._undo.append((other, name, value))
                    setattr(other, name, wrapper)
        return True

    def undo(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()


class Tracer:
    """In-memory spans, per-layer self time and call counts."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.extra = dict.fromkeys(("optimizer.wmmse.iters", "sensing.synthesize.variates",
                                    "budget.plan.probes"), 0.0)
        # span columns: layer id, start, end, parent span (-1 at top), round
        self.sp_layer = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("i")
        self.sp_round = array("i")
        self.round = 0
        self.paused = False  # calls made while paused (the checks) go untraced
        self._stack: list[list] = []  # [span index, layer, child time]
        self._rebinder: Rebinder | None = None

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
            self.self_s.setdefault(layer, 0.0)
        return self._layer_ids[layer]

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value

    def current_layer(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def _span_wrapper(self, layer: str, counted: bool, fn):
        lid = self._layer_id(layer)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if counted:
                tracer.calls[layer] = tracer.calls.get(layer, 0) + 1
            idx = len(tracer.sp_start)
            parent = stack[-1][0] if stack else -1
            tracer.sp_layer.append(lid)
            tracer.sp_parent.append(parent)
            tracer.sp_round.append(tracer.round)
            tracer.sp_start.append(0.0)
            tracer.sp_end.append(0.0)
            frame = [idx, layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tracer.sp_start[idx] = t0
                tracer.sp_end[idx] = t1
                tracer.self_s[layer] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if counted and layer == "optimizer.wmmse":
                tracer.add("optimizer.wmmse.iters", wmmse_iterations(result))
            elif counted and layer == "budget.plan":
                tracer.add("budget.plan.probes", len(result.probes))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, key: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer.calls[key] = tracer.calls.get(key, 0) + 1
            result = fn(*args, **kwargs)
            if key == "rng.sample_cn" and tracer.current_layer() == "sensing.synthesize":
                tracer.add("sensing.synthesize.variates", result.size)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> list[str]:
        """Wrap every traced function; returns the names not found.

        Every layer starts at zero, so a layer whose functions are gone or
        never called still reports its metrics.
        """
        rb = Rebinder()
        for (module, name), (layer, counted) in SPAN_FUNCTIONS.items():
            self._layer_id(layer)
            if counted:
                self.calls.setdefault(layer, 0)
            rb.replace(module, name, lambda fn, l=layer, c=counted: self._span_wrapper(l, c, fn))
        for (module, name), key in COUNT_FUNCTIONS.items():
            self.calls.setdefault(key, 0)
            rb.replace(module, name, lambda fn, k=key: self._count_wrapper(k, fn))
        self._rebinder = rb
        return rb.missing

    def uninstall(self) -> None:
        if self._rebinder is not None:
            self._rebinder.undo()
            self._rebinder = None

    def metrics(self, ops: int, overhead_s: float) -> dict:
        """Per-layer metrics per operation, named as in BENCHMARK.json.

        ``optimizer.wmmse.iters`` is per WMMSE call instead.
        """
        out = {f"{layer}.self_s": t / ops for layer, t in self.self_s.items()}
        out.update({f"{layer}.calls": n / ops for layer, n in self.calls.items()})
        out.update({key: v / ops for key, v in self.extra.items()})
        wmmse_calls = self.calls["optimizer.wmmse"]
        out["optimizer.wmmse.iters"] = (self.extra["optimizer.wmmse.iters"] / wmmse_calls
                                        if wmmse_calls else 0.0)
        out["trace.overhead_s"] = overhead_s / ops
        return out

    def write_spans(self, path: str) -> int:
        """Write the spans as gzipped TSV: layer, start, end, parent span, round."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tlayer\tstart_s\tend_s\tparent\tround\n")
            t_ref = self.sp_start[0] if len(self.sp_start) else 0.0
            for i in range(len(self.sp_start)):
                fh.write(f"{i}\t{self.layers[self.sp_layer[i]]}\t{self.sp_start[i] - t_ref:.9f}\t"
                         f"{self.sp_end[i] - t_ref:.9f}\t{self.sp_parent[i]}\t{self.sp_round[i]}\n")
        return len(self.sp_start)


def wmmse_iterations(result) -> int:
    """Outer iterations of a WMMSE solve: its trace holds three values per iteration."""
    return len(result.trace) // 3

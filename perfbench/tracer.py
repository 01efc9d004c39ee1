"""Span tracer for the stochage package, applied from outside the package.

:meth:`Tracer.install` wraps the public functions of every layer module,
a few private ones the per-layer metrics need, and selected methods, and
rebinds each wrapper everywhere the package bound the original (for
example ``diffusion_substep`` also lives in ``stochage.oracle``).  Each
call records a span (name, start, end, parent, iteration id) in memory.
Self time is the span's duration minus the time its child spans cover.

:func:`layer_metrics` turns the summed raw counts of one workload
iteration into the per-layer metrics the benchmark reports.  This module
imports only the standard library at module level, so `run.py` can use
:func:`layer_metrics` without numpy.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import os
import sys
import time

LAYERS = ("cli", "modelfile", "ensemble", "noise", "rescale", "solver",
          "oracle", "rates", "grid", "estimates", "fileio")

# Private functions that carry per-layer work the metrics need.
PRIVATE = {
    "cli": ("_cmd_check", "_cmd_compare", "_cmd_convergence", "_perturbed_model"),
    "ensemble": ("_run_one_path", "_persist", "_cached_model"),
    "solver": ("_sweep", "_boundary_k_sq", "_auto_guard"),
}

# Methods wrapped on their class; None means every method the class defines.
METHODS = {
    "noise": {"AmplitudeGrids": ("__init__",)},
    "rescale": {"RescaledCoefficients": None},
    "oracle": {"_DirectContext": ("build", "boundary")},
    "rates": {cls: ("__call__",) for cls in (
        "ConstantRate", "LogisticRate", "AgeProfileRate", "AgeWindowRate",
        "ProductRate", "CustomRate")},
}

FILE_WRITERS = ("fileio.save_field", "fileio.save_bundle",
                "fileio.write_series_csv", "fileio.write_check_report")
COUNTED = frozenset(("solver.tridiagonal_solve", "solver.truncate_argument",
                     "oracle.em_step", "solver.solve_rescaled",
                     "oracle.solve_direct") + FILE_WRITERS)
NORMS = ("grid.l2_norm", "grid.weighted_population", "grid.gradient_energy",
         "grid.boundary_norm_sq")


def _thomas_counts(rhs_shape) -> dict:
    """Computed work of one batched ``tridiagonal_solve`` call.

    Per system of n unknowns the forward sweep does 2 divisions for row 0,
    then per row a multiply-subtract for the pivot, a division for the
    upper coefficient (all rows but the last) and a multiply-subtract
    plus division for the right side; back substitution does one
    multiply-subtract per row.  Bytes count the compulsory traffic only:
    four input arrays read and the solution written once, eight bytes per
    entry, ignoring caches and the temporaries numpy allocates.
    """
    n = rhs_shape[-1] if rhs_shape else 1
    unknowns = 1
    for dim in rhs_shape:
        unknowns *= dim
    systems = unknowns // n if n else 0
    flops_per_system = 2 + 7 * (n - 1) + max(n - 2, 0)
    return {"thomas_systems": systems, "thomas_unknowns": unknowns,
            "thomas_flops": systems * flops_per_system,
            "thomas_bytes": 5 * 8 * unknowns}


def _count(tracer: "Tracer", name: str, args, kwargs, result) -> None:
    """Counters read at a span boundary from its arguments and result."""
    c = tracer.counters
    if name == "solver.tridiagonal_solve":
        rhs = args[3] if len(args) > 3 else kwargs["rhs"]
        for key, val in _thomas_counts(rhs.shape).items():
            c[key] = c.get(key, 0) + val
    elif name == "solver.truncate_argument":
        if result is not (args[0] if args else kwargs["values"]):
            c["truncations"] = c.get("truncations", 0) + 1
    elif name == "oracle.em_step":
        if result[2]:
            c["noise_factor_warnings"] = c.get("noise_factor_warnings", 0) + 1
    elif name in ("solver.solve_rescaled", "oracle.solve_direct"):
        n_t = (args[0] if args else kwargs["model"]).grid.n_t
        route = "rescaled" if name == "solver.solve_rescaled" else "direct"
        c["paths"] = c.get("paths", 0) + 1
        c["steps"] = c.get("steps", 0) + n_t
        c["nodes"] = c.get("nodes", 0) + n_t + 1
        c[f"nodes_{route}"] = c.get(f"nodes_{route}", 0) + n_t + 1
    elif name in FILE_WRITERS:
        path = args[0] if args else kwargs["path"]
        c["bytes_written"] = c.get("bytes_written", 0) + os.path.getsize(path)


class Tracer:
    """In-memory span recorder for one command in one process.

    A call records only its name, start, end and parent id; self times,
    call counts and parent-child edges are derived from those afterwards,
    outside the measured command.  Names go to a list of strings and the
    numbers to a flat integer array, so hundreds of thousands of spans
    add no objects for the cyclic garbage collector to scan.
    """

    def __init__(self, iteration: int = 0):
        self.iteration = iteration
        self.names: list[str] = []
        self.times = array.array("q")          # start_ns, end_ns, parent id
        self.counters: dict[str, int] = {}
        self._stack: list[int] = [-1]          # ids of the open spans
        self._originals: list[tuple] = []      # (owner, attribute, original)

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span named ``name``."""
        tracer = self
        names, times, stack = self.names, self.times, self._stack
        counted = name in COUNTED
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            times.extend((clock(), 0, stack[-1]))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                times[3 * idx + 1] = clock()
                stack.pop()
            if counted:
                _count(tracer, name, args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced callables and rebind them across the package."""
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"stochage.{layer}")
            for attr, value in vars(mod).items():
                own = getattr(value, "__module__", None) == mod.__name__
                if not own or not callable(value) or inspect.isclass(value):
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                replace[id(value)] = self.wrap(f"{layer}.{attr}", value)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                names = methods or [n for n, v in vars(cls).items()
                                    if inspect.isfunction(v)]
                for meth in names:
                    self._wrap_method(cls, meth, f"{layer}.{cls_name}.{meth}")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "stochage"
                                   or mod_name.startswith("stochage.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _wrap_method(self, cls, meth: str, name: str) -> None:
        raw = vars(cls)[meth]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__))
        else:
            wrapped = self.wrap(name, raw)
        self._originals.append((cls, meth, raw))
        setattr(cls, meth, wrapped)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for owner, attr, value in reversed(self._originals):
            setattr(owner, attr, value)
        self._originals.clear()

    # -- output --------------------------------------------------------------

    def raw(self) -> dict:
        """Self time, calls and parent>child edge counts per span name, plus
        the counters: the input of :func:`layer_metrics`."""
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        edges: dict[str, int] = {}
        names, t = self.names, self.times
        for idx, name in enumerate(names):
            duration = t[3 * idx + 1] - t[3 * idx]
            self_ns[name] = self_ns.get(name, 0) + duration
            calls[name] = calls.get(name, 0) + 1
            parent = t[3 * idx + 2]
            parent_name = names[parent] if parent >= 0 else ""
            if parent >= 0:
                self_ns[parent_name] -= duration
            edge = f"{parent_name}>{name}"
            edges[edge] = edges.get(edge, 0) + 1
        return {"self_ns": self_ns, "calls": calls, "edges": edges,
                "counters": dict(self.counters)}

    def write_spans(self, path) -> None:
        """One CSV row per span: iteration, id, parent id, name, start, end."""
        with open(path, "w") as fh:
            fh.write("iteration,span,parent,name,start_ns,end_ns\n")
            t = self.times
            for idx, name in enumerate(self.names):
                fh.write(f"{self.iteration},{idx},{t[3 * idx + 2]},{name},"
                         f"{t[3 * idx]},{t[3 * idx + 1]}\n")


def merge_raw(raws) -> dict:
    """Sum the raw counts of several commands (one workload iteration)."""
    out: dict = {"self_ns": {}, "calls": {}, "edges": {}, "counters": {}}
    for raw in raws:
        for part, values in raw.items():
            acc = out[part]
            for key, val in values.items():
                acc[key] = acc.get(key, 0) + val
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict:
    """Per-layer metrics of one workload iteration: name -> (value, unit)."""
    self_ns, calls, cnt = raw["self_ns"], raw["calls"], raw["counters"]

    def secs(*names):
        return sum(self_ns.get(n, 0) for n in names) / 1e9

    def layer_secs(layer):
        return sum(v for k, v in self_ns.items()
                   if k.startswith(layer + ".")) / 1e9

    def n(*names):
        return sum(calls.get(name, 0) for name in names)

    steps = cnt.get("steps", 0)
    picard_steps = n("solver.picard_step_solve")
    postprocess = secs("ensemble.density_final", "ensemble.density_at",
                       "ensemble.mass_series")
    sups = secs("rescale.RescaledCoefficients.coefficient_sups")
    em_step = secs("oracle.em_step")
    thomas = secs("solver.tridiagonal_solve")
    unknowns = cnt.get("thomas_unknowns", 0)
    m = {
        "cli.check_s": (secs("cli._cmd_check", "cli._perturbed_model"), "s"),
        "cli.compare_s": (secs("cli._cmd_compare"), "s"),
        "cli.convergence_s": (secs("cli._cmd_convergence"), "s"),
        "modelfile.parse_s": (layer_secs("modelfile"), "s"),
        "modelfile.parse_calls": (n("modelfile.parse_model"), "count"),
        "ensemble.postprocess_s": (postprocess, "s"),
        "ensemble.self_s": (layer_secs("ensemble") - postprocess, "s"),
        "noise.sample_bundle_s": (secs("noise.sample_bundle", "noise.coarsen"), "s"),
        "noise.evaluate_s": (secs("noise.evaluate_noise", "noise.ito_correction",
                                  "noise.AmplitudeGrids.__init__"), "s"),
        "noise.evaluate_per_node": (_ratio(n("noise.evaluate_noise"),
                                           cnt.get("nodes", 0)), "calls/node"),
        "noise.amplitude_grids_builds": (n("noise.AmplitudeGrids.__init__"), "count"),
        "rescale.coeff_s": (layer_secs("rescale") - sups, "s"),
        "rescale.k_face_per_node": (_ratio(n("rescale.RescaledCoefficients.k_face"),
                                           cnt.get("nodes_rescaled", 0)), "calls/node"),
        "rescale.sups_s": (sups, "s"),
        "solver.picard_s": (secs("solver.picard_step_solve"), "s"),
        "solver.picard_steps": (picard_steps, "count"),
        "solver.solves_per_step": (_ratio(
            raw["edges"].get("solver.picard_step_solve>solver.diffusion_substep", 0),
            picard_steps), "solves/step"),
        "solver.diffusion_s": (secs("solver.diffusion_substep", "solver._sweep"), "s"),
        "solver.transport_s": (secs("solver.transport_reaction_substep"), "s"),
        "solver.renewal_s": (secs("solver.renewal_row"), "s"),
        "solver.truncate_s": (secs("solver.truncate_argument"), "s"),
        "solver.truncations": (cnt.get("truncations", 0), "count"),
        "solver.substep_calls_per_path": (_ratio(
            n("solver.transport_reaction_substep", "solver.renewal_row",
              "solver.diffusion_substep"), cnt.get("paths", 0)), "calls/path"),
        "solver.march_s": (secs("solver.solve_rescaled", "solver._boundary_k_sq",
                                "solver._auto_guard"), "s"),
        "solver.thomas_s": (thomas, "s"),
        "solver.thomas_systems": (cnt.get("thomas_systems", 0), "count"),
        "solver.thomas_unknowns": (unknowns, "count"),
        "solver.thomas_ns_per_unknown": (_ratio(thomas * 1e9, unknowns), "ns"),
        "solver.thomas_bytes_computed": (cnt.get("thomas_bytes", 0), "B"),
        "solver.thomas_flops_computed": (cnt.get("thomas_flops", 0), "flop"),
        "oracle.em_step_s": (em_step, "s"),
        "oracle.em_steps": (n("oracle.em_step"), "count"),
        "oracle.noise_factor_warnings": (cnt.get("noise_factor_warnings", 0), "count"),
        "oracle.march_s": (layer_secs("oracle") - em_step, "s"),
        "rates.eval_s": (layer_secs("rates"), "s"),
        "rates.eval_calls_per_step": (_ratio(n("rates.evaluate_on_grid"), steps),
                                      "calls/step"),
        "grid.norms_s": (secs(*NORMS, "grid.forward_differences"), "s"),
        "grid.norm_calls_per_step": (_ratio(n(*NORMS), steps), "calls/step"),
        "estimates.constants_s": (secs("estimates.constants_for_run",
                                       "estimates.compute_constants",
                                       "estimates.growth_factor"), "s"),
        "estimates.weak_residual_s": (secs("estimates.weak_residual_random",
                                           "estimates.weak_residual_stochastic",
                                           "estimates.build_test_functions"), "s"),
        "estimates.dependence_s": (secs("estimates.dependence_check"), "s"),
        "estimates.apriori_s": (secs("estimates.apriori_check"), "s"),
        "fileio.write_s": (layer_secs("fileio"), "s"),
        "fileio.bytes_written": (cnt.get("bytes_written", 0), "B"),
    }
    return m

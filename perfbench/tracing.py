"""Per-module tracing from outside the package.

The traced run wraps the public functions listed in workloads.TRACED.
Several modules import those names into their own namespaces (cli imports
from every module, pdc from oracle and superop, kerr_finite_t from
kerr_zero_t), so a wrapper is installed at every binding site: each
attribute of each loaded fockprop module that is the original function.

Spans (function, start, end, parent span, op id) are kept in memory and
written out when the run ends. A span's self time is its duration minus
the time its child spans cover; children are sequential calls, so that is
the sum of their durations.
"""

import functools
import json
import sys
import weakref
from collections import defaultdict
from time import perf_counter


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fockprop" or name.startswith("fockprop."))]


def rebind(original, replacement):
    """Point every fockprop binding of `original` at `replacement`.

    Returns the list of (module, attribute) pairs that were changed, for
    restore().
    """
    sites = []
    for mod in package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                sites.append((mod, attr))
    return sites


def restore(sites, original):
    for mod, attr in sites:
        setattr(mod, attr, original)


class Tracer:
    """Wraps the listed functions; collects spans and layer counters."""

    def __init__(self, traced):
        self.names = [f"{mod}.{fn}" for mod, fns in traced.items() for fn in fns]
        self.spans = []          # [fid, start, end, parent index or -1, op id]
        self.op = -1
        self.rounds = 0
        self.order_max = 0
        self.counters = defaultdict(float)
        self._stack = []
        self._installed = []     # (original, sites)
        self._seen_mats = {}     # id(dict) -> weakref to one of its arrays

    # -- installation --------------------------------------------------

    def install(self):
        modules = {m.__name__.split(".")[-1]: m for m in package_modules()}
        for fid, name in enumerate(self.names):
            mod_name, fn_name = name.split(".")
            original = getattr(modules.get(mod_name), fn_name, None)
            if original is None:
                continue  # reported as 0 calls
            wrapper = self._wrap(fid, name, original)
            self._installed.append((original, rebind(original, wrapper)))
        self.rounds += 1

    def uninstall(self):
        for original, sites in self._installed:
            restore(sites, original)
        self._installed = []

    def _wrap(self, fid, name, fn):
        spans, stack = self.spans, self._stack
        after = {
            "fock.husimi_q": self._count_points,
            "superop.build_liouvillian": self._count_bytes,
            "oracle.rk4_evolve": self._count_steps,
            "pdc.transform_matrices": self._count_hit,
        }.get(name)
        call = functools.partial(self._expm_with_order, fn) if name == "oracle.expm_dense" else fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = call(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.op)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- layer counters ------------------------------------------------

    def _count_points(self, args, kwargs, result):
        self.counters["fock.husimi_q.points"] += len(result)

    def _count_bytes(self, args, kwargs, result):
        self.counters["superop.build_liouvillian.bytes_out"] += getattr(result, "entries", result).nbytes

    def _count_steps(self, args, kwargs, result):
        # rk4_evolve(L, rho0, t, config=None): steps from the config, or
        # from recommended_steps as the function itself would choose them
        t = args[2] if len(args) > 2 else kwargs["t"]
        if t == 0:
            return
        config = args[3] if len(args) > 3 else kwargs.get("config")
        if config is None:
            from fockprop.oracle import recommended_steps
            steps = recommended_steps(args[0] if args else kwargs["L"], t)
        else:
            steps = config.steps
        self.counters["oracle.rk4_evolve.steps"] += steps

    def _count_hit(self, args, kwargs, result):
        try:
            probe = next(iter(result.values()))
            ref = weakref.ref(probe)
        except (AttributeError, StopIteration, TypeError):
            return
        seen = self._seen_mats.get(id(result))
        if seen is not None and seen() is probe:
            self.counters["pdc.transform_matrices.hits"] += 1
        else:
            self._seen_mats[id(result)] = ref

    def _expm_with_order(self, fn, *args, **kwargs):
        """Run expm_dense and record the Taylor order its loop reached."""
        code = fn.__code__

        def local(frame, event, arg):
            if event == "return":
                self.order_max = max(self.order_max, frame.f_locals.get("k", 0))
            return local

        def enter(frame, event, arg):
            return local if frame.f_code is code else None

        previous = sys.gettrace()
        sys.settrace(enter)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.settrace(previous)

    # -- results -------------------------------------------------------

    def layer_stats(self):
        """Per-round calls, self and total seconds, and the layer counters."""
        n = len(self.names)
        calls, total, child = [0] * n, [0.0] * n, defaultdict(float)
        residual_under_select = 0
        fid_select = self._fid("pdc.transform_params")
        fid_residual = self._fid("pdc.transformed_generator_residual")
        for fid, start, end, parent, _ in self.spans:
            calls[fid] += 1
            total[fid] += end - start
            if parent >= 0:
                child[parent] += end - start
                if fid == fid_residual and self.spans[parent][0] == fid_select:
                    residual_under_select += 1
        self_s = [0.0] * n
        for idx, (fid, start, end, _, _) in enumerate(self.spans):
            self_s[fid] += (end - start) - child[idx]

        per = max(self.rounds, 1)
        stats = {}
        for fid, name in enumerate(self.names):
            stats[f"{name}.calls"] = (calls[fid] / per, "count")
            stats[f"{name}.self_s"] = (self_s[fid] / per, "s")
            stats[f"{name}.total_s"] = (total[fid] / per, "s")
        c = self.counters
        stats["fock.husimi_q.points"] = (c["fock.husimi_q.points"] / per, "count")
        stats["superop.build_liouvillian.bytes_out"] = (c["superop.build_liouvillian.bytes_out"] / per, "bytes")
        stats["oracle.expm_dense.order_max"] = (float(self.order_max), "count")
        stats["oracle.rk4_evolve.steps"] = (c["oracle.rk4_evolve.steps"] / per, "count")
        n_mats = self._calls(calls, "pdc.transform_matrices")
        stats["pdc.transform_matrices.hit_ratio"] = (
            c["pdc.transform_matrices.hits"] / n_mats if n_mats else 0.0, "ratio")
        n_select = self._calls(calls, "pdc.transform_params")
        stats["pdc.transform_params.candidates_per_call"] = (
            residual_under_select / n_select if n_select else 0.0, "count")
        return stats

    def coverage(self, expected, bypassed):
        """Names that should have run and did not, or should not and did."""
        stats = self.layer_stats()
        problems = [f"{name} not called" for name in expected if stats[f"{name}.calls"][0] == 0]
        problems += [f"{name} called {stats[f'{name}.calls'][0]:g} times per round"
                     for name in self.names
                     if name.split(".")[0] in bypassed and stats[f"{name}.calls"][0] > 0]
        return problems

    def _fid(self, name):
        return self.names.index(name) if name in self.names else None

    def _calls(self, calls, name):
        fid = self._fid(name)
        return 0 if fid is None else calls[fid]

    def write_spans(self, path, t0):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["function", "start_s", "end_s", "parent", "op"],
                "functions": self.names,
                "spans": [[fid, round(s - t0, 9), round(e - t0, 9), p, op]
                          for fid, s, e, p, op in self.spans],
            }, fh)

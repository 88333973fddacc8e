"""Layer spans recorded from outside minseq, by patching its public names.

Each wrapper replaces a name where the library looks it up: a module global
imported by name (minseq.solver.discrepancy, minseq.cf.solver_step, the
helpers minseq.cli imports), a class attribute (Poly.__sub__, Seq.extend),
or an entry of minseq.cli.COMMANDS, through which cli.run reaches the
cmd_* functions. Spans close into per-(layer, domain, n) aggregates held in
memory: a GF(2) round closes a few hundred thousand of them, too many to
keep one by one. A layer's self time is its span minus the spans of traced
layers called inside it.
"""

import importlib
import json
import time

# layer name -> [(module path, attribute)]; the first entry is the original.
FUNCTIONS = {
    "domains.parse_domain": [("minseq.domains", "parse_domain"), ("minseq", "parse_domain"),
                             ("minseq.solver", "parse_domain"), ("minseq.cli", "parse_domain")],
    "solver.step": [("minseq.solver", "solver_step"), ("minseq", "solver_step"),
                    ("minseq.cf", "solver_step"), ("minseq.nonvanish", "solver_step"),
                    ("minseq.cli", "solver_step")],
    "genfn.discrepancy": [("minseq.genfn", "discrepancy"), ("minseq.solver", "discrepancy"),
                          ("minseq.nonvanish", "discrepancy")],
    "genfn.bracket_numerator": [("minseq.genfn", "bracket_numerator"),
                                ("minseq.decomp", "bracket_numerator"),
                                ("minseq.cli", "bracket_numerator")],
    "cf.expand_prefix": [("minseq.cf", "cf_expand_prefix"), ("minseq.cli", "cf_expand_prefix")],
    "decomp.decompose": [("minseq.decomp", "decompose"), ("minseq.cli", "decompose")],
    "decomp.count": [("minseq.decomp", "count_solutions"), ("minseq.cli", "count_solutions")],
    "decomp.enumerate": [("minseq.decomp", "enumerate_solutions"),
                         ("minseq.cli", "enumerate_solutions")],
    "nonvanish.solution": [("minseq.nonvanish", "nonvanishing_solution"),
                           ("minseq.cli", "nonvanishing_solution")],
    "cli.load_seq": [("minseq.cli", "load_seq")],
}
METHODS = {
    "poly.update": [("minseq.poly", "Poly", "__sub__"), ("minseq.poly", "Poly", "scale"),
                    ("minseq.poly", "Poly", "shift")],
    "poly.mul": [("minseq.poly", "Poly", "__mul__")],
    "genfn.extend": [("minseq.genfn", "Seq", "extend")],
}


class Tracer:
    """Installs the wrappers and aggregates their spans.

    stats maps (layer, ctx) to [calls, total_s, self_s]; ctx is whatever
    the caller last set (the benchmark uses "domain/n"). Counters that are
    not times (solver mul_count, jumps, coefficient bits) go to counts.
    """

    def __init__(self):
        self.ctx = "-"
        self.stats = {}
        self.counts = {}
        self._stack = []
        self._in_step = 0
        self._saved = []

    # -- span bookkeeping --------------------------------------------------
    def _close(self, layer, start, child):
        dur = time.perf_counter() - start
        if self._stack:
            self._stack[-1] += dur
        rec = self.stats.get((layer, self.ctx))
        if rec is None:
            rec = self.stats[(layer, self.ctx)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child

    def count(self, name, value, ctx=None):
        """Add to a counter; counters named *bits keep their maximum."""
        key = (name, self.ctx if ctx is None else ctx)
        if key in self.counts:
            value = max(self.counts[key], value) if name.endswith("bits") else self.counts[key] + value
        self.counts[key] = value

    def span(self, layer, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(layer, start, tracer._stack.pop())

        return traced

    def _update_span(self, fn):
        """Poly update kernels, attributed to poly.update inside solver steps only."""
        tracer = self

        def traced(*args, **kwargs):
            tracer._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                layer = "poly.update" if tracer._in_step else "poly.other"
                tracer._close(layer, start, tracer._stack.pop())

        return traced

    def _step_span(self, fn):
        tracer = self

        def traced(state, term):
            tracer._stack.append(0.0)
            tracer._in_step += 1
            start = time.perf_counter()
            try:
                new = fn(state, term)
            finally:
                tracer._in_step -= 1
                tracer._close("solver.step", start, tracer._stack.pop())
            tracer.count("solver.mul_count", new.mul_count - state.mul_count)
            tracer.count("solver.jumps", int(len(new.mu1.coeffs) > len(state.mu1.coeffs)))
            if not new.dom.is_finite:
                bits = _max_bits(new.mu1.coeffs)
                if new.mu2 is not None:
                    bits = max(bits, _max_bits(new.mu2.coeffs))
                tracer.count("solver.max_coeff_bits", bits)
            return new

        return traced

    # -- installation ------------------------------------------------------
    def install(self, cli=False):
        """Patch every site; a name minseq no longer has is skipped (its layer reads 0)."""
        for layer, sites in FUNCTIONS.items():
            if layer.startswith("cli.") and not cli:
                continue
            orig = getattr(importlib.import_module(sites[0][0]), sites[0][1], None)
            if orig is None:
                continue
            wrapped = self._step_span(orig) if layer == "solver.step" else self.span(layer, orig)
            for mod, name in sites:
                self._patch(importlib.import_module(mod), name, wrapped)
        for layer, sites in METHODS.items():
            for mod, cls, name in sites:
                klass = getattr(importlib.import_module(mod), cls)
                orig = klass.__dict__.get(name)
                if orig is None:
                    continue
                wrapped = self._update_span(orig) if layer == "poly.update" else self.span(layer, orig)
                self._patch(klass, name, wrapped)
        if cli:
            climod = importlib.import_module("minseq.cli")
            self._patch(climod, "COMMANDS", {name: self.span(f"cli.cmd_{name}", fn)
                                             for name, fn in climod.COMMANDS.items()})

            class TracedJson:
                dumps = staticmethod(self.span("cli.json", json.dumps))

            self._patch(climod, "json", TracedJson)

    def _patch(self, owner, name, value):
        if hasattr(owner, name):
            self._saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved = []

    # -- read-out ----------------------------------------------------------
    def totals(self):
        """layer -> [calls, total_s, self_s] summed over contexts."""
        out = {}
        for (layer, _), (calls, total, self_s) in self.stats.items():
            rec = out.setdefault(layer, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return out

    def count_totals(self):
        out = {}
        for (name, _), value in self.counts.items():
            out[name] = (max(out[name], value) if name.endswith("bits") else out[name] + value
                         ) if name in out else value
        return out

    def rows(self):
        """One row per layer x context: the layer x domain x n breakdown."""
        rows = [{"layer": layer, "ctx": ctx, "calls": c, "total_s": t, "self_s": s}
                for (layer, ctx), (c, t, s) in sorted(self.stats.items())]
        rows += [{"layer": name, "ctx": ctx, "value": v}
                 for (name, ctx), v in sorted(self.counts.items())]
        return rows

    def dump(self):
        return {"stats": [[k[0], k[1], *v] for k, v in self.stats.items()],
                "counts": [[k[0], k[1], v] for k, v in self.counts.items()]}

    def merge(self, dumped):
        for layer, ctx, calls, total, self_s in dumped["stats"]:
            rec = self.stats.setdefault((layer, ctx), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, ctx, value in dumped["counts"]:
            self.count(name, value, ctx)


def _max_bits(coeffs):
    best = 0
    for c in coeffs:
        b = abs(c.numerator).bit_length()
        d = c.denominator.bit_length()
        best = max(best, b, d)
    return best

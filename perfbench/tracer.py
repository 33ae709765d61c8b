"""Spans around the package's public functions, installed from outside.

`install` replaces each listed function or method by a wrapper that records
a span (name, start, end, parent, op id) and rebinds the name in every
loaded `planecremona` module that holds the original, so calls through
`from .exactpoly import resultant` are seen too. Spans stay in memory; the
worker aggregates them and writes them out when the run ends.
"""

import sys

# (module, attribute path) of every traced callable, grouped by layer
TRACED = (
    ("exactpoly", "resultant"),
    ("exactpoly", "kernel_basis"),
    ("exactpoly", "hpoly_gcd"),
    ("exactpoly", "hpoly_gcd_many"),
    ("exactpoly", "bform_gcd"),
    ("exactpoly", "bform_rational_roots"),
    ("exactpoly", "HPoly.__mul__"),
    ("exactpoly", "HPoly.substitute"),
    ("exactpoly", "HPoly.divexact"),
    ("projmaps", "is_involution"),
    ("projmaps", "compose"),
    ("projmaps", "RationalMap.__init__"),
    ("involutions", "make_point_config"),
    ("involutions", "cubic_system"),
    ("involutions", "sextic_system"),
    ("involutions", "octic_triple_system"),
    ("involutions", "validate_dj"),
    ("involutions", "conjugated_map"),
    ("involutions", "GeiserInvolution.eval_detail"),
    ("involutions", "BertiniInvolution.eval_detail"),
    ("fixedcurve", "fixed_locus"),
    ("fixedcurve", "rational_base_points"),
    ("fixedcurve", "classify_involution"),
    ("fixedcurve", "invariant_of"),
    ("picard", "exceptional_classes"),
    ("picard", "is_minimal"),
    ("picard", "classify_pair"),
    ("cli", "parse_map"),
    ("cli", "parse_poly"),
    ("cli", "emit"),
)

NAMES = tuple(f"{mod}.{path}" for mod, path in TRACED)


class Tracer:
    """Span recorder; `clock` returns CPU seconds, `op` is the current op id."""

    def __init__(self, clock):
        self.clock = clock
        self.op = -1             # set-up until the first op
        self.spans = []          # (name index, start, end, parent span index, op id, self)
        self._stack = []         # [span index, time covered by child spans]

    def wrap(self, index, fn):
        clock = self.clock
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[frame[0]] = (index, start, end, parent, self.op, dur - frame[1])

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced


def _resolve(module, path):
    obj = module
    for part in path.split(".")[:-1]:
        obj = getattr(obj, part)
    return obj, path.split(".")[-1]


def install(tracer):
    """Wrap every TRACED callable and rebind it wherever it is bound."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "planecremona" or name.startswith("planecremona."))]
    for index, (modname, path) in enumerate(TRACED):
        owner, attr = _resolve(sys.modules[f"planecremona.{modname}"], path)
        original = owner.__dict__[attr]
        wrapper = tracer.wrap(index, original)
        if isinstance(owner, type):
            # aliases inside the class (HPoly.__rmul__ is HPoly.__mul__) share the span name
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

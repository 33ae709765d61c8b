"""One measured run of a workload, in a fresh single-threaded interpreter.

Reads a job (JSON) on stdin, imports the package from the checkout, builds
the workload's state, then runs the ops as a closed loop: one caller, each
op starting when the previous one returned. Prints one JSON result line.

Timing rule: every time is the process's CPU time, scaled by NOMINAL_MS
divided by the time of a fixed reference kernel measured around the op
(between consecutive ops, and every SAMPLE_EVERY_S of CPU inside an op
through a SIGPROF timer). The process is single-threaded, and its CPU time
is read with time.thread_time: while a CPU timer is armed, Linux may update
the process clock only at scheduler ticks (4 ms steps were seen), while the
thread clock stays exact. The kernel runs with the cyclic garbage collector paused, and
its CPU time inside an op is subtracted from the op. Answers are returned to
the caller, which checks them outside the timed region.
"""

import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction
from statistics import median

import tracer as tracing

# Median kernel time on the reference machine (2-core x86-64 VM, Python
# 3.11.7); fixed once, so scaled times are comparable across runs.
NOMINAL_MS = 2.20
SAMPLE_EVERY_S = 0.02
# The host alternates between phases in which the kernel runs up to 1.9x
# faster; the package's ops speed up less. Between whole Bertini runs in the
# two phases, evaluations ran 1.73-1.80x faster while the kernel ran
# 1.86-1.92x faster; 40-op windows of Geiser evaluations that changed phase
# gave exponents 0.87-0.94. So the ratio is raised to this power.
SENSITIVITY = 0.9
# fewest kernel samples an op's scale factor is taken from
WINDOW = 9
# ops are counted as failed above OP_LIMIT_S (scaled) and interrupted above
# HARD_LIMIT_S of raw CPU
OP_LIMIT_S = 60.0
HARD_LIMIT_S = 120.0
# op id of spans recorded during the warm-up op (set-up spans carry -1)
WARMUP = -2

# Kernel inputs: a dense degree-5 form with 20-digit coefficients, and the
# binary quadratic forms of a 5x5 Sylvester-like matrix. The kernel's code is
# kept apart from gen.py, so that no edit there changes the reference work.
_POLY = {(i, j, 5 - i - j): (7919 * i + 104729 * j + 1) ** 4 for i in range(6) for j in range(6 - i)}
_FORMS = [{(2 - i, i): c for i, c in enumerate(cs)}
          for cs in ((3, -2, 5), (1, 4, -1), (-2, 1, 3), (2, 2, -1))]


def _mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _sub(f, g):
    out = dict(f)
    for e, c in g.items():
        s = out.get(e, 0) - c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _divexact(f, d):
    rem, lead = dict(f), max(d)
    q = {}
    while rem:
        top = max(rem)
        qe = (top[0] - lead[0], top[1] - lead[1])
        qc = Fraction(rem[top]) / Fraction(d[lead])
        q[qe] = qc = int(qc) if qc.denominator == 1 else qc
        for e, c in d.items():
            t = (e[0] + qe[0], e[1] + qe[1])
            s = rem.get(t, 0) - qc * c
            if s:
                rem[t] = s
            else:
                rem.pop(t, None)
    return q


def _kernel_work():
    """Fixed stdlib-only work shaped like the package's two uses of its
    polynomial kernels: a fraction-free (Bareiss) determinant of a 5x5 matrix
    of binary forms with exact division, and one product of a dense form with
    big integer coefficients."""
    n = len(_FORMS) + 1
    m = [[_FORMS[(i + j) % 4] if (j - i) % 3 != 2 else {(1, 1): i - j} for j in range(n)]
         for i in range(n)]
    prev = {(0, 0): 1}
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _sub(_mul(m[i][j], m[k][k]), _mul(m[i][k], m[k][j]))
                m[i][j] = _divexact(num, prev) if num else {}
        prev = m[k][k] or {(0, 0): 1}
    out = {}
    for e1, c1 in _POLY.items():
        for e2, c2 in _POLY.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[e] = out.get(e, 0) + c1 * c2
    return m[n - 1][n - 1], out


class OpTimeout(BaseException):
    """Raised inside an op that ran past HARD_LIMIT_S; a BaseException so
    the package's `except Exception` handlers cannot swallow it."""


class Sampler:
    """Reference-kernel samples and the CPU they took away from the ops."""

    def __init__(self):
        self.stolen = 0.0
        self.samples = []
        self.op_start = None

    def now(self):
        return time.thread_time() - self.stolen

    def kernel(self):
        t0 = time.thread_time()
        enabled = gc.isenabled()
        gc.disable()
        try:
            k0 = time.thread_time()
            _kernel_work()
            ms = (time.thread_time() - k0) * 1000.0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(ms)
        self.stolen += time.thread_time() - t0
        return ms

    def _on_tick(self, signum, frame):
        if self.op_start is None:
            return
        self.kernel()
        if self.now() - self.op_start > HARD_LIMIT_S:
            raise OpTimeout()

    def scale(self, lo, hi):
        """(NOMINAL_MS over the median kernel time of samples lo..hi, widened
        on both sides to at least WINDOW samples) ** SENSITIVITY."""
        while hi - lo + 1 < WINDOW and (lo > 0 or hi < len(self.samples) - 1):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.samples) - 1)
        return (NOMINAL_MS / median(self.samples[lo:hi + 1])) ** SENSITIVITY

    @contextlib.contextmanager
    def measuring(self):
        """Time a region; yields a dict that receives its raw CPU seconds."""
        box = {}
        signal.signal(signal.SIGPROF, self._on_tick)
        self.op_start = start = self.now()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield box
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            box["raw"] = self.now() - start
            self.op_start = None


def _poly_json(f):
    return [[list(e), Fraction(c).numerator, Fraction(c).denominator] for e, c in f.terms.items()]


class Workload:
    """Package state for one workload and the ops that run against it."""

    def __init__(self, job):
        import planecremona
        from planecremona import cli, involutions
        from planecremona.projmaps import ProjPoint

        root = os.path.realpath(job["src"])
        if not os.path.realpath(planecremona.__file__).startswith(root + os.sep):
            raise RuntimeError(f"planecremona imported from {planecremona.__file__}, not {root}")
        self.cli = cli
        self.point = ProjPoint
        kind = job["workload"]
        self.states = []
        for pts in job.get("configs", []):
            config = involutions.make_point_config([ProjPoint(*p) for p in pts], kind)
            if kind == "geiser":
                inv = involutions.GeiserInvolution(config)
                inv.fixed_sextic            # Jacobian sextic of the net
            else:
                inv = involutions.BertiniInvolution(config)
                inv.space                   # sextics singular at the 8 points
            self.states.append(inv)

    def run(self, op):
        """Execute one op; returns the raw answer (serialized later)."""
        kind = op[0]
        if kind == "eval":
            return self.states[op[1]].eval_detail(self.point(*op[2]))
        if kind == "interp":
            # a fresh object, so that every fit does the whole work
            return type(self.states[op[1]])(self.states[op[1]].config).interpolated_map
        if kind == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.run(op[1])
            return code, buf.getvalue()
        raise ValueError(f"unknown op {kind!r}")

    @staticmethod
    def answer(op, value):
        kind = op[0]
        if kind == "eval":
            image, trace = value
            return {"image": list(image.coords), "attempts": trace.attempts}
        if kind == "interp":
            return {"degree": value.degree, "components": [_poly_json(f) for f in value.components]}
        code, out = value
        return {"code": code, "out": out}


def _setup(job, sampler, trace):
    """Import the package and build the workload state, timed."""
    sys.path.insert(0, job["src"])
    for _ in range(WINDOW // 2):
        sampler.kernel()
    with sampler.measuring() as box:
        import planecremona.cli  # noqa: F401  (timed import of the whole package)
        if trace is not None:
            tracing.install(trace)
        work = Workload(job)
    for _ in range(WINDOW // 2):
        sampler.kernel()
    return work, box["raw"], sampler.scale(0, len(sampler.samples) - 1)


def main():
    job = json.load(sys.stdin)
    sampler = Sampler()
    trace = tracing.Tracer(sampler.now) if job.get("trace") else None
    work, setup_raw, setup_scale = _setup(job, sampler, trace)
    result = {"setup_raw_s": setup_raw, "setup_scale": setup_scale}
    if job.get("setup_only"):
        print(json.dumps(result), file=sys.__stdout__)
        return
    if trace is not None:
        trace.op = WARMUP
    for op in job["warmup"]:
        work.run(op)
    gc.collect()

    ops = []
    sampler.kernel()
    for op in job["ops"]:
        if trace is not None:
            trace.op = len(ops)
        error, value = None, None
        lo = len(sampler.samples) - 1
        with sampler.measuring() as box:
            try:
                value = work.run(op)
            except OpTimeout:
                error = "OpTimeout: over the hard per-op limit"
            except Exception as exc:  # noqa: BLE001  any failure of the package counts
                error = f"{type(exc).__name__}: {exc}"
        sampler.kernel()
        record = {"raw_ms": box["raw"] * 1000.0, "window": (lo, len(sampler.samples) - 1),
                  "error": error}
        if error is None:
            record["answer"] = work.answer(op, value)
        ops.append(record)
    for record in ops:
        lo, hi = record.pop("window")
        record["samples"] = hi - lo + 1
        record["scale"] = sampler.scale(lo, hi)
    result["ops"] = ops
    result["kernel_ms"] = sampler.samples
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace is not None:
        scales = [op["scale"] for op in ops]
        calls = [0] * len(tracing.NAMES)
        self_s = [0.0] * len(tracing.NAMES)
        for index, _start, _end, _parent, op_id, own in trace.spans:
            if op_id == WARMUP:
                continue
            calls[index] += 1
            self_s[index] += own * (scales[op_id] if op_id >= 0 else setup_scale)
        result["layers"] = {name: {"calls": calls[i], "self_ms": self_s[i] * 1000.0}
                            for i, name in enumerate(tracing.NAMES)}
        out = job.get("spans_out")
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write("name,start_s,end_s,parent,op\n")
                for index, start, end, parent, op_id, _own in trace.spans:
                    fh.write(f"{tracing.NAMES[index]},{start:.6f},{end:.6f},{parent},{op_id}\n")
    print(json.dumps(result), file=sys.__stdout__)


if __name__ == "__main__":
    main()

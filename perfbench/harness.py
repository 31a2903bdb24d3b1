"""Speed-normalised closed-loop timing.

On a shared virtual machine the same pure-Python code can run 1.5-2x
slower from one minute to the next.  Every wall-clock figure here is
therefore scaled by a fixed reference kernel: the kernel is timed right
before and right after each timed piece of work (a statement, a think
time), and a piece measured while the kernel took ``k`` µs on average
counts ``raw * REF_NOMINAL_US / k``.  The raw times and the kernel times
are kept too, so wall-clock figures can always be recovered.

This module imports nothing from ``repro``: the kernel must not change
when the program under test does.
"""

import gc
import resource
import statistics
import time

#: Warm-up operations timed as one piece, and measured operations between
#: two looks at the deadline.
BLOCK = 10
#: Nominal kernel time: a normalised microsecond is "1 / REF_NOMINAL_US of
#: the kernel's time".  Set near the kernel's time on a 2-vCPU x86 VM, so
#: normalised figures read close to wall-clock ones there.
REF_NOMINAL_US = 90.0
#: Kernel runs before the first checkpoint: in a fresh interpreter the
#: kernel's first calls run up to 1.5x slower.
KERNEL_WARMUP = 300
#: Kernel repetitions around a set-up piece (median taken).  Measured
#: statements get one repetition on each side: contention comes in
#: bursts of tens of milliseconds, so the kernel must run close to the
#: statement it normalises, and cheaply.
KERNEL_REPS = 3


def _kernel_once():
    """A fixed mix of the interpreter work the program does: dict
    probes, attribute-free tuple building, sorting, string formatting,
    small function calls and list comprehensions."""
    table = {}
    for i in range(100):
        table[f"k{i % 97}:{i}"] = (i, i * 7 % 13, str(i))
    rows = [value for key, value in table.items() if value[1] != 3]
    rows.sort(key=lambda row: (row[1], -row[0]))
    total = 0
    for a, b, c in rows:
        total += a if b & 1 else len(c)
    text = ", ".join(f"({a}, {b})" for a, b, _ in rows[:40])
    words = text.split(", ")
    seen = set()
    for word in words:
        if word not in seen:
            seen.add(word)
    return total + len(seen)


def warm_kernel():
    """Run the kernel until its time has settled; call once per process
    before the first measurement."""
    for _ in range(KERNEL_WARMUP):
        _kernel_once()


def ref_kernel_us(reps=KERNEL_REPS):
    """Time the reference kernel: median of ``reps`` runs, in µs.

    The collector is paused so a collection the program's garbage
    triggers is not billed to the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(reps):
            start = time.perf_counter()
            _kernel_once()
            samples.append((time.perf_counter() - start) * 1e6)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


def timed(fn):
    """Run ``fn()`` between two kernel checkpoints; returns
    ``(result, raw_seconds, normalised_seconds)``."""
    before = ref_kernel_us()
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    after = ref_kernel_us()
    return result, raw, raw * REF_NOMINAL_US * 2 / (before + after)


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb():
    """Peak resident set size of this process, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PhaseStats:
    """Raw and normalised per-operation times of one measured phase.

    ``loop`` figures cover each operation plus the think time that
    follows it (simulated time advanced with ``run_for``, during which
    background replication runs); latency figures cover the operation
    alone.
    """

    def __init__(self):
        self.ops = 0
        self.raw_loop_s = 0.0
        self.norm_loop_s = 0.0
        self.latency_us = {"read": [], "write": []}
        self.kernel_us = []

    def add(self, kind, op_s, think_s, op_factor, think_factor):
        """Fold in one operation: raw seconds and normalisation factors
        of the statement and of the think time after it."""
        self.ops += 1
        self.raw_loop_s += op_s + think_s
        self.norm_loop_s += op_s * op_factor + think_s * think_factor
        self.latency_us[kind].append(op_s * op_factor * 1e6)

    def ops_per_s(self):
        return self.ops / self.norm_loop_s if self.norm_loop_s else 0.0

    def raw_ops_per_s(self):
        return self.ops / self.raw_loop_s if self.raw_loop_s else 0.0

    def summary(self, kind, q):
        values = self.latency_us[kind]
        return percentile(values, q) if values else 0.0


def run_phase(runner, seconds, *, min_ops=0, tracer=None, on_op=None):
    """Drive ``runner`` closed-loop for ``seconds`` of wall time.

    Each statement and each think time is timed between two one-run
    kernel checkpoints (the checkpoint after a think time is the one
    before the next statement).  Keeps going past the deadline until
    ``min_ops`` operations have run, so count metrics taken at a fixed
    operation index are always available.  ``on_op(index)`` fires after
    each operation's check (untimed).

    Returns the :class:`PhaseStats`.
    """
    stats = PhaseStats()
    perf = time.perf_counter
    kernel = stats.kernel_us
    deadline = perf() + seconds
    kernel.append(ref_kernel_us(1))
    index = 0
    while True:
        for _ in range(BLOCK):
            op = runner.next_op()
            if tracer is not None:
                tracer.begin_op(index)
            start = perf()
            result = runner.call(op)
            mid = perf()
            kernel.append(ref_kernel_us(1))
            think_start = perf()
            runner.think()
            end = perf()
            kernel.append(ref_kernel_us(1))
            op_factor = REF_NOMINAL_US * 2 / (kernel[-3] + kernel[-2])
            think_factor = REF_NOMINAL_US * 2 / (kernel[-2] + kernel[-1])
            if tracer is not None:
                tracer.end_op(start, mid, think_start, end, op_factor,
                              think_factor)
            runner.check(op, result)
            stats.add(op.kind, mid - start, end - think_start, op_factor,
                      think_factor)
            index += 1
            if on_op is not None:
                on_op(index)
        if perf() >= deadline and index >= min_ops:
            return stats

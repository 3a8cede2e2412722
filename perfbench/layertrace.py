"""Per-layer breakdown of calls into leu: sampled times and exact counts.

A layer is a module of ``src/leu``.  Every Python function belongs to the
layer of the file that defines it; the rational scalar type (``fractions``
when gmpy2 is absent) belongs to ``fields``, and this benchmark's own
frames to ``bench``.  Builtins and other library code have no frame of
their own in a layer and count for the nearest layer that called them.

Times come from a stack sampler on a 1 ms wall-clock timer, not from the
profiler hook: under Python 3.11 an installed trace or profile function
slows every bytecode, by about 9% in a 64x64 product kernel call and by
130% in a 1x1 one, which would misstate the split by block size.  The
sampler's own time, 3 to 6% of the wall time, is measured and left out of
every layer.  Each sample charges the interval to the innermost layer on the
stack, to the block size of the outermost call into
``dense`` when that layer is ``dense``, and to the outermost span on the
stack (a triangular inverse or the final product called from ``derived``,
a parse or format call into ``textio``, a call into ``oracle``).

Counts come from one separate pass under the trace hook, which sees every
Python call: calls per layer, recursion nodes of ``decompose``, and, at each
product ``decompose`` hands to ``dense``, whether an operand is all zero,
its classical count of scalar products and, over the rationals, its largest
entry bit length.
"""

from __future__ import annotations

import fractions
import os
import signal
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("fields", "dense", "perms", "decompose", "derived", "textio", "cli", "oracle")
BENCH = "bench"
SAMPLE_S = 0.001


def _matrix_size(v):
    """Largest dimension of a list-of-rows or DenseMatrix argument, else None."""
    if isinstance(v, list):
        return max(len(v), len(v[0])) if v and isinstance(v[0], list) else None
    rows, cols = getattr(v, "rows", None), getattr(v, "cols", None)
    if isinstance(rows, int) and isinstance(cols, int):
        return max(rows, cols)
    return None


def _matrix_args(frame):
    code = frame.f_code
    loc = frame.f_locals
    args = (loc.get(n) for n in code.co_varnames[:code.co_argcount])
    return [a for a in args if _matrix_size(a) is not None]


def _entry_bits(rows):
    """Largest bit length of a numerator or denominator among the entries."""
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for r in rows for v in r), default=0)


class Layers:
    """Maps code objects to layers.

    Caches are keyed by id(code): hashing a code object hashes its bytecode
    and constants on every lookup.  The cache keeps each code object alive,
    so an id is never reused while it is cached.
    """

    def __init__(self, leu_dir):
        self._by_file = {os.path.join(leu_dir, m + ".py"): m for m in LAYERS}
        self._by_file[fractions.__file__] = "fields"
        self._bench_dir = os.path.dirname(os.path.abspath(__file__))
        self._cache = {}

    def __call__(self, code):
        hit = self._cache.get(id(code))
        if hit is None:
            fn = code.co_filename
            layer = self._by_file.get(fn)
            if layer is None and os.path.dirname(os.path.abspath(fn)) == self._bench_dir:
                layer = BENCH
            hit = self._cache[id(code)] = (layer, code)
        return hit[0]


def _span(outer, inner, code):
    """Span opened where a call goes from layer `outer` into `inner`, if any."""
    name = code.co_name
    if inner == "textio":
        return "parse" if name.startswith(("parse", "read")) else (
            "format" if name.startswith("format") else None)
    if inner == "oracle":
        return "oracle"
    if outer == "derived" and inner == "dense":
        return "tri_inv" if name.startswith("invert_") else (
            "final_product" if name.startswith("mat_mul") else None)
    return None


def _bucket(size):
    return "h_le_8" if size <= 8 else ("h_ge_16" if size >= 16 else "h_9_15")


class Sampler:
    """Charges wall time to (layer, dense block size, span) by stack samples."""

    def __init__(self, layers):
        self.layer = layers
        self.samples = Counter()
        self.handler_s = 0.0
        self.wall_s = 0.0

    def _key(self, frame):
        chain = []  # (layer, frame) of every frame with a layer, innermost first
        f = frame
        while f is not None:
            layer = self.layer(f.f_code)
            if layer is not None:
                chain.append((layer, f))
            f = f.f_back
        if not chain:
            return (BENCH, None, None)
        span = None
        for (outer, _), (inner, f) in zip(reversed(chain), list(reversed(chain))[1:]):
            if outer != inner:
                span = _span(outer, inner, f.f_code)
                if span:
                    break
        layer = chain[0][0]
        bucket = None
        if layer == "dense":
            k = 0
            while k + 1 < len(chain) and chain[k + 1][0] == "dense":
                k += 1
            sizes = [_matrix_size(a) for a in _matrix_args(chain[k][1])]
            bucket = _bucket(max(sizes)) if sizes else None
        return (layer, bucket, span)

    def _handler(self, signum, frame):
        t = perf_counter()
        self.samples[self._key(frame)] += 1
        self.handler_s += perf_counter() - t

    def call(self, fn):
        """Run fn() under the sampler and return its result."""
        old = signal.signal(signal.SIGALRM, self._handler)
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.wall_s += perf_counter() - t0
            signal.signal(signal.SIGALRM, old)

    def seconds(self, layer=None, bucket=None, span=None):
        """Sampled seconds matching the given key parts (None matches all)."""
        total = sum(self.samples.values())
        if not total:
            return 0.0
        hit = sum(c for (lay, b, s), c in self.samples.items()
                  if layer in (None, lay) and bucket in (None, b) and span in (None, s))
        return hit / total * (self.wall_s - self.handler_s)


class CallCounts:
    """Exact counts of one pass under the trace hook (its times are not used)."""

    def __init__(self, layers):
        self.layer = layers
        self.calls = Counter()  # layer -> calls of its named functions
        self.decompose_calls = Counter()  # id(code) -> calls
        self.recursive = set()  # ids of decompose code objects that call themselves
        self.products = 0  # products decompose hands to dense
        self.zero_products = 0  # ... of which one operand is all zero
        self.performed_mults = 0  # classical scalar products of those
        self.max_entry_bits = 0  # over the rationals only
        self._trace = self._hook()

    def _hook(self):
        """The trace function: sees the 'call' event of every Python frame."""
        info = {}  # id(code) -> (layer, whether it is a named function)
        layer_of = self.layer
        calls = self.calls

        def trace(frame, event, arg):
            code = frame.f_code
            i = info.get(id(code))
            if i is None:
                i = info[id(code)] = (layer_of(code), not code.co_name.startswith("<"))
            layer, named = i
            if layer is None or layer == BENCH:
                return None
            if named:
                calls[layer] += 1
            if layer == "decompose":
                self.decompose_calls[id(code)] += 1
                if frame.f_back.f_code is code:
                    self.recursive.add(id(code))
            elif layer == "dense":
                back = info.get(id(frame.f_back.f_code))
                if back is not None and back[0] == "decompose":
                    self._product(frame)
            return None

        return trace

    def _product(self, frame):
        mats = _matrix_args(frame)
        if len(mats) < 2 or not isinstance(mats[0], list):
            return
        x, y = mats[0], mats[1]
        self.products += 1
        if not any(map(any, x)) or not any(map(any, y)):
            self.zero_products += 1
        self.performed_mults += len(x) * len(y) * len(y[0])
        if getattr(frame.f_locals.get("field"), "kind", None) == "rational":
            self.max_entry_bits = max(self.max_entry_bits, _entry_bits(x), _entry_bits(y))

    def call(self, fn):
        sys.settrace(self._trace)
        try:
            return fn()
        finally:
            sys.settrace(None)

    @property
    def nodes(self):
        return sum(self.decompose_calls[c] for c in self.recursive)

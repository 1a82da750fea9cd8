"""Memoization for the pure softfloat entry points.

Every public operation here is a pure function of its bit-pattern
arguments (formats are frozen singletons, rounding modes small ints), and
fuzzing campaigns re-execute the same FP operations constantly — retained
corpus blocks replay whole instruction sequences, and the operand pool is
anchored by the interesting-values table.  Memoizing at the operation
boundary keeps the exact-rational arithmetic bit-exact (the cached value
*is* the computed value) while skipping the unpack/round pipeline on
repeats.  Caches are bounded with the shared evict-half policy.
"""

from functools import wraps

from repro.evict import evict_half

_MEMO_LIMIT = 1 << 18


def memoize_fp(fn):
    """Memoize a pure positional-args softfloat operation."""
    cache = {}

    @wraps(fn)
    def wrapper(*args, **kwargs):
        if kwargs:
            # Rare (tests/interactive use); the executor calls positionally.
            key = args + tuple(sorted(kwargs.items()))
        else:
            key = args
        result = cache.get(key)
        if result is None:
            result = fn(*args, **kwargs)
            if len(cache) >= _MEMO_LIMIT:
                evict_half(cache)
            cache[key] = result
        return result

    wrapper.cache = cache
    return wrapper

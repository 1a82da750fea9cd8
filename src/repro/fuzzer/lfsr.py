"""LFSR: the fuzzer's hardware-style pseudo-random source.

A 64-bit xorshift register — three shift-XOR stages per step, exactly
implementable in FFs and XOR gates.  A plain one-tap Galois LFSR is *not*
usable here: consecutive states are bit-shifted copies of each other, so
back-to-back field draws (mode choice, then block-operation roll) would be
strongly correlated and some outcomes would become unreachable.  The
xorshift configuration diffuses every state bit across the word each step,
which is why real hardware fuzzers drive independent decision fields from
separate tap networks.

All stochastic choices in the fuzzer draw from this, so a TurboFuzzer run
is a pure function of its seed.

The step is GF(2)-linear, so a whole run of states is the XOR of the
per-seed-bit basis runs, which are computed once per process.  The
generation loops therefore do not step at all: :func:`lookahead` gives
them the next 2,048 states at once, and a draw is one list index
(``pos += 1; state = ahead[pos]``).  They write the state back into the
:class:`Lfsr` object only around the draws that remain method calls
(corpus selection, the data seed).  This module is the only place the
xorshift is stepped; the stream is the same whichever way it is drawn.
"""

import sys
from array import array

from repro.analyze.markers import hot_path

_MASK64 = (1 << 64) - 1

#: The states a :func:`lookahead` holds after the current one.
AHEAD = 2048


class Lfsr:
    """64-bit xorshift LFSR with convenience draws."""

    __slots__ = ("state",)

    def __init__(self, seed=1):
        self.state = (seed & _MASK64) or 1  # all-zero state is absorbing

    @hot_path
    def next(self):
        """Advance one step and return the new 64-bit state."""
        state = self.state
        state ^= (state << 13) & _MASK64
        state ^= state >> 7
        state ^= (state << 17) & _MASK64
        self.state = state
        return state

    @hot_path
    def bits(self, count):
        """Draw ``count`` pseudo-random bits (as an unsigned int)."""
        if count <= 64:
            return self.next() & ((1 << count) - 1)
        value = 0
        remaining = count
        while remaining > 0:
            take = min(64, remaining)
            value = (value << take) | (self.next() & ((1 << take) - 1))
            remaining -= take
        return value

    # The draw helpers below inline the xorshift advance instead of calling
    # :meth:`next`: they run once or more per generated operand, and the
    # call overhead dominates the three shift-XOR stages.

    @hot_path
    def below(self, bound):
        """Uniform-ish integer in ``[0, bound)`` (hardware-style modulo)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        state = self.state
        state ^= (state << 13) & _MASK64
        state ^= state >> 7
        state ^= (state << 17) & _MASK64
        self.state = state
        return state % bound

    @hot_path
    def chance(self, probability):
        """Bernoulli draw with ``probability = (numerator, denominator)``;
        the denominator must be a power of two (hardware bit-slicing)."""
        numerator, denominator = probability
        if denominator & (denominator - 1):
            raise ValueError("denominator must be a power of two")
        state = self.state
        state ^= (state << 13) & _MASK64
        state ^= state >> 7
        state ^= (state << 17) & _MASK64
        self.state = state
        return (state & (denominator - 1)) < numerator

    @hot_path
    def choice(self, sequence):
        """Pick one element of a non-empty sequence."""
        length = len(sequence)
        if length <= 0:
            raise ValueError("bound must be positive")
        state = self.state
        state ^= (state << 13) & _MASK64
        state ^= state >> 7
        state ^= (state << 17) & _MASK64
        self.state = state
        return sequence[state % length]

    def fork(self):
        """Derive an independent LFSR (e.g. per-iteration data seeds)."""
        return Lfsr(self.next() ^ 0x9E3779B97F4A7C15)

    # -- checkpoint protocol ---------------------------------------------------
    def state_dict(self):
        """JSON-round-trippable snapshot of the generator state."""
        return {"state": self.state}

    def prepare_state(self, state):
        """Check a :meth:`state_dict` snapshot; returns the function that
        restores it (bit-identical stream)."""
        value = state["state"]
        if type(value) is not int or not 0 <= value <= _MASK64:
            raise ValueError(f"LFSR state {value!r} is not a 64-bit integer")

        def apply():
            self.state = value or 1
        return apply

    def fill_words(self, count):
        """Batch-draw ``count`` 64-bit states (one advance per word).

        The inner xorshift is inlined on a local so the whole batch costs
        one attribute write; the stream is bit-identical to ``count``
        successive :meth:`next` calls.
        """
        state = self.state
        words = []
        append = words.append
        for _ in range(count):
            state ^= (state << 13) & _MASK64
            state ^= state >> 7
            state ^= (state << 17) & _MASK64
            append(state)
        self.state = state
        return words

    def fill_bytes(self, count):
        """Generate ``count`` pseudo-random bytes (data segment contents).

        Bit-identical to the little-endian concatenation of successive
        :meth:`next` words.  Small requests run the plain batched loop;
        large ones (the 64 KiB data segment, drawn once per iteration)
        take the whole run at once, as :func:`lookahead` does: ~32 wide
        XORs and one ``to_bytes`` replace thousands of Python-level shift
        steps.  The run ends in the last word drawn, which becomes the
        state, so the draw stream continues exactly as if every word had
        been stepped individually.
        """
        if count <= 0:
            return b""
        words = (count + 7) // 8
        if words < _FILL_BASIS_MIN_WORDS:
            blob = b"".join(
                word.to_bytes(8, "little") for word in self.fill_words(words)
            )
            return blob[:count] if count & 7 else blob
        run = _xor_runs(_basis(words + 1), self.state)
        self.state = run >> (64 * words)  # the last word drawn
        blob = (run >> 64).to_bytes(words * 8, "little")
        return blob[:count] if count & 7 else blob


def lookahead(state):
    """``[state, s1, ..., s2048]``: ``state`` and the :data:`AHEAD` states
    after it, ``s_k`` being the state :meth:`Lfsr.next` returns on its
    ``k``-th call from ``state``.

    A generation loop keeps ``(ahead, pos)`` on locals, with
    ``ahead[pos]`` the current state: a draw is ``pos += 1; state =
    ahead[pos]``, and once ``pos`` nears :data:`AHEAD` the loop goes on
    from ``lookahead(ahead[pos])``.  The list is the XOR of the basis runs
    of ``state``'s set bits: about 32 wide XORs and one conversion instead
    of 2,048 Python-level steps.
    """
    run = _xor_runs(_basis(AHEAD + 1), state)
    states = array("Q", run.to_bytes(8 * (AHEAD + 1), "little"))
    if sys.byteorder == "big":
        states.byteswap()
    return states.tolist()


def _xor_runs(runs, state):
    """The run from ``state``: the XOR of the basis runs of its set bits."""
    run = 0
    bit = 0
    while state:
        if state & 1:
            run ^= runs[bit]
        state >>= 1
        bit += 1
    return run


# Basis runs: for a run length, per seed bit, the run [1 << bit, s1, ...]
# of that one-bit seed as a little-endian big int (word 0 lowest).  Built
# on first use of a length and shared process-wide: the lookahead's, and
# the data segment's (its size is a layout constant).
_BASIS = {}


def _basis(length):
    """The per-seed-bit runs of ``length`` states.

    Built by doubling, by linearity: the run of ``2L`` states from ``e``
    is its run of ``L`` followed by the run of ``L`` from the state
    ``L`` steps on, which is the XOR of the basis runs of that state's
    bits.  The last round appends only what ``length`` still needs."""
    runs = _BASIS.get(length)
    if runs is None:
        runs = [1 << bit for bit in range(64)]
        ends = [Lfsr(seed).next() for seed in runs]  # the states `span` on
        span = 1
        while span < length:
            need = min(span, length - span)
            keep = (1 << (64 * need)) - 1
            heads = [run & keep for run in runs]
            runs = [run | (_xor_runs(heads, end) << (64 * span))
                    for run, end in zip(runs, ends)]
            ends = [_xor_runs(ends, end) for end in ends]
            span += need
        _BASIS[length] = runs
    return runs


_FILL_BASIS_MIN_WORDS = 256

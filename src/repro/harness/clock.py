"""Virtual time: the experiment time axis.

All paper results are time-to-coverage or time-to-bug at a 100 MHz DUT
clock.  The virtual clock accumulates DUT cycles plus modelled host-side
overheads (generation, DMA transfer, checking), so campaigns replay the
paper's hour-scale time axis deterministically in seconds of host time.
"""


class VirtualClock:
    """Accumulates virtual seconds from cycles and host-side costs."""

    def __init__(self, frequency_hz=100e6):
        self.frequency_hz = frequency_hz
        self._seconds = 0.0

    def advance_cycles(self, cycles):
        """Account DUT execution time."""
        self._seconds += cycles / self.frequency_hz

    def advance_seconds(self, seconds):
        """Account host-side or fixed-latency time."""
        if seconds < 0:
            raise ValueError("time cannot flow backwards")
        self._seconds += seconds

    @property
    def seconds(self):
        return self._seconds

    @property
    def minutes(self):
        return self._seconds / 60.0

    @property
    def hours(self):
        return self._seconds / 3600.0

    def reset(self):
        self._seconds = 0.0

    # -- checkpoint protocol ---------------------------------------------------
    def state_dict(self):
        """JSON-round-trippable snapshot.  Floats survive JSON exactly
        (shortest-repr round-trip), so a restored clock is bit-identical."""
        return {"frequency_hz": self.frequency_hz, "seconds": self._seconds}

    def prepare_state(self, state):
        """Check a :meth:`state_dict`; returns the function that applies
        it (checking changes nothing)."""
        frequency_hz, seconds = state["frequency_hz"], state["seconds"]
        for name, value in (("frequency_hz", frequency_hz),
                            ("seconds", seconds)):
            if type(value) not in (int, float):
                raise TypeError(f"clock {name} {value!r} is not a number")
        if not (frequency_hz > 0 and seconds >= 0):
            raise ValueError(f"clock at {seconds!r} s, {frequency_hz!r} Hz")

        def apply():
            self.frequency_hz = frequency_hz
            self._seconds = seconds
        return apply

    def __repr__(self):
        return f"VirtualClock({self._seconds:.6f}s @ {self.frequency_hz/1e6:.0f}MHz)"

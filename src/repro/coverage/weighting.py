"""Per-module feedback weighting (paper Section VI, first optimization).

The paper adds an auxiliary register that shifts a module's triggered
coverage count ``N_cov`` left or right before it reaches the fuzzer, giving
"straightforward yet effective control over each module's feedback
intensity" — e.g. right-shifting MulDiv to stop arithmetic units from
dominating feedback (the *modulo bias* problem).
"""


class FeedbackWeights:
    """Maps module name -> signed shift (positive = amplify, negative =
    attenuate).  Unlisted modules get shift 0 (weight 1x)."""

    def __init__(self, shifts=None):
        self._shifts = dict(shifts or {})

    def shift_for(self, module_name):
        return self._shifts.get(module_name, 0)

    def weighted(self, module_name, n_cov):
        """Apply the auxiliary shift to a raw coverage count."""
        shift = self._shifts.get(module_name, 0)
        if shift >= 0:
            return n_cov << shift
        return n_cov >> -shift

    def weighted_total(self, counts_by_module):
        """Weighted sum across modules (the fuzzer's feedback scalar)."""
        return sum(
            self.weighted(name, count) for name, count in counts_by_module.items()
        )

    # -- checkpoint protocol ---------------------------------------------------
    def state_dict(self):
        """JSON-round-trippable snapshot of the shift table."""
        return {"shifts": dict(self._shifts)}

    def prepare_state(self, state):
        """Check a :meth:`state_dict`; returns the function that applies
        it in place (checking changes nothing)."""
        shifts = state["shifts"]
        if not isinstance(shifts, dict):
            raise TypeError("weight shifts must be an object")
        if not all(type(shift) is int for shift in shifts.values()):
            raise TypeError(f"weight shifts must be integers: {shifts!r}")
        shifts = dict(shifts)

        def apply():
            self._shifts = shifts
        return apply

    @classmethod
    def attenuate_arithmetic(cls, muldiv_shift=-2, fpu_shift=-1):
        """The paper's example policy: damp MulDiv (and mildly the FPU)."""
        return cls({"MulDiv": muldiv_shift, "FPU": fpu_shift})

"""Coverage maps: sparse sets of observed coverage-point indices."""

from repro.analyze.markers import hot_path


class CoverageMap:
    """Observed coverage points for one instrumented module.

    Sparse (a set) because even long campaigns observe a small fraction of
    the instrumented space; ``observe`` returns whether the point is new,
    which is the fuzzer's feedback signal.
    """

    __slots__ = ("instrumented_points", "_seen", "epoch")

    # The epoch is a cache-validity counter local to this process's skip
    # caches; a restored checkpoint must NOT carry the saving process's
    # epoch (load_state bumps it instead, invalidating the caches).
    _checkpoint_transient = frozenset({"epoch"})

    def __init__(self, instrumented_points):
        self.instrumented_points = instrumented_points
        self._seen = set()
        # Bumped whenever observed coverage may SHRINK (clear / restore):
        # the DUT cores' combined-observation skip caches key their
        # validity on this (an entry asserts "these points are already in
        # the map", which only removal can falsify).
        self.epoch = 0

    @hot_path
    def observe(self, index):
        """Record an index; True when it is a newly covered point."""
        if index in self._seen:
            return False
        self._seen.add(index)
        return True

    def observe_many(self, indices):
        """Bulk observation; returns the number of new points."""
        before = len(self._seen)
        self._seen.update(indices)
        return len(self._seen) - before

    @property
    def count(self):
        """Number of covered points."""
        return len(self._seen)

    @property
    def density(self):
        """Fraction of the instrumented space covered."""
        if not self.instrumented_points:
            return 0.0
        return len(self._seen) / self.instrumented_points

    def merge(self, other):
        """Union another map into this one; returns newly added count."""
        before = len(self._seen)
        self._seen |= other._seen
        return len(self._seen) - before

    def copy(self):
        clone = CoverageMap(self.instrumented_points)
        clone._seen = set(self._seen)
        return clone

    def snapshot(self):
        """Frozen view of the covered indices."""
        return frozenset(self._seen)

    def clear(self):
        self._seen.clear()
        self.epoch += 1

    # -- checkpoint protocol ---------------------------------------------------
    def state_dict(self):
        """JSON-round-trippable snapshot (indices sorted for stable diffs)."""
        return {"instrumented_points": self.instrumented_points,
                "seen": sorted(self._seen)}

    def load_state(self, state):
        """Restore a :meth:`state_dict` snapshot in place.

        The seen-set object is mutated rather than replaced: the DUT
        cores' slot bindings hold a direct reference to it (hot path), and
        an in-place restore keeps those references valid."""
        self.instrumented_points = state["instrumented_points"]
        self._seen.clear()
        self._seen.update(state["seen"])
        self.epoch += 1

    # -- slice deltas ------------------------------------------------------------
    def delta_mark(self):
        """A copy of the observed set, the base of :meth:`state_delta`."""
        return set(self._seen)

    def state_delta(self, mark):
        """The points observed since ``mark``, sorted; a map equal to this
        one at the mark catches up with :meth:`observe_many` (adding
        points never invalidates the skip caches, so the epoch stays)."""
        return sorted(self._seen - mark)

    def __contains__(self, index):
        return index in self._seen

    def __len__(self):
        return len(self._seen)

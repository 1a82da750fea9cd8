"""Coverage maps: sparse sets of observed coverage-point indices."""

from repro.analyze.markers import hot_path


class CoverageMap:
    """Observed coverage points for one instrumented module.

    Sparse (a set) because even long campaigns observe a small fraction of
    the instrumented space; ``observe`` returns whether the point is new,
    which is the fuzzer's feedback signal.  A map only grows: nothing
    removes a point once observed, which is what lets the DUT cores'
    skip caches trust their entries for the life of the map.
    """

    __slots__ = ("instrumented_points", "_seen")

    def __init__(self, instrumented_points):
        self.instrumented_points = instrumented_points
        self._seen = set()

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

    # -- checkpoint protocol ---------------------------------------------------
    def delta_mark(self):
        """A copy of the observed set, for :meth:`state_dict`."""
        return set(self._seen)

    def state_dict(self, mark=None):
        """JSON-round-trippable snapshot (indices sorted for stable
        diffs); with a :meth:`delta_mark`, only the points observed since
        it."""
        seen = self._seen if mark is None else self._seen - mark
        return {"instrumented_points": self.instrumented_points,
                "seen": sorted(seen)}

    def prepare_state(self, state):
        """Check a :meth:`state_dict` taken on a map of this size; returns
        the function that adds its points (checking changes nothing).

        The seen-set object is grown, never replaced: the DUT cores hold a
        direct reference to it (hot path)."""
        if state["instrumented_points"] != self.instrumented_points:
            raise ValueError(
                f"coverage state of {state['instrumented_points']!r} points "
                f"does not fit a map of {self.instrumented_points}")
        seen = state["seen"]
        if not (isinstance(seen, list)
                and all(type(point) is int for point in seen)):
            raise TypeError("coverage points must be a list of ints")
        return lambda: self._seen.update(seen)

    def __contains__(self, index):
        return index in self._seen

    def __len__(self):
        return len(self._seen)

"""Tiny L1 cache models feeding the DUT's cache-state coverage registers
and the instruction latency model."""


class DirectMappedCache:
    """Direct-mapped cache: tag array only (data values come from memory)."""

    def __init__(self, sets=256, line_shift=6):
        self.sets = sets
        self.line_shift = line_shift
        self.tags = [None] * sets
        self.hits = 0
        self.misses = 0

    def access(self, address):
        """Look up (and on miss, install) the line; True on hit."""
        line = address >> self.line_shift
        index = line % self.sets
        if self.tags[index] == line:
            self.hits += 1
            return True
        self.tags[index] = line
        self.misses += 1
        return False

    def flush(self):
        """Invalidate everything (fence.i / reset)."""
        self.tags = [None] * self.sets

    def snapshot(self):
        """Tags and hit/miss counters, for :meth:`restore`."""
        return (list(self.tags), self.hits, self.misses)

    def restore(self, snapshot):
        tags, hits, misses = snapshot
        if len(tags) != self.sets:
            raise ValueError(f"cache snapshot of {len(tags)} sets, not {self.sets}")
        self.tags = list(tags)
        self.hits = hits
        self.misses = misses

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def miss_rate(self):
        total = self.accesses
        return self.misses / total if total else 0.0

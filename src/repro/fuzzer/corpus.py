"""Seeds and corpus scheduling (paper Section IV-D).

Seeds store valuable instruction sequences with metadata.  The paper's
optimization replaces FIFO eviction with *coverage-increment* scheduling:

* generation mode: a new test case enters the corpus only when it improved
  coverage; at capacity it replaces the seed with the lowest recorded
  coverage improvement;
* mutation mode: running a mutated seed updates that seed's recorded
  coverage improvement.

The FIFO policy is kept as the baseline for the Fig. 9 experiment.
"""

import itertools

_seed_ids = itertools.count()


def _check_schedule(increment, uses):
    """Reject a seed's scheduling metadata as a state carries it unless
    the coverage increment is a number and the use count an int (neither
    a bool)."""
    if increment.__class__ not in (int, float):
        raise TypeError(
            f"coverage_increment must be a number, not {increment!r}")
    if uses.__class__ is not int:
        raise TypeError(f"uses must be an int, not {uses!r}")


class Seed:
    """One corpus entry: instruction blocks + scheduling metadata."""

    __slots__ = ("seed_id", "blocks", "coverage_increment", "born_iteration",
                 "origin", "uses")

    def __init__(self, blocks, coverage_increment=0, born_iteration=0,
                 origin="direct"):
        self.seed_id = next(_seed_ids)
        self.blocks = list(blocks)
        self.coverage_increment = coverage_increment
        self.born_iteration = born_iteration
        self.origin = origin  # "direct" | "mutation" | "interval"
        self.uses = 0

    @property
    def size(self):
        return sum(block.size for block in self.blocks)

    def __repr__(self):
        return (
            f"Seed(id={self.seed_id}, blocks={len(self.blocks)}, "
            f"inc={self.coverage_increment}, origin={self.origin})"
        )

    # -- checkpoint protocol ---------------------------------------------------
    def state_dict(self):
        """JSON-round-trippable snapshot (blocks + scheduling metadata).

        ``seed_id`` is deliberately excluded: it comes from a
        process-global counter, so including it would make checkpoint
        files differ between otherwise bit-identical campaigns (resumed
        vs. uninterrupted, worker process vs. serial).  Nothing keys on
        it — a restored seed gets a fresh id.
        """
        return {
            "blocks": [block.state_dict() for block in self.blocks],
            "coverage_increment": self.coverage_increment,
            "born_iteration": self.born_iteration,
            "origin": self.origin,
            "uses": self.uses,
        }

    @classmethod
    def from_state(cls, state):
        """Decode a :meth:`state_dict`, checking each field: a malformed
        state raises ``ValueError`` or ``TypeError`` (``KeyError`` for a
        missing key).  The coverage increment is a number, the birth
        iteration and use count are ints (never bools), the origin is a
        string, and every block decodes
        (:meth:`~repro.fuzzer.blocks.InstructionBlock.from_state`)."""
        from repro.fuzzer.blocks import InstructionBlock

        increment, born = state["coverage_increment"], state["born_iteration"]
        uses, origin = state["uses"], state["origin"]
        _check_schedule(increment, uses)
        if born.__class__ is not int:
            raise TypeError(f"born_iteration must be an int, not {born!r}")
        if origin.__class__ is not str:
            raise TypeError(f"origin must be a string, not {origin!r}")
        seed = cls(
            [InstructionBlock.from_state(block) for block in state["blocks"]],
            coverage_increment=increment, born_iteration=born, origin=origin)
        seed.uses = uses
        return seed


class Corpus:
    """Bounded seed store with pluggable scheduling policy."""

    def __init__(self, capacity=64, policy="coverage",
                 priority_prob=(3, 4)):
        if policy not in ("coverage", "fifo"):
            raise ValueError(f"unknown corpus policy {policy!r}")
        self.capacity = capacity
        self.policy = policy
        self.priority_prob = priority_prob
        self.seeds = []
        self.evictions = 0
        self.rejected = 0

    def __len__(self):
        return len(self.seeds)

    @property
    def full(self):
        return len(self.seeds) >= self.capacity

    # -- insertion ---------------------------------------------------------------
    def add(self, seed):
        """Insert a seed per the active policy; returns True if stored."""
        if not self.full:
            self.seeds.append(seed)
            return True
        if self.policy == "fifo":
            # Replace the oldest seed unconditionally.
            self.seeds.pop(0)
            self.seeds.append(seed)
            self.evictions += 1
            return True
        # Coverage policy: replace the lowest-increment seed, but only if
        # the newcomer actually beats it.
        victim_index = min(
            range(len(self.seeds)),
            key=lambda index: self.seeds[index].coverage_increment,
        )
        if self.seeds[victim_index].coverage_increment >= seed.coverage_increment:
            self.rejected += 1
            return False
        self.seeds[victim_index] = seed
        self.evictions += 1
        return True

    # -- feedback -----------------------------------------------------------------
    def update_increment(self, seed, measured_increment):
        """Mutation-mode feedback: refresh a seed's recorded improvement."""
        seed.coverage_increment = measured_increment

    # -- selection -----------------------------------------------------------------
    def select(self, lfsr):
        """Dual-strategy probabilistic selection (paper IV-B.3).

        With probability ``priority_prob`` pick the seed with the highest
        coverage increment; otherwise pick uniformly at random so archived
        patterns are never starved.
        """
        if not self.seeds:
            return None
        if lfsr.chance(self.priority_prob):
            best = max(self.seeds, key=lambda seed: seed.coverage_increment)
            best.uses += 1
            return best
        seed = lfsr.choice(self.seeds)
        seed.uses += 1
        return seed

    # -- checkpoint protocol -----------------------------------------------------
    def delta_mark(self):
        """The seed ids in list order, for :meth:`state_dict`."""
        return [seed.seed_id for seed in self.seeds]

    def state_dict(self, mark=None):
        """JSON-round-trippable snapshot: seeds in list order (selection
        and eviction break increment ties by position, so order is part of
        the schedule-determining state).

        With a :meth:`delta_mark`, a seed the corpus held at the mark
        travels as ``[position at the mark, coverage_increment, uses]`` (a
        stored seed's blocks and birth never change), a new seed as its
        full :meth:`Seed.state_dict`."""
        positions = {seed_id: position
                     for position, seed_id in enumerate(mark or ())}
        seeds = []
        for seed in self.seeds:
            position = positions.get(seed.seed_id)
            seeds.append(seed.state_dict() if position is None
                         else [position, seed.coverage_increment, seed.uses])
        return {
            "capacity": self.capacity,
            "policy": self.policy,
            "priority_prob": list(self.priority_prob),
            "seeds": seeds,
            "evictions": self.evictions,
            "rejected": self.rejected,
        }

    def prepare_state(self, state):
        """Decode a :meth:`state_dict`; returns the function that applies
        it (decoding changes nothing).  Kept seeds name their position in
        this corpus, so a state taken with a mark fits only a corpus equal
        to this one at the mark."""
        seeds, kept = [], []
        for entry in state["seeds"]:
            if isinstance(entry, dict):
                seeds.append(Seed.from_state(entry))
                continue
            position, increment, uses = entry
            if not (type(position) is int and 0 <= position < len(self.seeds)):
                raise IndexError(f"kept seed position {position!r} is not "
                                 f"in a corpus of {len(self.seeds)}")
            _check_schedule(increment, uses)
            seed = self.seeds[position]
            seeds.append(seed)
            kept.append((seed, increment, uses))
        capacity, policy = int(state["capacity"]), str(state["policy"])
        priority_prob = tuple(state["priority_prob"])
        evictions, rejected = int(state["evictions"]), int(state["rejected"])

        def apply():
            for seed, increment, uses in kept:
                seed.coverage_increment = increment
                seed.uses = uses
            self.seeds = seeds
            self.capacity, self.policy = capacity, policy
            self.priority_prob = priority_prob
            self.evictions, self.rejected = evictions, rejected
        return apply

    # -- introspection -----------------------------------------------------------------
    def increments(self):
        return [seed.coverage_increment for seed in self.seeds]

    def best(self):
        if not self.seeds:
            return None
        return max(self.seeds, key=lambda seed: seed.coverage_increment)

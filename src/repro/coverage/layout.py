"""Coverage index layouts: how control-register bits map into the index.

A layout assigns every control register a *contribution function*
``value -> index_bits``; the module's coverage index is the XOR of all
contributions.  Layouts are deterministic given a seed, so instrumentation
is reproducible across runs (a requirement for corpus replay).

Layout classes live in the :data:`INSTRUMENTATIONS` registry, keyed by
style name.  The built-in ``legacy`` and ``optimized`` styles register on
import; third-party layouts plug in with :func:`register_instrumentation`
(re-exported by :mod:`repro.campaign`) and become valid
``CampaignSpec.instrument_style`` values without touching core files::

    @register_instrumentation("hashed")
    class HashedLayout(InstrumentationLayout):
        style = "hashed"
        ...
"""

# analyze: ignore[DET002] seeded Random below; placement is a pure function of the layout seed
import random

from repro.registry import Registry


def _rotl(value, amount, width_bits):
    """Rotate ``value`` left by ``amount`` inside a ``width_bits`` field."""
    amount %= width_bits
    mask = (1 << width_bits) - 1
    value &= mask
    return ((value << amount) | (value >> (width_bits - amount))) & mask


class InstrumentationLayout:
    """Base class: owns the register list and the contribution tables."""

    style = "base"

    def __init__(self, registers, max_state_size, seed=0):
        self.registers = list(registers)
        self.max_state_size = max_state_size
        self.seed = seed
        self.mask = (1 << max_state_size) - 1
        self.placements = self._place()

    # -- subclass API ---------------------------------------------------------
    def _place(self):
        """Return one placement descriptor per register."""
        raise NotImplementedError

    def contribution(self, position, value):
        """Index bits contributed by register ``position`` holding ``value``."""
        raise NotImplementedError

    @property
    def instrumented_points(self):
        """Number of coverage points this layout claims to instrument."""
        raise NotImplementedError

    # -- shared ---------------------------------------------------------------
    @property
    def total_register_bits(self):
        return sum(register.width for register in self.registers)

    def index(self, values):
        """Full index from a value per register (slow path; the DUT cores
        look indices up in tables built from :meth:`contribution_tables`)."""
        result = 0
        for position, value in enumerate(values):
            result ^= self.contribution(position, value)
        return result

    def contribution_tables(self):
        """Per-position ``value -> contribution`` lookup tables.

        ``tables[position][value & mask]`` equals
        ``contribution(position, value)`` for every position; the DUT
        cores fold these into their per-register-group tables when coverage
        is attached, so the hot path calls no ``contribution()``.
        Built lazily once per layout and shared by every collector over it
        (the :class:`~repro.campaign.cache.InstrumentationCache` hands one
        layout to many sessions).
        """
        tables = getattr(self, "_contribution_tables", None)
        if tables is None:
            tables = [
                [self.contribution(position, value)
                 for value in range(1 << register.width)]
                for position, register in enumerate(self.registers)
            ]
            self._contribution_tables = tables
        return tables

    def value_masks(self):
        """Per-position width masks (``(1 << width) - 1``), precomputed."""
        masks = getattr(self, "_value_masks", None)
        if masks is None:
            masks = [(1 << register.width) - 1 for register in self.registers]
            self._value_masks = masks
        return masks

    def covered_positions(self):
        """Bit positions of the index that at least one register can drive.

        Exact for layouts whose contributions are XOR-linear in the value
        bits (every shift/rotate placement, i.e. both built-ins): a value
        is a XOR of single-bit values, so a contribution can only ever set
        index bits that some single-bit value sets — OR-ing the
        contribution of each single-bit value per register is the precise
        union of drivable positions, which is what the undrivable-index
        accounting (``maxStateSize`` minus the popcount of this mask)
        relies on.  A registered layout with *non-linear* contributions
        (e.g. a hashing scheme) must override this with its own exact
        computation.
        """
        covered = 0
        for position, register in enumerate(self.registers):
            for bit in range(register.width):
                covered |= self.contribution(position, 1 << bit)
        return covered


class LegacyLayout(InstrumentationLayout):
    """Random shift + zero padding + XOR (the SOTA scheme the paper fixes).

    Shift amounts are drawn uniformly from ``[0, maxStateSize - 1]``; bits
    shifted beyond the threshold are *discarded* (the zero padding), which
    is precisely what leaves some index positions undrivable and therefore
    creates unreachable coverage points.
    """

    style = "legacy"

    def _place(self):
        rng = random.Random(self.seed)
        return [rng.randrange(self.max_state_size) for _ in self.registers]

    def contribution(self, position, value):
        shift = self.placements[position]
        register = self.registers[position]
        value &= (1 << register.width) - 1
        return (value << shift) & self.mask

    @property
    def instrumented_points(self):
        # The legacy scheme always allocates the full 2**maxStateSize buffer.
        return 1 << self.max_state_size if self.registers else 0


class OptimizedLayout(InstrumentationLayout):
    """Sequential placement with modular rollback (paper eq. 2).

    Registers are packed back to back; when ``offset + width`` exceeds the
    threshold the offset wraps via ``(last_offset + W) % maxStateSize`` and
    the placed bits rotate around the index, so every index position is
    driven by real register bits — no empty states.
    """

    style = "optimized"

    def _place(self):
        offsets = []
        offset = 0
        for register in self.registers:
            offsets.append(offset)
            offset = (offset + register.width) % self.max_state_size
        return offsets

    def contribution(self, position, value):
        offset = self.placements[position]
        register = self.registers[position]
        value &= (1 << register.width) - 1
        return _rotl(value, offset, self.max_state_size)

    @property
    def instrumented_points(self):
        if not self.registers:
            return 0
        # The optimized instrumentation "eliminates potential empty states":
        # the FIRRTL-stage pass knows each register's reachable domain (FSM
        # encodings, counter bounds), so the allocated point space is the
        # product of domain sizes, capped by the index width.
        product = 1
        cap = 1 << self.max_state_size
        for register in self.registers:
            product *= register.domain_size
            if product >= cap:
                return cap
        return product


INSTRUMENTATIONS = Registry("instrumentation style")


def register_instrumentation(name, layout_class=None, replace=False):
    """Register an :class:`InstrumentationLayout` subclass under a style
    name; usable directly or as a class decorator."""
    return INSTRUMENTATIONS.register(name, layout_class, replace=replace)


register_instrumentation("legacy", LegacyLayout)
register_instrumentation("optimized", OptimizedLayout)


def make_layout(style, registers, max_state_size, seed=0):
    """Factory: build a layout by registered style name."""
    return INSTRUMENTATIONS.get(style)(registers, max_state_size, seed=seed)

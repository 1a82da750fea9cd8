"""Direct mode: constrained-random generation without coverage guidance
(paper Section IV-B.2).

The LFSR selects prime instructions from the instruction library with
category weights keeping roughly the paper's observed 1:5 ratio of
control-flow to non-control-flow instructions; each spec's block emitter
(:mod:`repro.fuzzer.blocks`) performs the context-aware sizing and operand
assignment.  The generation loop itself is
:meth:`repro.fuzzer.TurboFuzzer.generate_iteration`, which interleaves
direct mode with mutation mode block by block.
"""

from repro.fuzzer.blocks import EMITTERS
from repro.isa.instructions import Category

# Uniform sampling over ~170 specs would give ~5% control flow; these
# weights restore the ~1:6 mix the paper measures in Fig. 4.
DEFAULT_CATEGORY_WEIGHTS = {
    Category.BRANCH: 3,
    Category.JUMP: 2,
    Category.ALU: 2,
    Category.ALU_IMM: 2,
    Category.LOAD: 2,
    Category.STORE: 2,
    # ebreak (the only generatable SYSTEM instruction) traps on every
    # execution; keeping it out of the default mix preserves the paper's
    # 0.96+ prevalence.  Bug-hunting configs re-enable it explicitly.
    Category.SYSTEM: 0,
}


class DirectGenerator:
    """Draws prime instructions: the weighted spec list, and its emitters.
    The baselines draw their specs through one too."""

    def __init__(self, library, category_weights=None):
        self.library = library
        self.category_weights = (
            dict(category_weights)
            if category_weights is not None
            else dict(DEFAULT_CATEGORY_WEIGHTS)
        )
        # Cached expanded weighted lists: rebuilding (or even re-keying)
        # them per iteration would cost more than their draws, so they are
        # revalidated with two cheap compares — the library's active-set
        # version and a snapshot of the weights dict (callers may mutate
        # ``category_weights`` in place between iterations).
        self._specs = None
        self._emitters = None
        self._version = None
        self._weights = None

    def specs(self):
        """The library's expanded weighted spec list
        (:meth:`InstructionLibrary.weighted_specs`): ``lfsr.choice``
        over it draws a spec with the category weights."""
        version = self.library.version
        if (self._specs is None
                or self._version != version
                or self._weights != self.category_weights):
            self._specs = self.library.weighted_specs(self.category_weights)
            self._emitters = [EMITTERS[spec.name] for spec in self._specs]
            self._version = version
            self._weights = dict(self.category_weights)
        return self._specs

    def emitters(self):
        """The emitter of every entry of :meth:`specs`, in its order:
        ``emitters()[state % len]`` is the block emitter of
        ``lfsr.choice(specs())``."""
        self.specs()
        return self._emitters

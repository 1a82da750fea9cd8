"""Structural netlist node types.

Nodes form a DAG through their ``sources`` lists (fan-in).  Only the
*structure* matters for the instrumentation trace-back and the area model;
runtime behaviour lives in the DUT core models, which keep the register
values themselves.
"""

import itertools

_uid = itertools.count()


class Node:
    """Base netlist node: a named, width-annotated vertex in the DAG."""

    kind = "node"

    def __init__(self, name, width=1, sources=()):
        self.uid = next(_uid)
        self.name = name
        self.width = width
        self.sources = list(sources)
        self.module = None  # set by Module.add

    @property
    def path(self):
        """Hierarchical path like ``Rocket.FPU.fdiv_state``."""
        if self.module is None:
            return self.name
        return f"{self.module.path}.{self.name}"

    def __repr__(self):
        return f"{type(self).__name__}({self.path}, w={self.width})"


class Register(Node):
    """A clocked state element; the unit of coverage instrumentation.

    ``domain`` optionally enumerates the values the register can actually
    take (e.g. a one-hot FSM state); ``None`` means the full 2**width space.
    The reachability analysis for Fig. 6 uses this.
    """

    kind = "register"

    def __init__(self, name, width=1, domain=None, sources=()):
        super().__init__(name, width, sources)
        if domain is not None:
            domain = tuple(domain)
        self.domain = domain

    @property
    def domain_size(self):
        return len(self.domain) if self.domain is not None else 1 << self.width

    def domain_values(self):
        """Iterate the reachable values of this register."""
        if self.domain is not None:
            return self.domain
        return range(1 << self.width)


class Mux(Node):
    """A multiplexer; its ``select`` fan-in drives the trace-back."""

    kind = "mux"

    def __init__(self, name, select, inputs=(), width=1):
        super().__init__(name, width, sources=list(inputs))
        self.select = select


class Logic(Node):
    """Combinational logic cloud (adders, comparators, glue)."""

    kind = "logic"

    def __init__(self, name, width=1, sources=(), lut_cost=None):
        super().__init__(name, width, sources)
        # Default LUT cost heuristic: one 6-LUT per output bit per 2 inputs.
        self.lut_cost = lut_cost


class Port(Node):
    """A module boundary port; trace-back stops here."""

    kind = "port"

    def __init__(self, name, width=1, direction="in"):
        super().__init__(name, width)
        self.direction = direction


class Memory(Node):
    """An on-chip memory (register file, cache array, queue storage)."""

    kind = "memory"

    def __init__(self, name, depth, width, sources=()):
        super().__init__(name, width, sources)
        self.depth = depth

    @property
    def bits(self):
        return self.depth * self.width

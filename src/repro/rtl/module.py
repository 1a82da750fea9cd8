"""Hierarchical module container for the RTL-IR."""

from repro.rtl.signals import Logic, Memory, Mux, Port, Register


class Module:
    """A hierarchy node owning registers, muxes, logic, memories and ports."""

    def __init__(self, name, parent=None):
        self.name = name
        self.parent = parent
        self.children = []
        self.nodes = []
        if parent is not None:
            parent.children.append(self)

    @property
    def path(self):
        if self.parent is None:
            return self.name
        return f"{self.parent.path}.{self.name}"

    # --- construction helpers -------------------------------------------------
    def add(self, node):
        """Attach a pre-built node to this module."""
        node.module = self
        self.nodes.append(node)
        return node

    def submodule(self, name):
        """Create (or fetch) a child module."""
        for child in self.children:
            if child.name == name:
                return child
        return Module(name, parent=self)

    def register(self, name, width=1, domain=None, sources=()):
        return self.add(Register(name, width, domain=domain, sources=sources))

    def mux(self, name, select, inputs=(), width=1):
        return self.add(Mux(name, select, inputs, width))

    def logic(self, name, width=1, sources=(), lut_cost=None):
        return self.add(Logic(name, width, sources, lut_cost))

    def port(self, name, width=1, direction="in"):
        return self.add(Port(name, width, direction))

    def memory(self, name, depth, width, sources=()):
        return self.add(Memory(name, depth, width, sources=sources))

    # --- queries ---------------------------------------------------------------
    def _nodes_of_kind(self, kind, recursive):
        found = [node for node in self.nodes if node.kind == kind]
        if recursive:
            for child in self.children:
                found.extend(child._nodes_of_kind(kind, True))
        return found

    def registers(self, recursive=False):
        return self._nodes_of_kind("register", recursive)

    def muxes(self, recursive=False):
        return self._nodes_of_kind("mux", recursive)

    def memories(self, recursive=False):
        return self._nodes_of_kind("memory", recursive)

    def ports(self, recursive=False):
        return self._nodes_of_kind("port", recursive)

    def walk(self):
        """Yield this module and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find_register(self, name):
        """Locate a register by leaf name anywhere under this module."""
        for module in self.walk():
            for node in module.nodes:
                if node.kind == "register" and node.name == name:
                    return node
        raise KeyError(f"no register named {name!r} under {self.path}")

    def __repr__(self):
        return f"Module({self.path})"

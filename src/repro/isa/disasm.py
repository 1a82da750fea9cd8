"""Minimal disassembler for diagnostics, snapshots and mismatch reports."""

from repro.isa.csr import csr_name
from repro.isa.decoder import try_decode
from repro.isa.registers import freg_name, xreg_name

_RM_NAMES = {0: "rne", 1: "rtz", 2: "rdn", 3: "rup", 4: "rmm", 7: "dyn"}


def disassemble(word):
    """Render a 32-bit word as assembly text (``.word`` for illegal words)."""
    decoded = try_decode(word)
    if decoded is None:
        return f".word {word:#010x}"
    spec = decoded.spec
    fmt = spec.fmt
    name = spec.name
    x = xreg_name
    f = freg_name
    d = decoded
    if fmt == "R":
        return f"{name} {x(d.rd)}, {x(d.rs1)}, {x(d.rs2)}"
    if fmt == "I":
        return f"{name} {x(d.rd)}, {x(d.rs1)}, {d.imm}"
    if fmt in ("R_SH", "R_SHW"):
        return f"{name} {x(d.rd)}, {x(d.rs1)}, {d.shamt}"
    if fmt == "L":
        return f"{name} {x(d.rd)}, {d.imm}({x(d.rs1)})"
    if fmt == "S":
        return f"{name} {x(d.rs2)}, {d.imm}({x(d.rs1)})"
    if fmt == "B":
        return f"{name} {x(d.rs1)}, {x(d.rs2)}, {d.imm}"
    if fmt == "U":
        return f"{name} {x(d.rd)}, {d.imm >> 12 & 0xFFFFF:#x}"
    if fmt == "J":
        return f"{name} {x(d.rd)}, {d.imm}"
    if fmt == "CSR":
        return f"{name} {x(d.rd)}, {csr_name(d.csr)}, {x(d.rs1)}"
    if fmt == "CSRI":
        return f"{name} {x(d.rd)}, {csr_name(d.csr)}, {d.zimm}"
    if fmt == "FR":
        rm = _RM_NAMES.get(d.rm, f"rm{d.rm}")
        return f"{name} {f(d.rd)}, {f(d.rs1)}, {f(d.rs2)}, {rm}"
    if fmt == "R4":
        rm = _RM_NAMES.get(d.rm, f"rm{d.rm}")
        return f"{name} {f(d.rd)}, {f(d.rs1)}, {f(d.rs2)}, {f(d.rs3)}, {rm}"
    if fmt == "FR1":
        return f"{name} {f(d.rd)}, {f(d.rs1)}"
    if fmt == "FRN":
        return f"{name} {f(d.rd)}, {f(d.rs1)}, {f(d.rs2)}"
    if fmt == "FCMP":
        return f"{name} {x(d.rd)}, {f(d.rs1)}, {f(d.rs2)}"
    if fmt == "FCVT_IF":
        return f"{name} {x(d.rd)}, {f(d.rs1)}"
    if fmt == "FCVT_FI":
        return f"{name} {f(d.rd)}, {x(d.rs1)}"
    if fmt == "FL":
        return f"{name} {f(d.rd)}, {d.imm}({x(d.rs1)})"
    if fmt == "FS":
        return f"{name} {f(d.rs2)}, {d.imm}({x(d.rs1)})"
    if fmt == "AMO":
        return f"{name} {x(d.rd)}, {x(d.rs2)}, ({x(d.rs1)})"
    if fmt == "LR":
        return f"{name} {x(d.rd)}, ({x(d.rs1)})"
    return name

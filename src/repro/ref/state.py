"""Architectural state: register files, PC, CSRs, privilege."""

from repro.isa import csr as CSR
from repro.isa.encoding import MASK64


# Privilege levels (machine-mode-centric model; S exists for CSR plumbing).
PRV_U = 0
PRV_S = 1
PRV_M = 3


class ArchState:
    """The complete architectural state of one hart."""

    __slots__ = ("xregs", "fregs", "pc", "csrs", "privilege", "reservation")

    def __init__(self, pc=0x8000_0000, misa_extensions="IMAFD"):
        self.xregs = [0] * 32
        self.fregs = [0] * 32
        self.pc = pc
        self.privilege = PRV_M
        self.reservation = None  # LR/SC reservation address
        self.csrs = {
            CSR.MSTATUS: CSR.MSTATUS_FS_INITIAL,
            CSR.MISA: self._encode_misa(misa_extensions),
            CSR.MTVEC: 0,
            CSR.MEPC: 0,
            CSR.MCAUSE: 0,
            CSR.MTVAL: 0,
            CSR.MSCRATCH: 0,
            CSR.MEDELEG: 0,
            CSR.MIDELEG: 0,
            CSR.MIE: 0,
            CSR.MIP: 0,
            CSR.MCYCLE: 0,
            CSR.MINSTRET: 0,
            CSR.FCSR: 0,
            CSR.STVEC: 0,
            CSR.SEPC: 0,
            CSR.SCAUSE: 0,
            CSR.STVAL: 0,
            CSR.SSTATUS: 0,
            CSR.MVENDORID: 0,
            CSR.MARCHID: 0,
            CSR.MIMPID: 0,
            CSR.MHARTID: 0,
        }

    @staticmethod
    def _encode_misa(extensions):
        value = 2 << 62  # MXL=2 (RV64)
        for letter in extensions:
            value |= 1 << (ord(letter.upper()) - ord("A"))
        return value

    # --- integer registers ---------------------------------------------------
    def read_x(self, index):
        return self.xregs[index]

    def write_x(self, index, value):
        if index:
            self.xregs[index] = value & MASK64

    # --- FP registers --------------------------------------------------------
    def write_f(self, index, value):
        self.fregs[index] = value & MASK64
        self.set_fs_dirty()

    def set_fs_dirty(self):
        status = self.csrs[CSR.MSTATUS]
        self.csrs[CSR.MSTATUS] = (status & ~CSR.MSTATUS_FS_MASK) | CSR.MSTATUS_FS_DIRTY

    @property
    def fs_off(self):
        return self.csrs[CSR.MSTATUS] & CSR.MSTATUS_FS_MASK == CSR.MSTATUS_FS_OFF

    # --- fcsr ----------------------------------------------------------------
    @property
    def fflags(self):
        return self.csrs[CSR.FCSR] & CSR.FFLAGS_MASK

    @fflags.setter
    def fflags(self, value):
        fcsr = self.csrs[CSR.FCSR]
        self.csrs[CSR.FCSR] = (fcsr & ~CSR.FFLAGS_MASK) | (value & CSR.FFLAGS_MASK)

    def accrue_fflags(self, flags):
        if flags:
            self.csrs[CSR.FCSR] |= flags & CSR.FFLAGS_MASK

    @property
    def frm(self):
        return (self.csrs[CSR.FCSR] >> CSR.FRM_SHIFT) & CSR.FRM_MASK

    @frm.setter
    def frm(self, value):
        fcsr = self.csrs[CSR.FCSR]
        self.csrs[CSR.FCSR] = (fcsr & ~(CSR.FRM_MASK << CSR.FRM_SHIFT)) | (
            (value & CSR.FRM_MASK) << CSR.FRM_SHIFT
        )

    # --- snapshots -----------------------------------------------------------
    def snapshot(self):
        """Copyable view of the full architectural state."""
        return {
            "xregs": list(self.xregs),
            "fregs": list(self.fregs),
            "pc": self.pc,
            "csrs": dict(self.csrs),
            "privilege": self.privilege,
            "reservation": self.reservation,
        }

    def restore(self, snapshot):
        """Restore a snapshot created by :meth:`snapshot`."""
        self.xregs = list(snapshot["xregs"])
        self.fregs = list(snapshot["fregs"])
        self.pc = snapshot["pc"]
        self.csrs = dict(snapshot["csrs"])
        self.privilege = snapshot["privilege"]
        self.reservation = snapshot["reservation"]

    def diff(self, other):
        """Field-by-field differences against another state (for the checker)."""
        differences = []
        for index in range(32):
            if self.xregs[index] != other.xregs[index]:
                differences.append(
                    ("x", index, self.xregs[index], other.xregs[index])
                )
        for index in range(32):
            if self.fregs[index] != other.fregs[index]:
                differences.append(
                    ("f", index, self.fregs[index], other.fregs[index])
                )
        if self.pc != other.pc:
            differences.append(("pc", None, self.pc, other.pc))
        for address in sorted(set(self.csrs) | set(other.csrs)):
            mine = self.csrs.get(address, 0)
            theirs = other.csrs.get(address, 0)
            if mine != theirs:
                differences.append(("csr", address, mine, theirs))
        return differences

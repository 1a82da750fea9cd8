"""Reference executor: architectural semantics instruction by instruction."""

from hypothesis import given, settings, strategies as st

from tests.helpers import f64_bits, bits_f64, make_executor, run_program
from repro.isa import csr as CSR
from repro.isa.encoder import assemble_all, encode
from repro.isa.encoding import MASK64, to_signed

u64 = st.integers(min_value=0, max_value=MASK64)


def _exec_one(text_lines, xregs=None, fregs=None):
    executor = make_executor(assemble_all(text_lines), xregs=xregs,
                             fregs=fregs)
    records = run_program(executor, max_steps=len(text_lines))
    return executor, records


class TestIntegerArithmetic:
    @given(a=u64, b=u64)
    @settings(max_examples=80)
    def test_add_wraps(self, a, b):
        executor, _ = _exec_one(["add x3, x1, x2"], xregs={1: a, 2: b})
        assert executor.state.xregs[3] == (a + b) & MASK64

    @given(a=u64, b=u64)
    @settings(max_examples=80)
    def test_sltu(self, a, b):
        executor, _ = _exec_one(["sltu x3, x1, x2"], xregs={1: a, 2: b})
        assert executor.state.xregs[3] == (1 if a < b else 0)

    @given(a=u64)
    @settings(max_examples=50)
    def test_addiw_truncates_and_sign_extends(self, a):
        executor, _ = _exec_one(["addiw x3, x1, 1"], xregs={1: a})
        expected = ((a + 1) & 0xFFFFFFFF)
        if expected >> 31:
            expected |= 0xFFFFFFFF_00000000
        assert executor.state.xregs[3] == expected

    def test_x0_never_written(self):
        executor, _ = _exec_one(["addi x0, x0, 5"])
        assert executor.state.xregs[0] == 0

    @given(a=u64, shamt=st.integers(min_value=0, max_value=63))
    @settings(max_examples=50)
    def test_sra_arithmetic(self, a, shamt):
        executor, _ = _exec_one([f"srai x3, x1, {shamt}"], xregs={1: a})
        assert to_signed(executor.state.xregs[3]) == to_signed(a) >> shamt


class TestMulDiv:
    def test_div_by_zero_gives_all_ones(self):
        executor, _ = _exec_one(["div x3, x1, x2"], xregs={1: 42, 2: 0})
        assert executor.state.xregs[3] == MASK64

    def test_rem_by_zero_gives_dividend(self):
        executor, _ = _exec_one(["rem x3, x1, x2"], xregs={1: 42, 2: 0})
        assert executor.state.xregs[3] == 42

    def test_div_overflow(self):
        int_min = 1 << 63
        executor, _ = _exec_one(["div x3, x1, x2"],
                                xregs={1: int_min, 2: MASK64})
        assert executor.state.xregs[3] == int_min  # INT_MIN / -1 = INT_MIN

    def test_rem_overflow_is_zero(self):
        int_min = 1 << 63
        executor, _ = _exec_one(["rem x3, x1, x2"],
                                xregs={1: int_min, 2: MASK64})
        assert executor.state.xregs[3] == 0

    @given(a=st.integers(min_value=-(1 << 62), max_value=(1 << 62)),
           b=st.integers(min_value=1, max_value=1 << 30))
    @settings(max_examples=60)
    def test_div_rem_identity(self, a, b):
        executor, _ = _exec_one(
            ["div x3, x1, x2", "rem x4, x1, x2", "mul x5, x3, x2",
             "add x6, x5, x4"],
            xregs={1: a & MASK64, 2: b},
        )
        assert to_signed(executor.state.xregs[6]) == a

    def test_mulh_signed(self):
        executor, _ = _exec_one(["mulh x3, x1, x2"],
                                xregs={1: MASK64, 2: MASK64})  # -1 * -1
        assert executor.state.xregs[3] == 0

    def test_mulhu_unsigned(self):
        executor, _ = _exec_one(["mulhu x3, x1, x2"],
                                xregs={1: MASK64, 2: MASK64})
        assert executor.state.xregs[3] == MASK64 - 1


class TestControlFlow:
    def test_taken_branch_skips(self):
        executor, records = _exec_one(
            ["beq x0, x0, 8", "addi x3, x0, 1", "addi x4, x0, 2"],
        )
        run_program(executor, max_steps=2)
        assert executor.state.xregs[3] == 0
        assert executor.state.xregs[4] == 2

    def test_jal_links(self):
        executor, records = _exec_one(["jal x1, 8"])
        assert executor.state.xregs[1] == 0x8000_0004
        assert executor.state.pc == 0x8000_0008

    def test_jalr_clears_bit0(self):
        executor, _ = _exec_one(["jalr x1, x2, 1"], xregs={2: 0x8000_0010})
        assert executor.state.pc == 0x8000_0010

    def test_misaligned_branch_target_traps(self):
        executor = make_executor([encode("jalr", rd=0, rs1=2, imm=2)],
                                 xregs={2: 0x8000_0000})
        record = executor.step()
        assert record.trap is not None
        assert record.trap.cause == CSR.CAUSE_MISALIGNED_FETCH


class TestMemoryOps:
    def test_store_load_all_sizes(self):
        executor, _ = _exec_one(
            ["sd x1, 0(x2)", "ld x3, 0(x2)", "lw x4, 0(x2)", "lh x5, 0(x2)",
             "lb x6, 0(x2)", "lbu x7, 0(x2)", "lwu x8, 0(x2)"],
            xregs={1: 0xFFFF_FFFF_FFFF_FF80, 2: 0x10000},
        )
        state = executor.state
        assert state.xregs[3] == 0xFFFF_FFFF_FFFF_FF80
        assert state.xregs[4] == 0xFFFF_FFFF_FFFF_FF80  # lw sign extends
        assert state.xregs[6] == 0xFFFF_FFFF_FFFF_FF80  # lb sign extends
        assert state.xregs[7] == 0x80  # lbu zero extends
        assert state.xregs[8] == 0xFFFF_FF80  # lwu zero extends

    def test_load_access_fault(self):
        executor = make_executor(assemble_all(["ld x3, 0(x2)"]),
                                 xregs={2: 0x5000_0000})
        executor.memory.add_range(0x8000_0000, 0x1000)
        record = executor.step()
        assert record.trap.cause == CSR.CAUSE_LOAD_ACCESS


class TestWindowEdges:
    """Fetches and stores at a legal window's edges: the fetch's window
    check and the store's fast path trap with the cause and ``tval`` the
    range check on every access gave."""

    BASE = 0x8000_0000
    SIZE = 0x1000

    def _executor(self, pc, words, xregs=None):
        executor = make_executor(words, base=pc, xregs=xregs)
        executor.memory.add_range(self.BASE, self.SIZE)
        executor.state.csrs[CSR.MTVEC] = self.BASE
        return executor

    def test_fetch_at_the_last_word_then_the_end(self):
        """The last word executes; the next fetch, at the window's end,
        faults although a word is stored there."""
        last = self.BASE + self.SIZE - 4
        end = self.BASE + self.SIZE
        executor = self._executor(
            last, assemble_all(["addi x3, x0, 7", "addi x4, x0, 9"]))
        first = executor.step()
        assert first.trap is None
        assert first.rd_value == 7 and first.next_pc == end
        record = executor.step()
        assert record.trap.cause == CSR.CAUSE_FETCH_ACCESS
        assert record.trap.tval == end
        assert executor.state.csrs[CSR.MTVAL] == end
        assert record.next_pc == self.BASE
        assert executor.state.xregs[4] == 0

    def test_misaligned_fetch(self):
        pc = self.BASE + 2
        executor = self._executor(self.BASE, assemble_all(["addi x0, x0, 0"] * 2))
        executor.state.pc = pc
        record = executor.step()
        assert record.trap.cause == CSR.CAUSE_MISALIGNED_FETCH
        assert record.trap.tval == pc

    def test_store_straddling_the_end_faults(self):
        """An 8-byte store inside the window, then one straddling its end."""
        address = self.BASE + self.SIZE - 4
        executor = self._executor(
            self.BASE, assemble_all(["sd x1, -8(x2)", "sd x1, 0(x2)"]),
            xregs={1: MASK64, 2: address})
        assert executor.step().trap is None
        record = executor.step()
        assert record.trap.cause == CSR.CAUSE_STORE_ACCESS
        assert record.trap.tval == address
        assert record.mem_addr is None
        assert executor.memory.load(address, 4) == 0


class TestAmo:
    def test_amoadd(self):
        executor, _ = _exec_one(
            ["sd x1, 0(x2)", "amoadd.d x3, x4, (x2)", "ld x5, 0(x2)"],
            xregs={1: 10, 2: 0x10000, 4: 32},
        )
        assert executor.state.xregs[3] == 10  # old value
        assert executor.state.xregs[5] == 42

    def test_lr_sc_success(self):
        executor, _ = _exec_one(
            ["lr.d x3, (x2)", "sc.d x4, x5, (x2)", "ld x6, 0(x2)"],
            xregs={2: 0x10000, 5: 99},
        )
        assert executor.state.xregs[4] == 0  # success
        assert executor.state.xregs[6] == 99

    def test_sc_without_reservation_fails(self):
        executor, _ = _exec_one(
            ["sc.d x4, x5, (x2)"], xregs={2: 0x10000, 5: 99},
        )
        assert executor.state.xregs[4] == 1

    def test_misaligned_amo_traps(self):
        executor = make_executor(
            [encode("amoadd.w", rd=3, rs1=2, rs2=4)], xregs={2: 0x10002},
        )
        record = executor.step()
        assert record.trap.cause == CSR.CAUSE_MISALIGNED_STORE

    def test_amominu_unsigned_compare(self):
        executor, _ = _exec_one(
            ["sd x1, 0(x2)", "amominu.d x3, x4, (x2)", "ld x5, 0(x2)"],
            xregs={1: MASK64, 2: 0x10000, 4: 5},
        )
        assert executor.state.xregs[5] == 5


class TestCsr:
    def test_csrrw_swaps(self):
        executor, _ = _exec_one(
            ["csrrw x3, 0x340, x1", "csrrs x4, 0x340, x0"],
            xregs={1: 0xABCD},
        )
        assert executor.state.xregs[3] == 0  # old mscratch
        assert executor.state.xregs[4] == 0xABCD

    def test_csrrs_x0_does_not_write(self):
        executor, records = _exec_one(["csrrs x3, 0xB02, x0"])
        assert records[0].csr_addr is None

    def test_csrrci_clears_bits(self):
        executor, _ = _exec_one(
            ["csrrwi x0, 0x001, 31", "csrrci x3, 0x001, 5",
             "csrrs x4, 0x001, x0"],
        )
        assert executor.state.xregs[3] == 31
        assert executor.state.xregs[4] == 31 & ~5

    def test_unknown_csr_traps(self):
        executor, records = _exec_one(["csrrw x3, 0x8FF, x1"])
        assert records[0].trap.cause == CSR.CAUSE_ILLEGAL_INSTRUCTION

    def test_readonly_csr_write_traps(self):
        executor, records = _exec_one(["csrrw x3, 0xC00, x1"])  # cycle
        assert records[0].trap.cause == CSR.CAUSE_ILLEGAL_INSTRUCTION

    def test_minstret_counts(self):
        executor, _ = _exec_one(
            ["addi x1, x0, 1", "addi x1, x0, 2", "csrrs x3, 0xB02, x0"],
        )
        assert executor.state.xregs[3] == 2

    def test_fflags_frm_alias_fcsr(self):
        executor, _ = _exec_one(
            ["csrrwi x0, 0x002, 3", "csrrwi x0, 0x001, 5",
             "csrrs x3, 0x003, x0"],
        )
        assert executor.state.xregs[3] == (3 << 5) | 5


class TestTraps:
    def test_ecall_sets_mepc_mcause(self):
        executor, records = _exec_one(["ecall"])
        state = executor.state
        assert records[0].trap.cause == CSR.CAUSE_ECALL_M
        assert state.csrs[CSR.MEPC] == 0x8000_0000
        assert state.csrs[CSR.MCAUSE] == CSR.CAUSE_ECALL_M

    def test_trap_vectors_to_mtvec(self):
        program = assemble_all([
            "lui x1, 0x40010", "csrrw x0, 0x305, x1", "ebreak",
        ])
        executor = make_executor(program)
        run_program(executor, max_steps=3, stop_on_trap=False)
        assert executor.state.pc == 0x4001_0000

    def test_illegal_instruction_sets_mtval(self):
        executor = make_executor([0xFFFF_FFFF])
        record = executor.step()
        assert record.trap.cause == CSR.CAUSE_ILLEGAL_INSTRUCTION
        assert executor.state.csrs[CSR.MTVAL] == 0xFFFF_FFFF

    def test_stval_mirrors_mtval(self):
        executor = make_executor([0xFFFF_FFFF])
        executor.step()
        assert executor.state.csrs[CSR.STVAL] == 0xFFFF_FFFF

    def test_mret_returns(self):
        program = assemble_all([
            "lui x1, 0x40000", "csrrw x0, 0x341, x1", "mret",
        ])
        executor = make_executor(program)
        run_program(executor, max_steps=3, stop_on_trap=False)
        assert executor.state.pc == 0x4000_0000

    def test_trap_disables_mie_and_saves_mpie(self):
        executor, _ = _exec_one(["csrrsi x0, 0x300, 8", "ecall"])
        status = executor.state.csrs[CSR.MSTATUS]
        assert status & CSR.MSTATUS_MIE == 0
        assert status & CSR.MSTATUS_MPIE


class TestFpPlumbing:
    def test_fp_disabled_traps(self):
        program = assemble_all([
            "lui x1, 0x6", "csrrc x0, 0x300, x1",  # clear FS
            "fadd.d ft0, ft1, ft2",
        ])
        executor = make_executor(program)
        records = run_program(executor, max_steps=3)
        assert records[-1].trap.cause == CSR.CAUSE_ILLEGAL_INSTRUCTION

    def test_invalid_static_rm_traps(self):
        word = encode("fadd.d", rd=0, rs1=1, rs2=2, rm=5)
        executor = make_executor([word])
        record = executor.step()
        assert record.trap.cause == CSR.CAUSE_ILLEGAL_INSTRUCTION

    def test_invalid_dynamic_frm_traps(self):
        program = assemble_all(["csrrwi x0, 0x002, 5"]) + [
            encode("fadd.d", rd=0, rs1=1, rs2=2, rm=7)
        ]
        executor = make_executor(program)
        records = run_program(executor, max_steps=2)
        assert records[-1].trap.cause == CSR.CAUSE_ILLEGAL_INSTRUCTION

    def test_fp_op_accrues_flags(self):
        executor, _ = _exec_one(
            ["fdiv.d ft2, ft0, ft1", "csrrs x3, 0x001, x0"],
            fregs={0: f64_bits(1.0), 1: f64_bits(0.0)},
        )
        assert executor.state.xregs[3] == CSR.FFLAGS_DZ

    def test_flw_nan_boxes(self):
        executor, _ = _exec_one(
            ["sw x1, 0(x2)", "flw ft0, 0(x2)"],
            xregs={1: 0x3F800000, 2: 0x10000},
        )
        assert executor.state.fregs[0] == 0xFFFFFFFF_3F800000

    def test_fdiv_d_computes(self):
        executor, _ = _exec_one(
            ["fdiv.d ft2, ft0, ft1"],
            fregs={0: f64_bits(1.0), 1: f64_bits(4.0)},
        )
        assert bits_f64(executor.state.fregs[2]) == 0.25

    def test_fsgnjx(self):
        executor, _ = _exec_one(
            ["fsgnjx.d ft2, ft0, ft1"],
            fregs={0: f64_bits(2.0), 1: f64_bits(-3.0)},
        )
        assert bits_f64(executor.state.fregs[2]) == -2.0

    def test_fmv_x_w_sign_extends(self):
        executor, _ = _exec_one(
            ["fmv.x.w x3, ft0"], fregs={0: 0xFFFFFFFF_80000000},
        )
        assert executor.state.xregs[3] == 0xFFFFFFFF_80000000

    def test_writing_fp_marks_fs_dirty(self):
        executor, _ = _exec_one(["fcvt.d.w ft0, x1"], xregs={1: 3})
        status = executor.state.csrs[CSR.MSTATUS]
        assert status & CSR.MSTATUS_FS_MASK == CSR.MSTATUS_FS_DIRTY


class TestCommitRecords:
    def test_rd_write_recorded(self):
        executor, records = _exec_one(["addi x3, x0, 7"])
        assert records[0].rd == 3 and records[0].rd_value == 7

    def test_store_recorded(self):
        executor, records = _exec_one(["sd x1, 8(x2)"],
                                      xregs={1: 5, 2: 0x10000})
        record = records[0]
        assert record.mem_addr == 0x10008
        assert record.mem_size == 8
        assert record.mem_value == 5

    def test_key_fields_equal_for_same_execution(self):
        a, _ = _exec_one(["addi x3, x0, 7"])
        b, _ = _exec_one(["addi x3, x0, 7"])
        # Executing the same program yields identical key fields.
        ra = make_executor(assemble_all(["addi x3, x0, 7"])).step()
        rb = make_executor(assemble_all(["addi x3, x0, 7"])).step()
        assert ra.key_fields() == rb.key_fields()

"""Executor tests for memory, control-flow, CSR, system and atomic instructions."""


from repro.isa import csr as csrdefs
from repro.isa.exceptions import TrapCause
from repro.isa.instruction import Instruction
from repro.utils.bits import MASK64, to_unsigned
from tests.sim.helpers import BASE, DATA, execute_one, step_block


class TestLoads:
    def test_ld(self):
        record, _, _ = execute_one(
            Instruction("ld", rd=3, rs1=1, imm=8),
            regs={1: DATA}, memory_values={DATA + 8: (0x1122334455667788, 8)})
        assert record.rd_value == 0x1122334455667788

    def test_lw_sign_extends(self):
        record, _, _ = execute_one(
            Instruction("lw", rd=3, rs1=1, imm=0),
            regs={1: DATA}, memory_values={DATA: (0x8000_0000, 4)})
        assert record.rd_value == 0xFFFF_FFFF_8000_0000

    def test_lwu_zero_extends(self):
        record, _, _ = execute_one(
            Instruction("lwu", rd=3, rs1=1, imm=0),
            regs={1: DATA}, memory_values={DATA: (0x8000_0000, 4)})
        assert record.rd_value == 0x8000_0000

    def test_lb_lbu(self):
        memory_values = {DATA: (0xFF, 1)}
        record, _, _ = execute_one(Instruction("lb", rd=3, rs1=1, imm=0),
                                   regs={1: DATA}, memory_values=memory_values)
        assert record.rd_value == MASK64
        record, _, _ = execute_one(Instruction("lbu", rd=3, rs1=1, imm=0),
                                   regs={1: DATA}, memory_values=memory_values)
        assert record.rd_value == 0xFF

    def test_load_negative_offset(self):
        record, _, _ = execute_one(
            Instruction("lh", rd=3, rs1=1, imm=-2),
            regs={1: DATA + 2}, memory_values={DATA: (0x1234, 2)})
        assert record.rd_value == 0x1234

    def test_load_access_fault(self):
        record, state, _ = execute_one(Instruction("ld", rd=3, rs1=1, imm=0),
                                       regs={1: 0x10})
        assert record.trap is TrapCause.LOAD_ACCESS_FAULT
        assert state.csrs[csrdefs.MCAUSE] == int(TrapCause.LOAD_ACCESS_FAULT)
        assert state.csrs[csrdefs.MTVAL] == 0x10
        assert state.csrs[csrdefs.MEPC] == BASE

    def test_load_misaligned(self):
        record, _, _ = execute_one(Instruction("lw", rd=3, rs1=1, imm=1),
                                   regs={1: DATA})
        assert record.trap is TrapCause.LOAD_ADDRESS_MISALIGNED


class TestStores:
    def test_sd(self):
        record, _, memory = execute_one(
            Instruction("sd", rs1=1, rs2=2, imm=16),
            regs={1: DATA, 2: 0xCAFEBABE})
        assert memory.load(DATA + 16, 8) == 0xCAFEBABE
        assert record.mem_addr == DATA + 16
        assert record.mem_value == 0xCAFEBABE
        assert record.mem_size == 8

    def test_sb_truncates(self):
        _, _, memory = execute_one(Instruction("sb", rs1=1, rs2=2, imm=0),
                                   regs={1: DATA, 2: 0x1FF})
        assert memory.load(DATA, 1) == 0xFF

    def test_store_access_fault(self):
        record, _, _ = execute_one(Instruction("sw", rs1=1, rs2=2, imm=0),
                                   regs={1: 0xFFFF_FFFF_0000_0000, 2: 1})
        assert record.trap is TrapCause.STORE_ACCESS_FAULT


class TestBranches:
    def test_taken_branch(self):
        record, _, _ = execute_one(Instruction("beq", rs1=1, rs2=2, imm=16),
                                   regs={1: 5, 2: 5})
        assert record.next_pc == BASE + 16

    def test_not_taken_branch(self):
        record, _, _ = execute_one(Instruction("beq", rs1=1, rs2=2, imm=16),
                                   regs={1: 5, 2: 6})
        assert record.next_pc == BASE + 4

    def test_blt_signed(self):
        record, _, _ = execute_one(Instruction("blt", rs1=1, rs2=2, imm=8),
                                   regs={1: to_unsigned(-1), 2: 0})
        assert record.next_pc == BASE + 8

    def test_bltu_unsigned(self):
        record, _, _ = execute_one(Instruction("bltu", rs1=1, rs2=2, imm=8),
                                   regs={1: to_unsigned(-1), 2: 0})
        assert record.next_pc == BASE + 4

    def test_bge_backward(self):
        record, _, _ = execute_one(Instruction("bge", rs1=1, rs2=2, imm=-8),
                                   regs={1: 3, 2: 3})
        assert record.next_pc == BASE - 8

    def test_misaligned_target_traps(self):
        record, _, _ = execute_one(Instruction("beq", rs1=1, rs2=2, imm=6),
                                   regs={1: 0, 2: 0})
        assert record.trap is TrapCause.INSTRUCTION_ADDRESS_MISALIGNED


class TestJumps:
    def test_jal_link_and_target(self):
        record, state, _ = execute_one(Instruction("jal", rd=1, imm=32))
        assert record.next_pc == BASE + 32
        assert state.read_reg(1) == BASE + 4

    def test_jalr_clears_lsb(self):
        record, _, _ = execute_one(Instruction("jalr", rd=1, rs1=2, imm=1),
                                   regs={2: BASE + 8})
        assert record.next_pc == BASE + 8

    def test_jalr_misaligned_traps(self):
        record, _, _ = execute_one(Instruction("jalr", rd=1, rs1=2, imm=2),
                                   regs={2: BASE})
        assert record.trap is TrapCause.INSTRUCTION_ADDRESS_MISALIGNED


class TestCsrInstructions:
    def test_csrrw_swaps(self):
        record, state, _ = execute_one(
            Instruction("csrrw", rd=3, rs1=1, csr=csrdefs.MSCRATCH),
            regs={1: 0x55})
        assert record.rd_value == 0  # old value
        assert state.read_csr(csrdefs.MSCRATCH) == 0x55
        assert record.csr_addr == csrdefs.MSCRATCH
        assert record.csr_value == 0x55

    def test_csrrs_sets_bits(self):
        record, state, _ = execute_one(
            Instruction("csrrs", rd=3, rs1=1, csr=csrdefs.MSCRATCH),
            regs={1: 0b1010})
        assert state.read_csr(csrdefs.MSCRATCH) == 0b1010

    def test_csrrc_clears_bits(self):
        _, state, _ = execute_one(
            Instruction("csrrci", rd=3, imm=0b11, csr=csrdefs.MSTATUS))
        assert state.read_csr(csrdefs.MSTATUS) & 0b11 == 0

    def test_csrrs_x0_does_not_write_readonly(self):
        record, _, _ = execute_one(
            Instruction("csrrs", rd=3, rs1=0, csr=csrdefs.MHARTID))
        assert record.trap is None
        assert record.rd_value == 0
        assert record.csr_addr is None

    def test_csrrw_readonly_traps(self):
        record, _, _ = execute_one(
            Instruction("csrrw", rd=3, rs1=1, csr=csrdefs.MHARTID), regs={1: 5})
        assert record.trap is TrapCause.ILLEGAL_INSTRUCTION

    def test_unimplemented_csr_traps(self):
        record, _, _ = execute_one(Instruction("csrrs", rd=3, rs1=0, csr=0x7B0))
        assert record.trap is TrapCause.ILLEGAL_INSTRUCTION

    def test_csrrwi_uses_immediate(self):
        _, state, _ = execute_one(
            Instruction("csrrwi", rd=3, imm=0x1F, csr=csrdefs.MSCRATCH))
        assert state.read_csr(csrdefs.MSCRATCH) == 0x1F


class TestSystemInstructions:
    def test_ecall_traps_and_halts(self):
        from repro.sim.executor import Executor, ExecutorConfig
        from repro.sim.memory import Memory
        from repro.sim.state import ArchState
        from repro.isa.assembler import encode_instruction

        memory = Memory()
        memory.load_program_words(BASE, [encode_instruction(Instruction("ecall"))])
        executor = Executor(ArchState(pc=BASE), memory, ExecutorConfig())
        record = step_block(executor)
        assert record.trap is TrapCause.ECALL_FROM_M
        assert executor.halted

    def test_ebreak_traps_but_continues(self):
        record, _, _ = execute_one(Instruction("ebreak"))
        assert record.trap is TrapCause.BREAKPOINT
        assert record.next_pc == BASE + 4

    def test_mret_jumps_to_mepc(self):
        record, state, _ = execute_one(Instruction("mret"))
        assert record.next_pc == state.csrs[csrdefs.MEPC]

    def test_wfi_and_fences_are_nops(self):
        for mnemonic in ("wfi", "fence", "fence.i"):
            record, _, _ = execute_one(Instruction(mnemonic))
            assert record.trap is None
            assert record.next_pc == BASE + 4

    def test_illegal_word_traps(self):
        record, state, _ = execute_one(Instruction.illegal(0xFFFF_FFFF))
        assert record.trap is TrapCause.ILLEGAL_INSTRUCTION
        assert state.csrs[csrdefs.MTVAL] == 0xFFFF_FFFF


class TestAtomics:
    def test_lr_sc_success(self):
        from repro.isa.assembler import encode_instruction
        from repro.sim.executor import Executor, ExecutorConfig
        from repro.sim.memory import Memory
        from repro.sim.state import ArchState

        memory = Memory()
        memory.store(DATA, 77, 8)
        words = [
            encode_instruction(Instruction("lr.d", rd=3, rs1=1)),
            encode_instruction(Instruction("sc.d", rd=4, rs1=1, rs2=2)),
        ]
        memory.load_program_words(BASE, words)
        state = ArchState(pc=BASE)
        state.write_reg(1, DATA)
        state.write_reg(2, 99)
        executor = Executor(state, memory, ExecutorConfig())
        lr_record = step_block(executor)
        sc_record = step_block(executor)
        assert lr_record.rd_value == 77
        assert sc_record.rd_value == 0  # success
        assert memory.load(DATA, 8) == 99

    def test_sc_without_reservation_fails(self):
        record, _, memory = execute_one(
            Instruction("sc.w", rd=4, rs1=1, rs2=2),
            regs={1: DATA, 2: 55}, memory_values={DATA: (7, 4)})
        assert record.rd_value == 1  # failure
        assert memory.load(DATA, 4) == 7  # memory unchanged

    def test_amoadd(self):
        record, _, memory = execute_one(
            Instruction("amoadd.w", rd=3, rs1=1, rs2=2),
            regs={1: DATA, 2: 5}, memory_values={DATA: (10, 4)})
        assert record.rd_value == 10  # old value
        assert memory.load(DATA, 4) == 15

    def test_amoswap(self):
        record, _, memory = execute_one(
            Instruction("amoswap.d", rd=3, rs1=1, rs2=2),
            regs={1: DATA, 2: 0xABCD}, memory_values={DATA: (0x1111, 8)})
        assert record.rd_value == 0x1111
        assert memory.load(DATA, 8) == 0xABCD

    def test_amo_and_or_xor(self):
        cases = {"amoand.w": 0b1000, "amoor.w": 0b1110, "amoxor.w": 0b0110}
        for mnemonic, expected in cases.items():
            _, _, memory = execute_one(
                Instruction(mnemonic, rd=3, rs1=1, rs2=2),
                regs={1: DATA, 2: 0b1010}, memory_values={DATA: (0b1100, 4)})
            assert memory.load(DATA, 4) == expected, mnemonic

    def test_amo_misaligned_traps(self):
        record, _, _ = execute_one(Instruction("amoadd.w", rd=3, rs1=1, rs2=2),
                                   regs={1: DATA + 2, 2: 1})
        assert record.trap is TrapCause.LOAD_ADDRESS_MISALIGNED

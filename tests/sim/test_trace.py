"""Tests for commit-record semantics."""

from repro.isa.exceptions import TrapCause
from repro.sim.trace import CommitRecord, ExecutionResult, HaltReason


class TestCommitRecord:
    def test_arch_key_ignores_word(self):
        a = CommitRecord(pc=0x100, word=0x13, mnemonic="addi",
                         rd=1, rd_value=5, next_pc=0x104)
        b = CommitRecord(pc=0x100, word=0x9999, mnemonic="addi",
                         rd=1, rd_value=5, next_pc=0x104)
        assert a.arch_key() == b.arch_key()

    def test_arch_key_differs_on_rd_value(self):
        a = CommitRecord(pc=0x100, word=0x13, mnemonic="addi",
                         rd=1, rd_value=5, next_pc=0x104)
        b = CommitRecord(pc=0x100, word=0x13, mnemonic="addi",
                         rd=1, rd_value=6, next_pc=0x104)
        assert a.arch_key() != b.arch_key()

    def test_arch_key_differs_on_trap(self):
        a = CommitRecord(pc=0x100, word=0, mnemonic="illegal",
                         trap=TrapCause.ILLEGAL_INSTRUCTION, next_pc=0x104)
        b = CommitRecord(pc=0x100, word=0, mnemonic="illegal",
                         next_pc=0x104)
        assert a.arch_key() != b.arch_key()


class TestExecutionResult:
    def test_instret(self):
        records = [CommitRecord(pc=i * 4, word=0, mnemonic="addi",
                                next_pc=(i + 1) * 4) for i in range(3)]
        result = ExecutionResult(records=records, halt_reason=HaltReason.PROGRAM_END)
        assert result.instret == 3

    def test_default_empty(self):
        result = ExecutionResult()
        assert result.instret == 0
        assert result.trapped_steps() == []

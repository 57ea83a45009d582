// Unit tests for the RV32IM ISS: ISA codec, memory, CPU semantics, debug
// surface (breakpoints/watchpoints) and the assembler.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <ostream>
#include <string>
#include <vector>

#include "iss/assembler.hpp"
#include "iss/cpu.hpp"
#include "iss/isa.hpp"
#include "iss/memory.hpp"
#include "util/error.hpp"

namespace nisc::iss {
namespace {

using util::LogicError;
using util::RuntimeError;

// ---------------------------------------------------------------- isa

TEST(IsaTest, GoldenEncodings) {
  EXPECT_EQ(encode({Op::Addi, 1, 0, 0, 5}), 0x00500093u);
  EXPECT_EQ(encode({Op::Add, 3, 1, 2, 0}), 0x002081B3u);
  EXPECT_EQ(encode({Op::Lw, 5, 2, 0, 8}), 0x00812283u);
  EXPECT_EQ(encode({Op::Sw, 0, 2, 5, 12}), 0x00512623u);
  EXPECT_EQ(encode({Op::Ecall, 0, 0, 0, 0}), 0x00000073u);
  EXPECT_EQ(encode({Op::Ebreak, 0, 0, 0, 0}), 0x00100073u);
}

TEST(IsaTest, GoldenDecodes) {
  EXPECT_EQ(decode(0x00500093u), (Instr{Op::Addi, 1, 0, 5, 5}));  // rs2 field = imm bits
  Instr lw = decode(0x00812283u);
  EXPECT_EQ(lw.op, Op::Lw);
  EXPECT_EQ(lw.rd, 5);
  EXPECT_EQ(lw.rs1, 2);
  EXPECT_EQ(lw.imm, 8);
}

TEST(IsaTest, IllegalWordsDecodeAsIllegal) {
  EXPECT_EQ(decode(0x00000000u).op, Op::Illegal);
  EXPECT_EQ(decode(0xFFFFFFFFu).op, Op::Illegal);
  EXPECT_EQ(decode(0x0000007Fu).op, Op::Illegal);
}

TEST(IsaTest, EncodeRejectsIllegal) {
  EXPECT_THROW(encode(Instr{}), LogicError);
  EXPECT_THROW(encode({Op::Addi, 1, 0, 0, 5000}), LogicError);   // imm12 overflow
  EXPECT_THROW(encode({Op::Beq, 0, 1, 2, 3}), LogicError);       // odd branch offset
  EXPECT_THROW(encode({Op::Slli, 1, 1, 0, 37}), LogicError);     // shamt >= 32
}

TEST(IsaTest, RegNames) {
  EXPECT_EQ(reg_abi_name(0), "zero");
  EXPECT_EQ(reg_abi_name(1), "ra");
  EXPECT_EQ(reg_abi_name(2), "sp");
  EXPECT_EQ(reg_abi_name(10), "a0");
  EXPECT_EQ(reg_abi_name(31), "t6");
}

TEST(IsaTest, ParseReg) {
  EXPECT_EQ(parse_reg("x0"), 0);
  EXPECT_EQ(parse_reg("x31"), 31);
  EXPECT_EQ(parse_reg("zero"), 0);
  EXPECT_EQ(parse_reg("sp"), 2);
  EXPECT_EQ(parse_reg("a0"), 10);
  EXPECT_EQ(parse_reg("fp"), 8);
  EXPECT_EQ(parse_reg("s0"), 8);
  EXPECT_FALSE(parse_reg("x32").has_value());
  EXPECT_FALSE(parse_reg("q7").has_value());
  EXPECT_FALSE(parse_reg("").has_value());
}

TEST(IsaTest, Disassemble) {
  EXPECT_EQ(disassemble(decode(0x00500093u)), "addi x1, x0, 5");
  EXPECT_EQ(disassemble(decode(0x002081B3u)), "add x3, x1, x2");
  EXPECT_EQ(disassemble(decode(0x00812283u)), "lw x5, 8(x2)");
  EXPECT_EQ(disassemble(decode(0x00000073u)), "ecall");
}

TEST(IsaTest, RangeHelpers) {
  EXPECT_TRUE(fits_imm12(2047));
  EXPECT_TRUE(fits_imm12(-2048));
  EXPECT_FALSE(fits_imm12(2048));
  EXPECT_TRUE(fits_branch(-4096));
  EXPECT_FALSE(fits_branch(4095));  // odd
  EXPECT_TRUE(fits_jump(1048574));
  EXPECT_FALSE(fits_jump(1048575));
}

class IsaRoundTrip : public ::testing::TestWithParam<Instr> {};

TEST_P(IsaRoundTrip, EncodeDecodeIsIdentity) {
  const Instr& original = GetParam();
  Instr round = decode(encode(original));
  EXPECT_EQ(round.op, original.op) << disassemble(original);
  if (round.op != Op::Fence && round.op != Op::Ecall && round.op != Op::Ebreak) {
    EXPECT_EQ(disassemble(round), disassemble(original));
  }
}

std::vector<Instr> roundtrip_cases() {
  std::vector<Instr> cases = {
      {Op::Lui, 7, 0, 0, static_cast<std::int32_t>(0xABCDE000)},
      {Op::Auipc, 3, 0, 0, 0x7F000},
      {Op::Jal, 1, 0, 0, -2048},
      {Op::Jal, 0, 0, 0, 1048574},
      {Op::Jalr, 1, 5, 0, -4},
      {Op::Beq, 0, 1, 2, -4096},
      {Op::Bne, 0, 3, 4, 4094},
      {Op::Blt, 0, 5, 6, 8},
      {Op::Bge, 0, 7, 8, -8},
      {Op::Bltu, 0, 9, 10, 100},
      {Op::Bgeu, 0, 11, 12, -100},
      {Op::Lb, 1, 2, 0, -1},
      {Op::Lh, 3, 4, 0, 2},
      {Op::Lw, 5, 6, 0, 2047},
      {Op::Lbu, 7, 8, 0, -2048},
      {Op::Lhu, 9, 10, 0, 0},
      {Op::Sb, 0, 1, 2, -1},
      {Op::Sh, 0, 3, 4, 2},
      {Op::Sw, 0, 5, 6, 2047},
      {Op::Addi, 1, 2, 0, -2048},
      {Op::Slti, 3, 4, 0, 5},
      {Op::Sltiu, 5, 6, 0, 7},
      {Op::Xori, 7, 8, 0, -1},
      {Op::Ori, 9, 10, 0, 255},
      {Op::Andi, 11, 12, 0, 15},
      {Op::Slli, 13, 14, 0, 31},
      {Op::Srli, 15, 16, 0, 1},
      {Op::Srai, 17, 18, 0, 16},
      {Op::Add, 19, 20, 21, 0},
      {Op::Sub, 22, 23, 24, 0},
      {Op::Sll, 25, 26, 27, 0},
      {Op::Slt, 28, 29, 30, 0},
      {Op::Sltu, 31, 1, 2, 0},
      {Op::Xor, 3, 4, 5, 0},
      {Op::Srl, 6, 7, 8, 0},
      {Op::Sra, 9, 10, 11, 0},
      {Op::Or, 12, 13, 14, 0},
      {Op::And, 15, 16, 17, 0},
      {Op::Fence, 0, 0, 0, 0},
      {Op::Ecall, 0, 0, 0, 0},
      {Op::Ebreak, 0, 0, 0, 0},
      {Op::Mul, 1, 2, 3, 0},
      {Op::Mulh, 4, 5, 6, 0},
      {Op::Mulhsu, 7, 8, 9, 0},
      {Op::Mulhu, 10, 11, 12, 0},
      {Op::Div, 13, 14, 15, 0},
      {Op::Divu, 16, 17, 18, 0},
      {Op::Rem, 19, 20, 21, 0},
      {Op::Remu, 22, 23, 24, 0},
  };
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllOps, IsaRoundTrip, ::testing::ValuesIn(roundtrip_cases()),
                         [](const auto& info) {
                           return std::string(op_name(info.param.op)) + "_" +
                                  std::to_string(info.index);
                         });

// ---------------------------------------------------------------- memory

TEST(MemoryTest, LittleEndianLayout) {
  Memory mem(64);
  mem.write32(0, 0x11223344);
  EXPECT_EQ(mem.read8(0), 0x44);
  EXPECT_EQ(mem.read8(3), 0x11);
  EXPECT_EQ(mem.read16(0), 0x3344);
  EXPECT_EQ(mem.read16(2), 0x1122);
}

TEST(MemoryTest, WidthRoundTrips) {
  Memory mem(64);
  mem.write8(10, 0xAB);
  EXPECT_EQ(mem.read8(10), 0xAB);
  mem.write16(12, 0xBEEF);
  EXPECT_EQ(mem.read16(12), 0xBEEF);
  mem.write32(16, 0xCAFEBABE);
  EXPECT_EQ(mem.read32(16), 0xCAFEBABE);
}

TEST(MemoryTest, OutOfBoundsThrows) {
  Memory mem(16);
  EXPECT_THROW(mem.read8(16), RuntimeError);
  EXPECT_THROW(mem.read32(13), RuntimeError);
  EXPECT_THROW(mem.write32(14, 0), RuntimeError);
  EXPECT_NO_THROW(mem.read32(12));
}

TEST(MemoryTest, BlockOps) {
  Memory mem(64);
  std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
  mem.write_block(20, data);
  EXPECT_EQ(mem.read_block(20, 5), data);
  EXPECT_THROW(mem.write_block(62, data), RuntimeError);
}

TEST(MemoryTest, ClearZeroes) {
  Memory mem(32);
  mem.write32(0, 0xFFFFFFFF);
  mem.clear();
  EXPECT_EQ(mem.read32(0), 0u);
}

TEST(MemoryTest, MovedMemoryKeepsContents) {
  Memory a(4096);
  a.write32(8, 0x12345678);
  Memory b(std::move(a));
  EXPECT_EQ(b.size(), 4096u);
  EXPECT_EQ(b.read32(8), 0x12345678u);
  Memory c(16);
  c = std::move(b);
  EXPECT_EQ(c.size(), 4096u);
  EXPECT_EQ(c.read32(8), 0x12345678u);
}

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

TEST(MemoryTest, GuestMemoryIsZeroFilledOnFirstTouch) {
  // A 1 MB guest that runs a tiny program touches a page or two. Eagerly
  // zero-filling all of it would cost 256 page faults (4 KiB pages).
  const Program prog = assemble("li a0, 7\nebreak\n");
  const long before = minor_faults();
  Cpu cpu(1 << 20);
  prog.load_into(cpu.mem());
  cpu.reset(prog.entry);
  EXPECT_EQ(cpu.run(100), Halt::Ebreak);
  const long faults = minor_faults() - before;
  EXPECT_LT(faults, 32) << "page faults while building and running a 1 MB CPU";
  EXPECT_EQ(cpu.mem().read32((1 << 20) - 4), 0u);  // untouched memory reads zero
}

// ---------------------------------------------------------------- cpu helpers

/// Assembles and runs `source` for at most `max` instructions.
Cpu run_program(const std::string& source, std::uint64_t max = 10000) {
  Cpu cpu(1 << 16);
  Program prog = assemble(source);
  prog.load_into(cpu.mem());
  cpu.reset(prog.entry);
  cpu.run(max);
  return cpu;
}

constexpr std::uint8_t kA0 = 10;
constexpr std::uint8_t kA1 = 11;

// ---------------------------------------------------------------- cpu: ALU sweep

struct AluCase {
  const char* name;
  const char* body;           // program body; result expected in a0
  std::uint32_t expected_a0;
};

// Print the case by name: gtest's default dumps the struct's raw bytes,
// pointers included, which makes the ctest names change from run to run.
void PrintTo(const AluCase& c, std::ostream* os) { *os << c.name; }

class CpuAluTest : public ::testing::TestWithParam<AluCase> {};

TEST_P(CpuAluTest, ComputesExpectedValue) {
  const AluCase& c = GetParam();
  Cpu cpu = run_program(std::string(c.body) + "\nebreak\n");
  EXPECT_EQ(cpu.last_halt(), Halt::Ebreak);
  EXPECT_EQ(cpu.reg(kA0), c.expected_a0) << c.body;
}

const AluCase kAluCases[] = {
    {"addi", "li a0, 5\naddi a0, a0, 7", 12},
    {"addi_neg", "li a0, 5\naddi a0, a0, -7", static_cast<std::uint32_t>(-2)},
    {"add", "li a1, 100\nli a2, 23\nadd a0, a1, a2", 123},
    {"sub", "li a1, 100\nli a2, 23\nsub a0, a1, a2", 77},
    {"sub_wrap", "li a1, 0\nli a2, 1\nsub a0, a1, a2", 0xFFFFFFFF},
    {"slt_true", "li a1, -5\nli a2, 3\nslt a0, a1, a2", 1},
    {"slt_false", "li a1, 3\nli a2, -5\nslt a0, a1, a2", 0},
    {"sltu_true", "li a1, 3\nli a2, -5\nsltu a0, a1, a2", 1},  // -5 unsigned is huge
    {"slti", "li a1, -10\nslti a0, a1, -5", 1},
    {"sltiu", "li a1, 4\nsltiu a0, a1, 5", 1},
    {"xor", "li a1, 0xFF\nli a2, 0x0F\nxor a0, a1, a2", 0xF0},
    {"xori", "li a1, 0xF0\nxori a0, a1, 0xF", 0xFF},
    {"or", "li a1, 0xF0\nli a2, 0x0F\nor a0, a1, a2", 0xFF},
    {"ori", "li a1, 0xF0\nori a0, a1, 0x0F", 0xFF},
    {"and", "li a1, 0xFF\nli a2, 0x3C\nand a0, a1, a2", 0x3C},
    {"andi", "li a1, 0xFF\nandi a0, a1, 0x3C", 0x3C},
    {"sll", "li a1, 1\nli a2, 8\nsll a0, a1, a2", 256},
    {"slli", "li a1, 3\nslli a0, a1, 4", 48},
    {"srl", "li a1, 256\nli a2, 4\nsrl a0, a1, a2", 16},
    {"srli", "li a1, -1\nsrli a0, a1, 28", 0xF},
    {"sra", "li a1, -16\nli a2, 2\nsra a0, a1, a2", static_cast<std::uint32_t>(-4)},
    {"srai", "li a1, -16\nsrai a0, a1, 2", static_cast<std::uint32_t>(-4)},
    {"sll_masks_shamt", "li a1, 1\nli a2, 33\nsll a0, a1, a2", 2},  // shamt & 31
    {"lui", "lui a0, 0x12345", 0x12345000},
    {"li_large", "li a0, 0x12345678", 0x12345678},
    {"li_neg_large", "li a0, -305419896", static_cast<std::uint32_t>(-305419896)},
    {"li_hi_bit", "li a0, 0x80000000", 0x80000000},
    {"li_edge_0x800", "li a0, 0x800", 0x800},   // exercises hi/lo sign fixup
    {"li_edge_0xFFF", "li a0, 0xFFF", 0xFFF},
    {"mv", "li a1, 42\nmv a0, a1", 42},
    {"not", "li a1, 0\nnot a0, a1", 0xFFFFFFFF},
    {"neg", "li a1, 5\nneg a0, a1", static_cast<std::uint32_t>(-5)},
    {"seqz_true", "li a1, 0\nseqz a0, a1", 1},
    {"seqz_false", "li a1, 3\nseqz a0, a1", 0},
    {"snez_true", "li a1, 3\nsnez a0, a1", 1},
    {"snez_false", "li a1, 0\nsnez a0, a1", 0},
    {"mul", "li a1, 7\nli a2, 6\nmul a0, a1, a2", 42},
    {"mul_wrap", "li a1, 0x10000\nli a2, 0x10000\nmul a0, a1, a2", 0},
    {"mulh", "li a1, 0x40000000\nli a2, 4\nmulh a0, a1, a2", 1},
    {"mulh_neg", "li a1, -1\nli a2, -1\nmulh a0, a1, a2", 0},
    {"mulhu", "li a1, -1\nli a2, -1\nmulhu a0, a1, a2", 0xFFFFFFFE},
    {"mulhsu", "li a1, -1\nli a2, -1\nmulhsu a0, a1, a2", 0xFFFFFFFF},
    {"div", "li a1, 42\nli a2, -7\ndiv a0, a1, a2", static_cast<std::uint32_t>(-6)},
    {"div_by_zero", "li a1, 42\nli a2, 0\ndiv a0, a1, a2", 0xFFFFFFFF},
    {"div_overflow", "li a1, 0x80000000\nli a2, -1\ndiv a0, a1, a2", 0x80000000},
    {"divu", "li a1, 42\nli a2, 5\ndivu a0, a1, a2", 8},
    {"divu_by_zero", "li a1, 42\nli a2, 0\ndivu a0, a1, a2", 0xFFFFFFFF},
    {"rem", "li a1, 43\nli a2, 7\nrem a0, a1, a2", 1},
    {"rem_neg", "li a1, -43\nli a2, 7\nrem a0, a1, a2", static_cast<std::uint32_t>(-1)},
    {"rem_by_zero", "li a1, 43\nli a2, 0\nrem a0, a1, a2", 43},
    {"rem_overflow", "li a1, 0x80000000\nli a2, -1\nrem a0, a1, a2", 0},
    {"remu", "li a1, 43\nli a2, 7\nremu a0, a1, a2", 1},
    {"remu_by_zero", "li a1, 43\nli a2, 0\nremu a0, a1, a2", 43},
    {"x0_always_zero", "li a1, 99\nadd x0, a1, a1\nmv a0, x0", 0},
};

INSTANTIATE_TEST_SUITE_P(Semantics, CpuAluTest, ::testing::ValuesIn(kAluCases),
                         [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------- cpu: control flow

TEST(CpuTest, BranchTakenAndNotTaken) {
  Cpu cpu = run_program(R"(
      li a0, 0
      li a1, 1
      li a2, 2
      beq a1, a2, skip    # not taken
      addi a0, a0, 1
      bne a1, a2, skip    # taken
      addi a0, a0, 100    # skipped
  skip:
      addi a0, a0, 10
      ebreak
  )");
  EXPECT_EQ(cpu.reg(kA0), 11u);
}

TEST(CpuTest, LoopSumsIntegers) {
  Cpu cpu = run_program(R"(
      li a0, 0
      li a1, 1
      li a2, 11
  loop:
      add a0, a0, a1
      addi a1, a1, 1
      bne a1, a2, loop
      ebreak
  )");
  EXPECT_EQ(cpu.reg(kA0), 55u);
}

TEST(CpuTest, JalLinksReturnAddress) {
  Cpu cpu = run_program(R"(
  _start:
      call func
      mv a0, a1
      ebreak
  func:
      li a1, 77
      ret
  )");
  EXPECT_EQ(cpu.reg(kA0), 77u);
}

TEST(CpuTest, JalrClearsLowBit) {
  Cpu cpu = run_program(R"(
      la t0, target+1     # odd address; jalr must clear bit 0
      jalr ra, t0, 0
  target:
      li a0, 5
      ebreak
  )");
  EXPECT_EQ(cpu.reg(kA0), 5u);
}

TEST(CpuTest, AuipcIsPcRelative) {
  Cpu cpu = run_program("auipc a0, 1\nebreak\n");
  EXPECT_EQ(cpu.reg(kA0), 0x1000u);  // pc (0) + 1<<12
}

TEST(CpuTest, ZeroComparisonBranches) {
  Cpu cpu = run_program(R"(
      li a0, 0
      li a1, -3
      bltz a1, neg
      j end
  neg:
      li a0, 1
      li a2, 3
      bgtz a2, pos
      j end
  pos:
      addi a0, a0, 2
  end:
      ebreak
  )");
  EXPECT_EQ(cpu.reg(kA0), 3u);
}

// ---------------------------------------------------------------- cpu: memory ops

TEST(CpuTest, LoadStoreWidths) {
  Cpu cpu = run_program(R"(
      la t0, buf
      li t1, 0x11223344
      sw t1, 0(t0)
      lb a0, 0(t0)        # 0x44 sign-ext positive
      lbu a1, 3(t0)       # 0x11
      lh a2, 0(t0)        # 0x3344
      lhu a3, 2(t0)       # 0x1122
      ebreak
  buf:
      .word 0
  )");
  EXPECT_EQ(cpu.reg(10), 0x44u);
  EXPECT_EQ(cpu.reg(11), 0x11u);
  EXPECT_EQ(cpu.reg(12), 0x3344u);
  EXPECT_EQ(cpu.reg(13), 0x1122u);
}

TEST(CpuTest, SignExtendingLoads) {
  Cpu cpu = run_program(R"(
      la t0, buf
      lb a0, 0(t0)
      lh a1, 0(t0)
      ebreak
  buf:
      .byte 0x80, 0xFF
  )");
  EXPECT_EQ(cpu.reg(10), 0xFFFFFF80u);
  EXPECT_EQ(cpu.reg(11), 0xFFFF80u | 0xFF000000u);
}

TEST(CpuTest, MemoryFaultOnWildStore) {
  Cpu cpu = run_program("li t0, 0x7FFFFFF0\nsw t0, 0(t0)\nebreak\n");
  EXPECT_EQ(cpu.last_halt(), Halt::MemoryFault);
}

TEST(CpuTest, MemoryFaultOnWildFetch) {
  Cpu cpu = run_program("li t0, 0x100000\njr t0\n");
  EXPECT_EQ(cpu.last_halt(), Halt::MemoryFault);
}

TEST(CpuTest, IllegalInstructionHalts) {
  Cpu cpu(1 << 16);
  cpu.mem().write32(0, 0);  // all-zero word is not a valid instruction
  EXPECT_EQ(cpu.run(10), Halt::IllegalInstruction);
}

// ---------------------------------------------------------------- cpu: debug

TEST(CpuTest, BreakpointStopsBeforeInstruction) {
  Cpu cpu(1 << 16);
  Program prog = assemble("li a0, 1\nli a0, 2\nli a0, 3\nebreak\n");
  prog.load_into(cpu.mem());
  cpu.add_breakpoint(8);  // the "li a0, 3"
  Halt halt = cpu.run(100);
  EXPECT_EQ(halt, Halt::Breakpoint);
  EXPECT_EQ(cpu.pc(), 8u);
  EXPECT_EQ(cpu.reg(kA0), 2u);  // not yet executed
}

TEST(CpuTest, ResumeFromBreakpointStepsOver) {
  Cpu cpu(1 << 16);
  Program prog = assemble("li a0, 1\nli a0, 2\nli a0, 3\nebreak\n");
  prog.load_into(cpu.mem());
  cpu.add_breakpoint(8);
  ASSERT_EQ(cpu.run(100), Halt::Breakpoint);
  Halt halt = cpu.run(100);  // resumes across the breakpointed instruction
  EXPECT_EQ(halt, Halt::Ebreak);
  EXPECT_EQ(cpu.reg(kA0), 3u);
}

TEST(CpuTest, RemoveBreakpoint) {
  Cpu cpu(1 << 16);
  Program prog = assemble("li a0, 1\nli a0, 2\nebreak\n");
  prog.load_into(cpu.mem());
  cpu.add_breakpoint(4);
  cpu.remove_breakpoint(4);
  EXPECT_EQ(cpu.run(100), Halt::Ebreak);
}

TEST(CpuTest, WatchpointFiresOnWrite) {
  Cpu cpu(1 << 16);
  Program prog = assemble(R"(
      la t0, var
      li t1, 9
      sw t1, 0(t0)
      ebreak
  var: .word 0
  )");
  prog.load_into(cpu.mem());
  cpu.add_watchpoint(prog.symbol("var"), 4);
  Halt halt = cpu.run(100);
  EXPECT_EQ(halt, Halt::Watchpoint);
  EXPECT_EQ(cpu.watch_hit_addr(), prog.symbol("var"));
  EXPECT_EQ(cpu.mem().read32(prog.symbol("var")), 9u);  // store already landed
}

TEST(CpuTest, WatchpointPartialOverlap) {
  Cpu cpu(1 << 16);
  Program prog = assemble(R"(
      la t0, var
      li t1, 9
      sb t1, 3(t0)       # writes the last byte of the watched word
      ebreak
  var: .word 0
  )");
  prog.load_into(cpu.mem());
  cpu.add_watchpoint(prog.symbol("var"), 4);
  EXPECT_EQ(cpu.run(100), Halt::Watchpoint);
}

TEST(CpuTest, WatchpointRemoved) {
  Cpu cpu(1 << 16);
  Program prog = assemble(R"(
      la t0, var
      li t1, 9
      sw t1, 0(t0)
      ebreak
  var: .word 0
  )");
  prog.load_into(cpu.mem());
  cpu.add_watchpoint(prog.symbol("var"), 4);
  cpu.remove_watchpoint(prog.symbol("var"));
  EXPECT_EQ(cpu.run(100), Halt::Ebreak);
}

TEST(CpuTest, QuantumExpires) {
  Cpu cpu(1 << 16);
  Program prog = assemble("loop: j loop\n");
  prog.load_into(cpu.mem());
  EXPECT_EQ(cpu.run(1000), Halt::Quantum);
  EXPECT_EQ(cpu.instret(), 1000u);
}

TEST(CpuTest, EcallWithoutHandlerHalts) {
  Cpu cpu = run_program("li a7, 1\necall\nebreak\n", 10);
  EXPECT_EQ(cpu.last_halt(), Halt::Ecall);
  EXPECT_EQ(cpu.pc(), 8u);  // past the ecall
}

TEST(CpuTest, EcallHandlerServicesSyscall) {
  Cpu cpu(1 << 16);
  Program prog = assemble("li a7, 42\necall\nmv a0, a1\nebreak\n");
  prog.load_into(cpu.mem());
  cpu.set_ecall_handler([](Cpu& c) {
    EXPECT_EQ(c.reg(17), 42u);  // a7
    c.set_reg(11, 1234);        // a1 := result
    return Cpu::EcallResult::Handled;
  });
  EXPECT_EQ(cpu.run(100), Halt::Ebreak);
  EXPECT_EQ(cpu.reg(kA0), 1234u);
}

TEST(CpuTest, EcallHandlerMayHalt) {
  Cpu cpu(1 << 16);
  Program prog = assemble("ecall\nebreak\n");
  prog.load_into(cpu.mem());
  cpu.set_ecall_handler([](Cpu&) { return Cpu::EcallResult::Halt; });
  EXPECT_EQ(cpu.run(100), Halt::Ecall);
}

TEST(CpuTest, CyclesExceedInstret) {
  Cpu cpu = run_program("li a1, 100\nli a2, 7\ndiv a0, a1, a2\nebreak\n");
  EXPECT_GT(cpu.cycles(), cpu.instret());
}

TEST(CpuTest, AddCyclesChargesOverhead) {
  Cpu cpu(1 << 16);
  std::uint64_t before = cpu.cycles();
  cpu.add_cycles(500);
  EXPECT_EQ(cpu.cycles(), before + 500);
}

TEST(CpuTest, ResetPreservesMemory) {
  Cpu cpu(1 << 16);
  cpu.mem().write32(100, 0xDEAD);
  cpu.set_reg(5, 7);
  cpu.reset(0x40);
  EXPECT_EQ(cpu.pc(), 0x40u);
  EXPECT_EQ(cpu.reg(5), 0u);
  EXPECT_EQ(cpu.mem().read32(100), 0xDEADu);
}

TEST(CpuTest, SetRegIgnoresX0) {
  Cpu cpu(1 << 16);
  cpu.set_reg(0, 99);
  EXPECT_EQ(cpu.reg(0), 0u);
}

// ---------------------------------------------------------------- assembler

TEST(AsmTest, EmptyProgram) {
  Program prog = assemble("");
  EXPECT_TRUE(prog.bytes.empty());
  EXPECT_EQ(prog.entry, 0u);
}

TEST(AsmTest, CommentsIgnored) {
  Program prog = assemble("# comment\n; another\n// third\nnop  # trailing\n");
  EXPECT_EQ(prog.bytes.size(), 4u);
}

TEST(AsmTest, LabelsAndForwardReferences) {
  Program prog = assemble(R"(
  _start:
      j end
      nop
  end:
      ebreak
  )");
  EXPECT_EQ(prog.symbol("_start"), 0u);
  EXPECT_EQ(prog.symbol("end"), 8u);
  EXPECT_EQ(prog.entry, 0u);
}

TEST(AsmTest, LabelOnOwnLine) {
  Program prog = assemble("alone:\n  nop\n");
  EXPECT_EQ(prog.symbol("alone"), 0u);
}

TEST(AsmTest, MultipleLabelsSameAddress) {
  Program prog = assemble("a: b:\n  nop\n");
  EXPECT_EQ(prog.symbol("a"), prog.symbol("b"));
}

TEST(AsmTest, TrailingLabelPointsToEnd) {
  Program prog = assemble("nop\nend:\n");
  EXPECT_EQ(prog.symbol("end"), 4u);
}

TEST(AsmTest, BaseOffsetsSymbols) {
  Program prog = assemble("x: nop\n", 0x1000);
  EXPECT_EQ(prog.base, 0x1000u);
  EXPECT_EQ(prog.symbol("x"), 0x1000u);
  EXPECT_EQ(prog.entry, 0x1000u);
}

TEST(AsmTest, EntryIsStartSymbol) {
  Program prog = assemble("nop\n_start: nop\n");
  EXPECT_EQ(prog.entry, 4u);
}

TEST(AsmTest, DataDirectives) {
  Program prog = assemble(R"(
  words: .word 1, 0x10, sym
  halfs: .half 0x1234, 0x5678
  bytes: .byte 1, 2, 3
  text:  .asciz "hi\n"
  sym:   .word 0
  )");
  EXPECT_EQ(prog.bytes[0], 1u);
  EXPECT_EQ(prog.bytes[4], 0x10u);
  std::uint32_t sym = prog.symbol("sym");
  EXPECT_EQ(prog.bytes[8], sym & 0xFF);
  EXPECT_EQ(prog.symbol("halfs"), 12u);
  EXPECT_EQ(prog.bytes[12], 0x34u);
  EXPECT_EQ(prog.bytes[13], 0x12u);
  EXPECT_EQ(prog.symbol("bytes"), 16u);
  EXPECT_EQ(prog.bytes[16], 1u);
  std::uint32_t text = prog.symbol("text");
  EXPECT_EQ(prog.bytes[text], 'h');
  EXPECT_EQ(prog.bytes[text + 1], 'i');
  EXPECT_EQ(prog.bytes[text + 2], '\n');
  EXPECT_EQ(prog.bytes[text + 3], 0u);
}

TEST(AsmTest, AlignPadsToBoundary) {
  Program prog = assemble(".byte 1\n.align 4\nx: .word 2\n");
  EXPECT_EQ(prog.symbol("x"), 4u);
}

TEST(AsmTest, AlignNoopWhenAligned) {
  Program prog = assemble(".word 1\n.align 4\nx: .word 2\n");
  EXPECT_EQ(prog.symbol("x"), 4u);
}

TEST(AsmTest, OrgAdvancesLocation) {
  Program prog = assemble("nop\n.org 0x20\nx: .word 5\n");
  EXPECT_EQ(prog.symbol("x"), 0x20u);
  EXPECT_EQ(prog.bytes.size(), 0x24u);
  EXPECT_EQ(prog.bytes[0x20], 5u);
}

TEST(AsmTest, SpaceReserves) {
  Program prog = assemble("buf: .space 10\nx: .word 1\n");
  EXPECT_EQ(prog.symbol("x"), 10u);
}

TEST(AsmTest, EquDefinesConstant) {
  Program prog = assemble(".equ MAGIC, 0x42\nli a0, MAGIC\nebreak\n");
  Cpu cpu(1 << 16);
  prog.load_into(cpu.mem());
  cpu.run(100);
  EXPECT_EQ(cpu.reg(kA0), 0x42u);
}

TEST(AsmTest, SymbolPlusOffsetExpression) {
  Program prog = assemble("buf: .word 1, 2\n.equ SECOND, buf+4\n");
  EXPECT_EQ(prog.symbol("SECOND"), 4u);
}

TEST(AsmTest, ErrorsCarryLineNumbers) {
  try {
    assemble("nop\nbogus a0, a1\n");
    FAIL() << "expected throw";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(AsmTest, RejectsDuplicateLabel) {
  EXPECT_THROW(assemble("x: nop\nx: nop\n"), RuntimeError);
}

TEST(AsmTest, AssembleAllReportsEveryError) {
  // Three independent defects on three lines: all of them must surface in
  // one pass, in line order, not just the first.
  AssembleResult result = assemble_all(
      "nop\n"
      "frobnicate a0\n"
      "addi a0, a0, 5000\n"
      "j nowhere\n");
  ASSERT_EQ(result.errors.size(), 3u);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.errors[0].line, 2);
  EXPECT_EQ(result.errors[1].line, 3);
  EXPECT_EQ(result.errors[2].line, 4);
  EXPECT_NE(result.errors[0].message.find("frobnicate"), std::string::npos);
  EXPECT_NE(result.errors[2].message.find("nowhere"), std::string::npos);
}

TEST(AsmTest, AssembleAllLabelRedefinedFirstDefinitionWins) {
  AssembleResult result = assemble_all(
      "x: .word 1\n"
      "y: .word 2\n"
      "x: .word 3\n");
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_TRUE(result.errors[0].label_redefined);
  EXPECT_EQ(result.errors[0].line, 3);
  EXPECT_NE(result.errors[0].message.find("first defined on line 1"), std::string::npos);
  EXPECT_EQ(result.program.symbol("x"), 0u);  // first definition wins
}

TEST(AsmTest, AssembleAllCleanSourceHasNoErrors) {
  AssembleResult result = assemble_all("start: nop\nebreak\n");
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.program.bytes.size(), 8u);
}

TEST(AsmTest, CodeTableCoversEveryInstructionWord) {
  // li with a large immediate expands to two words sharing one source line;
  // data words never enter the code table.
  Program prog = assemble(
      "start: li t0, 0x12345\n"
      "ebreak\n"
      "buf: .word 1, 2\n");
  ASSERT_EQ(prog.code.size(), 3u);
  EXPECT_EQ(prog.code[0].addr, 0u);
  EXPECT_EQ(prog.code[0].line, 1);
  EXPECT_EQ(prog.code[1].addr, 4u);
  EXPECT_EQ(prog.code[1].line, 1);
  EXPECT_EQ(prog.code[2].addr, 8u);
  EXPECT_EQ(prog.code[2].line, 2);
}

TEST(AsmTest, AddressTakenRecordsMaterializedSymbols) {
  Program prog = assemble(
      "start: la t0, buf\n"
      "j start\n"
      "buf: .word 0\n"
      "table: .word start\n");
  EXPECT_TRUE(prog.address_taken.count(prog.symbol("buf")) > 0);   // la
  EXPECT_TRUE(prog.address_taken.count(prog.symbol("start")) > 0); // .word
  // A plain jump target is not address-taken.
  EXPECT_EQ(prog.address_taken.size(), 2u);
}

TEST(AsmTest, RejectsUnknownInstruction) {
  EXPECT_THROW(assemble("frobnicate a0\n"), RuntimeError);
}

TEST(AsmTest, RejectsBadRegister) {
  EXPECT_THROW(assemble("addi q0, x0, 1\n"), RuntimeError);
}

TEST(AsmTest, RejectsUndefinedSymbol) {
  EXPECT_THROW(assemble("j nowhere\n"), RuntimeError);
}

TEST(AsmTest, RejectsWrongOperandCount) {
  EXPECT_THROW(assemble("add a0, a1\n"), RuntimeError);
}

TEST(AsmTest, RejectsImmediateOverflow) {
  EXPECT_THROW(assemble("addi a0, a0, 5000\n"), RuntimeError);
}

TEST(AsmTest, RejectsBackwardOrg) {
  EXPECT_THROW(assemble(".org 8\n.org 4\n"), RuntimeError);
}

TEST(AsmTest, RejectsBadAlign) {
  EXPECT_THROW(assemble(".align 3\n"), RuntimeError);
}

TEST(AsmTest, MemOperandVariants) {
  Program prog = assemble(R"(
      la t0, buf
      lw a0, (t0)
      lw a1, 4(t0)
      ebreak
  buf: .word 7, 8
  )");
  Cpu cpu(1 << 16);
  prog.load_into(cpu.mem());
  cpu.run(100);
  EXPECT_EQ(cpu.reg(10), 7u);
  EXPECT_EQ(cpu.reg(11), 8u);
}

TEST(AsmTest, DisassemblyRoundTripThroughImage) {
  Program prog = assemble("addi a0, zero, 42\n");
  std::uint32_t word = static_cast<std::uint32_t>(prog.bytes[0]) | (prog.bytes[1] << 8) |
                       (prog.bytes[2] << 16) | (static_cast<std::uint32_t>(prog.bytes[3]) << 24);
  EXPECT_EQ(disassemble(decode(word)), "addi x10, x0, 42");
}

// ---------------------------------------------------------------- integration:
// the guest checksum kernel the router case study uses.

TEST(CpuTest, GuestChecksumMatchesHostReference) {
  // Sum 4 little-endian words, like the router's checksum application.
  Cpu cpu = run_program(R"(
  _start:
      la t0, data
      li t1, 4          # word count
      li a0, 0
  loop:
      lw t2, 0(t0)
      add a0, a0, t2
      addi t0, t0, 4
      addi t1, t1, -1
      bnez t1, loop
      ebreak
  data:
      .word 0x11111111, 0x22222222, 0x33333333, 0x44444444
  )");
  EXPECT_EQ(cpu.last_halt(), Halt::Ebreak);
  EXPECT_EQ(cpu.reg(kA0), 0xAAAAAAAAu);
}

}  // namespace
}  // namespace nisc::iss

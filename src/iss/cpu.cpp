#include "iss/cpu.hpp"

#include "obs/metrics.hpp"

namespace nisc::iss {

const char* halt_name(Halt halt) noexcept {
  switch (halt) {
    case Halt::None: return "none";
    case Halt::Breakpoint: return "breakpoint";
    case Halt::Watchpoint: return "watchpoint";
    case Halt::Ebreak: return "ebreak";
    case Halt::Ecall: return "ecall";
    case Halt::Quantum: return "quantum";
    case Halt::IllegalInstruction: return "illegal-instruction";
    case Halt::MemoryFault: return "memory-fault";
  }
  return "?";
}

void Cpu::reset(std::uint32_t pc) noexcept {
  regs_.fill(0);
  pc_ = pc;
  instret_ = 0;
  cycles_ = 0;
  watch_pending_ = false;
  last_halt_ = Halt::None;
}

bool Cpu::check_watch(std::uint32_t addr, std::uint32_t len) noexcept {
  for (const auto& [w_addr, w_len] : watchpoints_) {
    if (addr < w_addr + w_len && w_addr < addr + len) {
      watch_hit_addr_ = w_addr;
      return true;
    }
  }
  return false;
}

Halt Cpu::step() {
  std::uint32_t word;
  try {
    word = mem_.read32(pc_);
  } catch (const util::RuntimeError&) {
    return Halt::MemoryFault;
  }
  const Instr instr = decode(word);
  if (instr.op == Op::Illegal) return Halt::IllegalInstruction;
  if (trace_hook_) trace_hook_(pc_, word);
  try {
    return execute(instr);
  } catch (const util::RuntimeError&) {
    return Halt::MemoryFault;
  }
}

Halt Cpu::execute(const Instr& in) {
  const std::uint32_t rs1 = regs_[in.rs1];
  const std::uint32_t rs2 = regs_[in.rs2];
  std::uint32_t next_pc = pc_ + 4;
  std::uint32_t result = 0;
  bool write_rd = true;
  std::uint64_t extra_cycles = 0;

  switch (in.op) {
    case Op::Lui: result = static_cast<std::uint32_t>(in.imm); break;
    case Op::Auipc: result = pc_ + static_cast<std::uint32_t>(in.imm); break;
    case Op::Jal:
      result = pc_ + 4;
      next_pc = pc_ + static_cast<std::uint32_t>(in.imm);
      extra_cycles = cycle_model_.branch_taken;
      break;
    case Op::Jalr:
      result = pc_ + 4;
      next_pc = (rs1 + static_cast<std::uint32_t>(in.imm)) & ~1u;
      extra_cycles = cycle_model_.branch_taken;
      break;
    case Op::Beq: case Op::Bne: case Op::Blt: case Op::Bge: case Op::Bltu: case Op::Bgeu: {
      bool taken = false;
      switch (in.op) {
        case Op::Beq: taken = rs1 == rs2; break;
        case Op::Bne: taken = rs1 != rs2; break;
        case Op::Blt:
          taken = static_cast<std::int32_t>(rs1) < static_cast<std::int32_t>(rs2);
          break;
        case Op::Bge:
          taken = static_cast<std::int32_t>(rs1) >= static_cast<std::int32_t>(rs2);
          break;
        case Op::Bltu: taken = rs1 < rs2; break;
        default: taken = rs1 >= rs2; break;
      }
      if (taken) {
        next_pc = pc_ + static_cast<std::uint32_t>(in.imm);
        extra_cycles = cycle_model_.branch_taken;
      }
      write_rd = false;
      break;
    }
    case Op::Lb:
      result = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(static_cast<std::int8_t>(mem_.read8(rs1 + in.imm))));
      extra_cycles = cycle_model_.load_store;
      break;
    case Op::Lh:
      result = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(static_cast<std::int16_t>(mem_.read16(rs1 + in.imm))));
      extra_cycles = cycle_model_.load_store;
      break;
    case Op::Lw:
      result = mem_.read32(rs1 + in.imm);
      extra_cycles = cycle_model_.load_store;
      break;
    case Op::Lbu:
      result = mem_.read8(rs1 + in.imm);
      extra_cycles = cycle_model_.load_store;
      break;
    case Op::Lhu:
      result = mem_.read16(rs1 + in.imm);
      extra_cycles = cycle_model_.load_store;
      break;
    case Op::Sb: {
      const std::uint32_t addr = rs1 + static_cast<std::uint32_t>(in.imm);
      mem_.write8(addr, static_cast<std::uint8_t>(rs2));
      if (check_watch(addr, 1)) watch_pending_ = true;
      write_rd = false;
      extra_cycles = cycle_model_.load_store;
      break;
    }
    case Op::Sh: {
      const std::uint32_t addr = rs1 + static_cast<std::uint32_t>(in.imm);
      mem_.write16(addr, static_cast<std::uint16_t>(rs2));
      if (check_watch(addr, 2)) watch_pending_ = true;
      write_rd = false;
      extra_cycles = cycle_model_.load_store;
      break;
    }
    case Op::Sw: {
      const std::uint32_t addr = rs1 + static_cast<std::uint32_t>(in.imm);
      mem_.write32(addr, rs2);
      if (check_watch(addr, 4)) watch_pending_ = true;
      write_rd = false;
      extra_cycles = cycle_model_.load_store;
      break;
    }
    case Op::Addi: result = rs1 + static_cast<std::uint32_t>(in.imm); break;
    case Op::Slti:
      result = static_cast<std::int32_t>(rs1) < in.imm ? 1 : 0;
      break;
    case Op::Sltiu: result = rs1 < static_cast<std::uint32_t>(in.imm) ? 1 : 0; break;
    case Op::Xori: result = rs1 ^ static_cast<std::uint32_t>(in.imm); break;
    case Op::Ori: result = rs1 | static_cast<std::uint32_t>(in.imm); break;
    case Op::Andi: result = rs1 & static_cast<std::uint32_t>(in.imm); break;
    case Op::Slli: result = rs1 << in.imm; break;
    case Op::Srli: result = rs1 >> in.imm; break;
    case Op::Srai:
      result = static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) >> in.imm);
      break;
    case Op::Add: result = rs1 + rs2; break;
    case Op::Sub: result = rs1 - rs2; break;
    case Op::Sll: result = rs1 << (rs2 & 31); break;
    case Op::Slt:
      result = static_cast<std::int32_t>(rs1) < static_cast<std::int32_t>(rs2) ? 1 : 0;
      break;
    case Op::Sltu: result = rs1 < rs2 ? 1 : 0; break;
    case Op::Xor: result = rs1 ^ rs2; break;
    case Op::Srl: result = rs1 >> (rs2 & 31); break;
    case Op::Sra:
      result = static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) >> (rs2 & 31));
      break;
    case Op::Or: result = rs1 | rs2; break;
    case Op::And: result = rs1 & rs2; break;
    case Op::Fence: write_rd = false; break;
    case Op::Mul:
      result = rs1 * rs2;
      extra_cycles = cycle_model_.mul;
      break;
    case Op::Mulh:
      result = static_cast<std::uint32_t>(
          (static_cast<std::int64_t>(static_cast<std::int32_t>(rs1)) *
           static_cast<std::int64_t>(static_cast<std::int32_t>(rs2))) >> 32);
      extra_cycles = cycle_model_.mul;
      break;
    case Op::Mulhsu:
      result = static_cast<std::uint32_t>(
          (static_cast<std::int64_t>(static_cast<std::int32_t>(rs1)) *
           static_cast<std::int64_t>(static_cast<std::uint64_t>(rs2))) >> 32);
      extra_cycles = cycle_model_.mul;
      break;
    case Op::Mulhu:
      result = static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(rs1) * static_cast<std::uint64_t>(rs2)) >> 32);
      extra_cycles = cycle_model_.mul;
      break;
    case Op::Div:
      if (rs2 == 0) {
        result = ~0u;
      } else if (rs1 == 0x80000000u && rs2 == ~0u) {
        result = rs1;  // overflow per spec
      } else {
        result = static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) /
                                            static_cast<std::int32_t>(rs2));
      }
      extra_cycles = cycle_model_.div;
      break;
    case Op::Divu:
      result = rs2 == 0 ? ~0u : rs1 / rs2;
      extra_cycles = cycle_model_.div;
      break;
    case Op::Rem:
      if (rs2 == 0) {
        result = rs1;
      } else if (rs1 == 0x80000000u && rs2 == ~0u) {
        result = 0;
      } else {
        result = static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) %
                                            static_cast<std::int32_t>(rs2));
      }
      extra_cycles = cycle_model_.div;
      break;
    case Op::Remu:
      result = rs2 == 0 ? rs1 : rs1 % rs2;
      extra_cycles = cycle_model_.div;
      break;
    case Op::Ecall: {
      pc_ += 4;
      ++instret_;
      cycles_ += cycle_model_.base;
      if (ecall_handler_) {
        if (ecall_handler_(*this) == EcallResult::Handled) return Halt::None;
      }
      return Halt::Ecall;
    }
    case Op::Ebreak:
      // pc stays at the ebreak, GDB-style.
      return Halt::Ebreak;
    case Op::Illegal:
      return Halt::IllegalInstruction;
  }

  if (write_rd && in.rd != 0) regs_[in.rd] = result;
  pc_ = next_pc;
  ++instret_;
  cycles_ += cycle_model_.base + extra_cycles;
  if (watch_pending_) {
    watch_pending_ = false;
    return Halt::Watchpoint;
  }
  return Halt::None;
}

Halt Cpu::run(std::uint64_t max_instructions) {
  const std::uint64_t instret_begin = instret_;
  std::uint64_t breakpoint_checks = 0;
  Halt halt = Halt::Quantum;
  for (std::uint64_t executed = 0; executed < max_instructions; ++executed) {
    Halt step_halt = step();
    if (step_halt != Halt::None) {
      halt = step_halt;
      break;
    }
    if (!breakpoints_.empty()) {
      ++breakpoint_checks;
      if (breakpoints_.count(pc_) > 0) {
        halt = Halt::Breakpoint;
        break;
      }
    }
  }
  // Batched publication: the per-instruction loop stays registry-free; each
  // run slice costs two relaxed adds, however many instructions it retired.
  static obs::Counter& c_instret = obs::counter("iss.instructions");
  static obs::Counter& c_bp_checks = obs::counter("iss.breakpoint_checks");
  c_instret.add(instret_ - instret_begin);
  c_bp_checks.add(breakpoint_checks);
  return last_halt_ = halt;
}

}  // namespace nisc::iss

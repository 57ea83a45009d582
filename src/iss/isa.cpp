#include "iss/isa.hpp"

#include <array>
#include <cstdio>

#include "util/error.hpp"

namespace nisc::iss {
namespace {

constexpr std::uint32_t kOpLui = 0b0110111;
constexpr std::uint32_t kOpAuipc = 0b0010111;
constexpr std::uint32_t kOpJal = 0b1101111;
constexpr std::uint32_t kOpJalr = 0b1100111;
constexpr std::uint32_t kOpBranch = 0b1100011;
constexpr std::uint32_t kOpLoad = 0b0000011;
constexpr std::uint32_t kOpStore = 0b0100011;
constexpr std::uint32_t kOpOpImm = 0b0010011;
constexpr std::uint32_t kOpOp = 0b0110011;
constexpr std::uint32_t kOpMiscMem = 0b0001111;
constexpr std::uint32_t kOpSystem = 0b1110011;

std::int32_t sign_extend(std::uint32_t value, unsigned bits) noexcept {
  std::uint32_t mask = 1u << (bits - 1);
  return static_cast<std::int32_t>((value ^ mask) - mask);
}

std::uint32_t imm_i(std::uint32_t w) noexcept { return w >> 20; }
std::uint32_t imm_s(std::uint32_t w) noexcept { return ((w >> 25) << 5) | ((w >> 7) & 0x1F); }
std::uint32_t imm_b(std::uint32_t w) noexcept {
  return (((w >> 31) & 1) << 12) | (((w >> 7) & 1) << 11) | (((w >> 25) & 0x3F) << 5) |
         (((w >> 8) & 0xF) << 1);
}
std::uint32_t imm_u(std::uint32_t w) noexcept { return w & 0xFFFFF000; }
std::uint32_t imm_j(std::uint32_t w) noexcept {
  return (((w >> 31) & 1) << 20) | (((w >> 12) & 0xFF) << 12) | (((w >> 20) & 1) << 11) |
         (((w >> 21) & 0x3FF) << 1);
}

}  // namespace

std::string_view op_name(Op op) noexcept {
  switch (op) {
    case Op::Lui: return "lui";
    case Op::Auipc: return "auipc";
    case Op::Jal: return "jal";
    case Op::Jalr: return "jalr";
    case Op::Beq: return "beq";
    case Op::Bne: return "bne";
    case Op::Blt: return "blt";
    case Op::Bge: return "bge";
    case Op::Bltu: return "bltu";
    case Op::Bgeu: return "bgeu";
    case Op::Lb: return "lb";
    case Op::Lh: return "lh";
    case Op::Lw: return "lw";
    case Op::Lbu: return "lbu";
    case Op::Lhu: return "lhu";
    case Op::Sb: return "sb";
    case Op::Sh: return "sh";
    case Op::Sw: return "sw";
    case Op::Addi: return "addi";
    case Op::Slti: return "slti";
    case Op::Sltiu: return "sltiu";
    case Op::Xori: return "xori";
    case Op::Ori: return "ori";
    case Op::Andi: return "andi";
    case Op::Slli: return "slli";
    case Op::Srli: return "srli";
    case Op::Srai: return "srai";
    case Op::Add: return "add";
    case Op::Sub: return "sub";
    case Op::Sll: return "sll";
    case Op::Slt: return "slt";
    case Op::Sltu: return "sltu";
    case Op::Xor: return "xor";
    case Op::Srl: return "srl";
    case Op::Sra: return "sra";
    case Op::Or: return "or";
    case Op::And: return "and";
    case Op::Fence: return "fence";
    case Op::Ecall: return "ecall";
    case Op::Ebreak: return "ebreak";
    case Op::Mul: return "mul";
    case Op::Mulh: return "mulh";
    case Op::Mulhsu: return "mulhsu";
    case Op::Mulhu: return "mulhu";
    case Op::Div: return "div";
    case Op::Divu: return "divu";
    case Op::Rem: return "rem";
    case Op::Remu: return "remu";
    case Op::Illegal: return "illegal";
  }
  return "?";
}

Instr decode(std::uint32_t w) noexcept {
  Instr instr;
  instr.rd = static_cast<std::uint8_t>((w >> 7) & 0x1F);
  instr.rs1 = static_cast<std::uint8_t>((w >> 15) & 0x1F);
  instr.rs2 = static_cast<std::uint8_t>((w >> 20) & 0x1F);
  const std::uint32_t opcode = w & 0x7F;
  const std::uint32_t funct3 = (w >> 12) & 0x7;
  const std::uint32_t funct7 = w >> 25;

  switch (opcode) {
    case kOpLui:
      instr.op = Op::Lui;
      instr.imm = static_cast<std::int32_t>(imm_u(w));
      return instr;
    case kOpAuipc:
      instr.op = Op::Auipc;
      instr.imm = static_cast<std::int32_t>(imm_u(w));
      return instr;
    case kOpJal:
      instr.op = Op::Jal;
      instr.imm = sign_extend(imm_j(w), 21);
      return instr;
    case kOpJalr:
      if (funct3 != 0) break;
      instr.op = Op::Jalr;
      instr.imm = sign_extend(imm_i(w), 12);
      return instr;
    case kOpBranch: {
      static constexpr std::array<Op, 8> kBranch = {Op::Beq,  Op::Bne,  Op::Illegal, Op::Illegal,
                                                    Op::Blt,  Op::Bge,  Op::Bltu,    Op::Bgeu};
      instr.op = kBranch[funct3];
      if (instr.op == Op::Illegal) break;
      instr.imm = sign_extend(imm_b(w), 13);
      return instr;
    }
    case kOpLoad: {
      static constexpr std::array<Op, 8> kLoad = {Op::Lb,  Op::Lh,  Op::Lw,      Op::Illegal,
                                                  Op::Lbu, Op::Lhu, Op::Illegal, Op::Illegal};
      instr.op = kLoad[funct3];
      if (instr.op == Op::Illegal) break;
      instr.imm = sign_extend(imm_i(w), 12);
      return instr;
    }
    case kOpStore: {
      static constexpr std::array<Op, 8> kStore = {Op::Sb,      Op::Sh,      Op::Sw,
                                                   Op::Illegal, Op::Illegal, Op::Illegal,
                                                   Op::Illegal, Op::Illegal};
      instr.op = kStore[funct3];
      if (instr.op == Op::Illegal) break;
      instr.imm = sign_extend(imm_s(w), 12);
      return instr;
    }
    case kOpOpImm: {
      instr.imm = sign_extend(imm_i(w), 12);
      switch (funct3) {
        case 0: instr.op = Op::Addi; return instr;
        case 1:
          if (funct7 != 0) break;
          instr.op = Op::Slli;
          instr.imm = static_cast<std::int32_t>(instr.rs2);  // shamt
          return instr;
        case 2: instr.op = Op::Slti; return instr;
        case 3: instr.op = Op::Sltiu; return instr;
        case 4: instr.op = Op::Xori; return instr;
        case 5:
          if (funct7 == 0) {
            instr.op = Op::Srli;
          } else if (funct7 == 0b0100000) {
            instr.op = Op::Srai;
          } else {
            break;
          }
          instr.imm = static_cast<std::int32_t>(instr.rs2);  // shamt
          return instr;
        case 6: instr.op = Op::Ori; return instr;
        case 7: instr.op = Op::Andi; return instr;
        default: break;
      }
      break;
    }
    case kOpOp: {
      if (funct7 == 0b0000001) {  // M extension
        static constexpr std::array<Op, 8> kMul = {Op::Mul,  Op::Mulh, Op::Mulhsu, Op::Mulhu,
                                                   Op::Div,  Op::Divu, Op::Rem,    Op::Remu};
        instr.op = kMul[funct3];
        return instr;
      }
      if (funct7 == 0) {
        static constexpr std::array<Op, 8> kOp0 = {Op::Add, Op::Sll, Op::Slt, Op::Sltu,
                                                   Op::Xor, Op::Srl, Op::Or,  Op::And};
        instr.op = kOp0[funct3];
        return instr;
      }
      if (funct7 == 0b0100000) {
        if (funct3 == 0) {
          instr.op = Op::Sub;
          return instr;
        }
        if (funct3 == 5) {
          instr.op = Op::Sra;
          return instr;
        }
      }
      break;
    }
    case kOpMiscMem:
      instr.op = Op::Fence;
      return instr;
    case kOpSystem:
      if (w == 0x00000073) {
        instr.op = Op::Ecall;
        return instr;
      }
      if (w == 0x00100073) {
        instr.op = Op::Ebreak;
        return instr;
      }
      break;
    default: break;
  }
  return Instr{};  // Illegal
}

namespace {

std::uint32_t enc_r(std::uint32_t funct7, std::uint8_t rs2, std::uint8_t rs1, std::uint32_t funct3,
                    std::uint8_t rd, std::uint32_t opcode) {
  return (funct7 << 25) | (std::uint32_t{rs2} << 20) | (std::uint32_t{rs1} << 15) |
         (funct3 << 12) | (std::uint32_t{rd} << 7) | opcode;
}

std::uint32_t enc_i(std::int32_t imm, std::uint8_t rs1, std::uint32_t funct3, std::uint8_t rd,
                    std::uint32_t opcode) {
  util::require(fits_imm12(imm), "encode: I-type immediate out of range");
  return (static_cast<std::uint32_t>(imm & 0xFFF) << 20) | (std::uint32_t{rs1} << 15) |
         (funct3 << 12) | (std::uint32_t{rd} << 7) | opcode;
}

std::uint32_t enc_s(std::int32_t imm, std::uint8_t rs2, std::uint8_t rs1, std::uint32_t funct3,
                    std::uint32_t opcode) {
  util::require(fits_imm12(imm), "encode: S-type immediate out of range");
  std::uint32_t uimm = static_cast<std::uint32_t>(imm & 0xFFF);
  return ((uimm >> 5) << 25) | (std::uint32_t{rs2} << 20) | (std::uint32_t{rs1} << 15) |
         (funct3 << 12) | ((uimm & 0x1F) << 7) | opcode;
}

std::uint32_t enc_b(std::int32_t imm, std::uint8_t rs2, std::uint8_t rs1, std::uint32_t funct3) {
  util::require(fits_branch(imm), "encode: branch offset out of range");
  std::uint32_t uimm = static_cast<std::uint32_t>(imm);
  return (((uimm >> 12) & 1) << 31) | (((uimm >> 5) & 0x3F) << 25) | (std::uint32_t{rs2} << 20) |
         (std::uint32_t{rs1} << 15) | (funct3 << 12) | (((uimm >> 1) & 0xF) << 8) |
         (((uimm >> 11) & 1) << 7) | kOpBranch;
}

std::uint32_t enc_u(std::int32_t imm, std::uint8_t rd, std::uint32_t opcode) {
  util::require((imm & 0xFFF) == 0, "encode: U-type immediate must be 4K aligned");
  return static_cast<std::uint32_t>(imm) | (std::uint32_t{rd} << 7) | opcode;
}

std::uint32_t enc_j(std::int32_t imm, std::uint8_t rd) {
  util::require(fits_jump(imm), "encode: jump offset out of range");
  std::uint32_t uimm = static_cast<std::uint32_t>(imm);
  return (((uimm >> 20) & 1) << 31) | (((uimm >> 1) & 0x3FF) << 21) | (((uimm >> 11) & 1) << 20) |
         (((uimm >> 12) & 0xFF) << 12) | (std::uint32_t{rd} << 7) | kOpJal;
}

std::uint32_t enc_shift(std::uint32_t funct7, std::int32_t shamt, std::uint8_t rs1,
                        std::uint32_t funct3, std::uint8_t rd) {
  util::require(shamt >= 0 && shamt < 32, "encode: shift amount out of range");
  return (funct7 << 25) | (static_cast<std::uint32_t>(shamt) << 20) | (std::uint32_t{rs1} << 15) |
         (funct3 << 12) | (std::uint32_t{rd} << 7) | kOpOpImm;
}

}  // namespace

std::uint32_t encode(const Instr& in) {
  switch (in.op) {
    case Op::Lui: return enc_u(in.imm, in.rd, kOpLui);
    case Op::Auipc: return enc_u(in.imm, in.rd, kOpAuipc);
    case Op::Jal: return enc_j(in.imm, in.rd);
    case Op::Jalr: return enc_i(in.imm, in.rs1, 0, in.rd, kOpJalr);
    case Op::Beq: return enc_b(in.imm, in.rs2, in.rs1, 0);
    case Op::Bne: return enc_b(in.imm, in.rs2, in.rs1, 1);
    case Op::Blt: return enc_b(in.imm, in.rs2, in.rs1, 4);
    case Op::Bge: return enc_b(in.imm, in.rs2, in.rs1, 5);
    case Op::Bltu: return enc_b(in.imm, in.rs2, in.rs1, 6);
    case Op::Bgeu: return enc_b(in.imm, in.rs2, in.rs1, 7);
    case Op::Lb: return enc_i(in.imm, in.rs1, 0, in.rd, kOpLoad);
    case Op::Lh: return enc_i(in.imm, in.rs1, 1, in.rd, kOpLoad);
    case Op::Lw: return enc_i(in.imm, in.rs1, 2, in.rd, kOpLoad);
    case Op::Lbu: return enc_i(in.imm, in.rs1, 4, in.rd, kOpLoad);
    case Op::Lhu: return enc_i(in.imm, in.rs1, 5, in.rd, kOpLoad);
    case Op::Sb: return enc_s(in.imm, in.rs2, in.rs1, 0, kOpStore);
    case Op::Sh: return enc_s(in.imm, in.rs2, in.rs1, 1, kOpStore);
    case Op::Sw: return enc_s(in.imm, in.rs2, in.rs1, 2, kOpStore);
    case Op::Addi: return enc_i(in.imm, in.rs1, 0, in.rd, kOpOpImm);
    case Op::Slti: return enc_i(in.imm, in.rs1, 2, in.rd, kOpOpImm);
    case Op::Sltiu: return enc_i(in.imm, in.rs1, 3, in.rd, kOpOpImm);
    case Op::Xori: return enc_i(in.imm, in.rs1, 4, in.rd, kOpOpImm);
    case Op::Ori: return enc_i(in.imm, in.rs1, 6, in.rd, kOpOpImm);
    case Op::Andi: return enc_i(in.imm, in.rs1, 7, in.rd, kOpOpImm);
    case Op::Slli: return enc_shift(0, in.imm, in.rs1, 1, in.rd);
    case Op::Srli: return enc_shift(0, in.imm, in.rs1, 5, in.rd);
    case Op::Srai: return enc_shift(0b0100000, in.imm, in.rs1, 5, in.rd);
    case Op::Add: return enc_r(0, in.rs2, in.rs1, 0, in.rd, kOpOp);
    case Op::Sub: return enc_r(0b0100000, in.rs2, in.rs1, 0, in.rd, kOpOp);
    case Op::Sll: return enc_r(0, in.rs2, in.rs1, 1, in.rd, kOpOp);
    case Op::Slt: return enc_r(0, in.rs2, in.rs1, 2, in.rd, kOpOp);
    case Op::Sltu: return enc_r(0, in.rs2, in.rs1, 3, in.rd, kOpOp);
    case Op::Xor: return enc_r(0, in.rs2, in.rs1, 4, in.rd, kOpOp);
    case Op::Srl: return enc_r(0, in.rs2, in.rs1, 5, in.rd, kOpOp);
    case Op::Sra: return enc_r(0b0100000, in.rs2, in.rs1, 5, in.rd, kOpOp);
    case Op::Or: return enc_r(0, in.rs2, in.rs1, 6, in.rd, kOpOp);
    case Op::And: return enc_r(0, in.rs2, in.rs1, 7, in.rd, kOpOp);
    case Op::Fence: return 0x0000000F;
    case Op::Ecall: return 0x00000073;
    case Op::Ebreak: return 0x00100073;
    case Op::Mul: return enc_r(1, in.rs2, in.rs1, 0, in.rd, kOpOp);
    case Op::Mulh: return enc_r(1, in.rs2, in.rs1, 1, in.rd, kOpOp);
    case Op::Mulhsu: return enc_r(1, in.rs2, in.rs1, 2, in.rd, kOpOp);
    case Op::Mulhu: return enc_r(1, in.rs2, in.rs1, 3, in.rd, kOpOp);
    case Op::Div: return enc_r(1, in.rs2, in.rs1, 4, in.rd, kOpOp);
    case Op::Divu: return enc_r(1, in.rs2, in.rs1, 5, in.rd, kOpOp);
    case Op::Rem: return enc_r(1, in.rs2, in.rs1, 6, in.rd, kOpOp);
    case Op::Remu: return enc_r(1, in.rs2, in.rs1, 7, in.rd, kOpOp);
    case Op::Illegal: break;
  }
  throw util::LogicError("encode: illegal instruction");
}

std::string disassemble(const Instr& in) {
  char buf[64];
  const char* name = op_name(in.op).data();
  switch (in.op) {
    case Op::Lui:
    case Op::Auipc:
      std::snprintf(buf, sizeof(buf), "%s x%u, 0x%x", name, in.rd,
                    static_cast<std::uint32_t>(in.imm) >> 12);
      break;
    case Op::Jal:
      std::snprintf(buf, sizeof(buf), "%s x%u, %d", name, in.rd, in.imm);
      break;
    case Op::Jalr:
    case Op::Lb: case Op::Lh: case Op::Lw: case Op::Lbu: case Op::Lhu:
      std::snprintf(buf, sizeof(buf), "%s x%u, %d(x%u)", name, in.rd, in.imm, in.rs1);
      break;
    case Op::Sb: case Op::Sh: case Op::Sw:
      std::snprintf(buf, sizeof(buf), "%s x%u, %d(x%u)", name, in.rs2, in.imm, in.rs1);
      break;
    case Op::Beq: case Op::Bne: case Op::Blt: case Op::Bge: case Op::Bltu: case Op::Bgeu:
      std::snprintf(buf, sizeof(buf), "%s x%u, x%u, %d", name, in.rs1, in.rs2, in.imm);
      break;
    case Op::Addi: case Op::Slti: case Op::Sltiu: case Op::Xori: case Op::Ori: case Op::Andi:
    case Op::Slli: case Op::Srli: case Op::Srai:
      std::snprintf(buf, sizeof(buf), "%s x%u, x%u, %d", name, in.rd, in.rs1, in.imm);
      break;
    case Op::Fence: case Op::Ecall: case Op::Ebreak: case Op::Illegal:
      std::snprintf(buf, sizeof(buf), "%s", name);
      break;
    default:  // R-type
      std::snprintf(buf, sizeof(buf), "%s x%u, x%u, x%u", name, in.rd, in.rs1, in.rs2);
      break;
  }
  return buf;
}

std::string_view reg_abi_name(std::uint8_t reg) noexcept {
  static constexpr std::array<std::string_view, 32> kNames = {
      "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0",
      "a1",   "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5",
      "s6",   "s7", "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6"};
  if (reg >= 32) return "?";
  return kNames[reg];
}

std::optional<std::uint8_t> parse_reg(std::string_view name) noexcept {
  if (name.size() >= 2 && (name[0] == 'x' || name[0] == 'X')) {
    int value = 0;
    bool numeric = true;
    for (std::size_t i = 1; i < name.size(); ++i) {
      if (name[i] < '0' || name[i] > '9') {
        numeric = false;
        break;
      }
      value = value * 10 + (name[i] - '0');
    }
    if (numeric && value < 32) return static_cast<std::uint8_t>(value);
  }
  for (std::uint8_t i = 0; i < 32; ++i) {
    if (reg_abi_name(i) == name) return i;
  }
  if (name == "fp") return 8;  // frame pointer alias of s0
  return std::nullopt;
}

}  // namespace nisc::iss

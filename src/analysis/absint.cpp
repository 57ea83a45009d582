#include "analysis/absint.hpp"

#include <algorithm>
#include <optional>

namespace nisc::analysis {
namespace {

using iss::Op;

AbsValue::Init join_init(AbsValue::Init a, AbsValue::Init b) noexcept {
  return a == b ? a : AbsValue::Init::Mixed;
}

/// Concrete evaluation of a register-register op, mirroring Cpu::execute so
/// exact abstract values stay exact (division and shift edge cases match the
/// RISC-V spec the ISS implements).
std::uint32_t eval_concrete(Op op, std::uint32_t a, std::uint32_t b) noexcept {
  switch (op) {
    case Op::Add: return a + b;
    case Op::Sub: return a - b;
    case Op::Sll: return a << (b & 31);
    case Op::Srl: return a >> (b & 31);
    case Op::Sra: return static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >> (b & 31));
    case Op::Xor: return a ^ b;
    case Op::Or: return a | b;
    case Op::And: return a & b;
    case Op::Mul: return a * b;
    case Op::Mulh:
      return static_cast<std::uint32_t>((static_cast<std::int64_t>(static_cast<std::int32_t>(a)) *
                                         static_cast<std::int64_t>(static_cast<std::int32_t>(b))) >>
                                        32);
    case Op::Mulhsu:
      return static_cast<std::uint32_t>((static_cast<std::int64_t>(static_cast<std::int32_t>(a)) *
                                         static_cast<std::int64_t>(
                                             static_cast<std::uint64_t>(b))) >>
                                        32);
    case Op::Mulhu:
      return static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b)) >> 32);
    case Op::Div:
      if (b == 0) return ~0u;
      if (a == 0x80000000u && b == ~0u) return a;
      return static_cast<std::uint32_t>(static_cast<std::int32_t>(a) /
                                        static_cast<std::int32_t>(b));
    case Op::Divu: return b == 0 ? ~0u : a / b;
    case Op::Rem:
      if (b == 0) return a;
      if (a == 0x80000000u && b == ~0u) return 0;
      return static_cast<std::uint32_t>(static_cast<std::int32_t>(a) %
                                        static_cast<std::int32_t>(b));
    case Op::Remu: return b == 0 ? a : a % b;
    default: return 0;
  }
}

/// Wraps an exact base-less interval back into [0, 2^32).
AbsValue normalized(AbsValue v) noexcept {
  if (v.base == AbsValue::Base::None && v.range.is_exact()) {
    v.range = Interval::exact(static_cast<std::uint32_t>(v.range.lo));
  }
  return v;
}

/// Key-intersection with value-join: slots only survive when both paths
/// agree a word was stored there.
bool join_frames(std::map<FrameKey, AbsValue>& into, const std::map<FrameKey, AbsValue>& from) {
  bool changed = false;
  for (auto it = into.begin(); it != into.end();) {
    auto fit = from.find(it->first);
    if (fit == from.end()) {
      it = into.erase(it);
      changed = true;
    } else {
      changed = it->second.join(fit->second) || changed;
      ++it;
    }
  }
  return changed;
}

}  // namespace

std::optional<FrameKey> frame_key_of(const AbsValue& addr) noexcept {
  if (!addr.range.is_exact()) return std::nullopt;
  FrameKey key;
  key.base = addr.base;
  key.entry_reg = addr.base == AbsValue::Base::Entry ? addr.entry_reg : std::uint8_t{0};
  key.offset = addr.base == AbsValue::Base::None
                   ? static_cast<std::int64_t>(static_cast<std::uint32_t>(addr.range.lo))
                   : addr.range.lo;
  return key;
}

bool Interval::join(const Interval& o) noexcept {
  std::int64_t nlo = std::min(lo, o.lo);
  std::int64_t nhi = std::max(hi, o.hi);
  bool changed = nlo != lo || nhi != hi;
  lo = nlo;
  hi = nhi;
  return changed;
}

bool Interval::widen(const Interval& o) noexcept {
  std::int64_t nlo = o.lo < lo ? kMin : lo;
  std::int64_t nhi = o.hi > hi ? kMax : hi;
  bool changed = nlo != lo || nhi != hi;
  lo = nlo;
  hi = nhi;
  return changed;
}

bool Interval::narrow(const Interval& o) noexcept {
  bool changed = false;
  if (lo == kMin && o.lo > lo) {
    lo = o.lo;
    changed = true;
  }
  if (hi == kMax && o.hi < hi) {
    hi = o.hi;
    changed = true;
  }
  return changed;
}

bool AbsValue::join(const AbsValue& o) noexcept {
  Init ninit = join_init(init, o.init);
  bool changed = ninit != init;
  init = ninit;
  if (!same_base(o)) {
    changed = changed || base != Base::None || !range.is_top();
    base = Base::None;
    range = Interval::top();
    return changed;
  }
  return range.join(o.range) || changed;
}

bool AbsValue::widen(const AbsValue& o) noexcept {
  Init ninit = join_init(init, o.init);
  bool changed = ninit != init;
  init = ninit;
  if (!same_base(o)) {
    changed = changed || base != Base::None || !range.is_top();
    base = Base::None;
    range = Interval::top();
    return changed;
  }
  return range.widen(o.range) || changed;
}

bool AbsValue::narrow(const AbsValue& o) noexcept {
  // A base symbol the widening collapsed to unbounded top is recovered
  // wholesale from the recomputed value (the recomputation is sound, so
  // adopting it cannot under-approximate more than one descending step).
  if (base == Base::None && range.is_top() && o.base != Base::None) {
    Init old_init = init;
    *this = o;
    init = old_init == Init::Mixed ? o.init : old_init;
    return true;
  }
  bool changed = false;
  if (init == Init::Mixed && o.init != init) {
    init = o.init;
    changed = true;
  }
  if (!same_base(o)) return changed;
  return range.narrow(o.range) || changed;
}

RegDomain::RegDomain(std::vector<std::uint32_t> tracked) : tracked_(std::move(tracked)) {
  if (tracked_.size() > 64) tracked_.resize(64);
}

RegDomain::State RegDomain::boundary() const {
  State state;
  for (AbsValue& v : state.regs) v = AbsValue::uninit();
  state.regs[0] = AbsValue::exact(0);
  state.regs[2] = AbsValue::sp_entry();  // the environment provides a stack
  state.written = 0;                     // ...but has written none of the variables
  return state;
}

bool RegDomain::join(State& into, const State& from) const {
  if (from.dead) return false;  // bottom contributes nothing
  if (into.dead) {
    into = from;
    return true;
  }
  bool changed = false;
  for (std::size_t r = 0; r < into.regs.size(); ++r) {
    changed = into.regs[r].join(from.regs[r]) || changed;
  }
  std::uint64_t nwritten = into.written & from.written;
  changed = changed || nwritten != into.written;
  into.written = nwritten;
  changed = join_frames(into.frame, from.frame) || changed;
  return changed;
}

bool RegDomain::widen(State& into, const State& from) const {
  if (from.dead) return false;
  if (into.dead) {
    into = from;
    return true;
  }
  bool changed = false;
  for (std::size_t r = 0; r < into.regs.size(); ++r) {
    changed = into.regs[r].widen(from.regs[r]) || changed;
  }
  std::uint64_t nwritten = into.written & from.written;
  changed = changed || nwritten != into.written;
  into.written = nwritten;
  changed = join_frames(into.frame, from.frame) || changed;
  return changed;
}

bool RegDomain::narrow(State& into, const State& from) const {
  if (into.dead) return false;  // already bottom: nothing to refine
  if (from.dead) {
    into = from;  // recomputation proved the point unreachable
    return true;
  }
  bool changed = false;
  for (std::size_t r = 0; r < into.regs.size(); ++r) {
    changed = into.regs[r].narrow(from.regs[r]) || changed;
  }
  // Must-components: the recomputed value is derived from sound (narrowed)
  // inputs, so it is at least as precise — adopt it.
  if (into.written != from.written) {
    into.written = from.written;
    changed = true;
  }
  if (into.frame != from.frame) {
    into.frame = from.frame;
    changed = true;
  }
  return changed;
}

int RegDomain::tracked_index(std::uint32_t addr) const noexcept {
  for (std::size_t i = 0; i < tracked_.size(); ++i) {
    if (tracked_[i] == addr) return static_cast<int>(i);
  }
  return -1;
}

std::vector<std::uint8_t> RegDomain::regs_read(const iss::Instr& instr) {
  switch (instr.op) {
    case Op::Add: case Op::Sub: case Op::Sll: case Op::Slt: case Op::Sltu:
    case Op::Xor: case Op::Srl: case Op::Sra: case Op::Or: case Op::And:
    case Op::Mul: case Op::Mulh: case Op::Mulhsu: case Op::Mulhu:
    case Op::Div: case Op::Divu: case Op::Rem: case Op::Remu:
    case Op::Sb: case Op::Sh: case Op::Sw:
    case Op::Beq: case Op::Bne: case Op::Blt: case Op::Bge:
    case Op::Bltu: case Op::Bgeu:
      return {instr.rs1, instr.rs2};
    case Op::Addi: case Op::Slti: case Op::Sltiu: case Op::Xori: case Op::Ori:
    case Op::Andi: case Op::Slli: case Op::Srli: case Op::Srai:
    case Op::Lb: case Op::Lh: case Op::Lw: case Op::Lbu: case Op::Lhu:
    case Op::Jalr:
      return {instr.rs1};
    case Op::Ecall:
      return {17};  // a7 selects the syscall; other args depend on its value
    default:
      return {};
  }
}

std::vector<std::uint8_t> RegDomain::regs_read_values(const iss::Instr& instr) {
  switch (instr.op) {
    case Op::Sb: case Op::Sh: case Op::Sw:
      return {instr.rs1};  // rs2 is the stored datum, not a value use
    default:
      return regs_read(instr);
  }
}

AbsValue RegDomain::effective_address(const State& state, const iss::Instr& instr) {
  AbsValue base = state.regs[instr.rs1];
  AbsValue addr{base.range.plus(Interval::exact(instr.imm)), base.base, AbsValue::Init::Init,
                base.entry_reg};
  return normalized(addr);
}

void RegDomain::transfer(const CfgInstr& ci, State& state) const {
  if (state.dead) return;  // bottom: nothing executes here
  const iss::Instr& in = ci.instr;
  auto set = [&](AbsValue v) {
    if (in.rd != 0) state.regs[in.rd] = normalized(v);
  };
  const AbsValue& a = state.regs[in.rs1];
  const AbsValue& b = state.regs[in.rs2];
  const bool both_exact = a.is_exact_addr() && b.is_exact_addr();

  switch (in.op) {
    case Op::Lui:
      set(AbsValue::exact(static_cast<std::uint32_t>(in.imm)));
      break;
    case Op::Auipc:
      set(AbsValue::exact(ci.addr + static_cast<std::uint32_t>(in.imm)));
      break;
    case Op::Addi:
      set({a.range.plus(Interval::exact(in.imm)), a.base, AbsValue::Init::Init, a.entry_reg});
      break;
    case Op::Add:
      if (a.base != AbsValue::Base::None && b.base != AbsValue::Base::None) {
        set(AbsValue::top_init());  // entry(i) + entry(j) is not representable
      } else if (a.base != AbsValue::Base::None) {
        set({a.range.plus(b.range), a.base, AbsValue::Init::Init, a.entry_reg});
      } else {
        set({a.range.plus(b.range), b.base, AbsValue::Init::Init, b.entry_reg});
      }
      break;
    case Op::Sub:
      if (a.base == AbsValue::Base::Entry && a.same_base(b)) {
        set({a.range.minus(b.range), AbsValue::Base::None, AbsValue::Init::Init});
      } else if (b.base != AbsValue::Base::None) {
        set(AbsValue::top_init());  // -entry(j) is not representable
      } else {
        set({a.range.minus(b.range), a.base, AbsValue::Init::Init, a.entry_reg});
      }
      break;
    case Op::Slti: case Op::Sltiu: case Op::Slt: case Op::Sltu:
      set({Interval::bounded(0, 1), AbsValue::Base::None, AbsValue::Init::Init});
      break;
    case Op::Xori: case Op::Ori: case Op::Andi: case Op::Slli: case Op::Srli: case Op::Srai: {
      if (a.is_exact_addr()) {
        Op rop;
        switch (in.op) {
          case Op::Xori: rop = Op::Xor; break;
          case Op::Ori: rop = Op::Or; break;
          case Op::Andi: rop = Op::And; break;
          case Op::Slli: rop = Op::Sll; break;
          case Op::Srli: rop = Op::Srl; break;
          default: rop = Op::Sra; break;
        }
        set(AbsValue::exact(eval_concrete(rop, static_cast<std::uint32_t>(a.range.lo),
                                          static_cast<std::uint32_t>(in.imm))));
      } else {
        set(AbsValue::top_init());
      }
      break;
    }
    case Op::Sll: case Op::Srl: case Op::Sra: case Op::Xor: case Op::Or: case Op::And:
    case Op::Mul: case Op::Mulh: case Op::Mulhsu: case Op::Mulhu:
    case Op::Div: case Op::Divu: case Op::Rem: case Op::Remu:
      if (both_exact) {
        set(AbsValue::exact(eval_concrete(in.op, static_cast<std::uint32_t>(a.range.lo),
                                          static_cast<std::uint32_t>(b.range.lo))));
      } else {
        set(AbsValue::top_init());
      }
      break;
    case Op::Lw: {
      AbsValue addr = effective_address(state, in);
      if (auto key = frame_key_of(addr)) {
        auto it = state.frame.find(*key);
        if (it != state.frame.end()) {
          set(it->second);  // exact reload of a spilled word, garbage and all
          break;
        }
      }
      set(AbsValue::top_init());
      break;
    }
    case Op::Lb: case Op::Lh: case Op::Lbu: case Op::Lhu:
      set(AbsValue::top_init());  // sub-word loads never hit a tracked slot
      break;
    case Op::Sb: case Op::Sh: case Op::Sw: {
      AbsValue addr = effective_address(state, in);
      if (addr.is_exact_addr()) {
        int idx = tracked_index(static_cast<std::uint32_t>(addr.range.lo));
        if (idx >= 0) state.written |= std::uint64_t(1) << idx;
      }
      if (auto key = frame_key_of(addr)) {
        if (in.op == Op::Sw) {
          state.frame[*key] = state.regs[in.rs2];
        } else {
          state.frame.erase(*key);  // sub-word store shreds the slot
        }
      }
      break;
    }
    case Op::Jal:
    case Op::Jalr:
      set(AbsValue::exact(ci.addr + 4));
      break;
    case Op::Ecall:
      state.regs[10] = AbsValue::top_init();  // a0 carries the syscall result
      break;
    default:  // branches, fence, ebreak, illegal: no register effects
      break;
  }
}

}  // namespace nisc::analysis

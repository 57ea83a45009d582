#include "iss/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "iss/isa.hpp"
#include "util/strings.hpp"

namespace nisc::iss {
namespace {

using util::parse_int;
using util::RuntimeError;
using util::split;
using util::to_lower;
using util::trim;

struct Statement {
  int line = 0;
  std::string mnemonic;               // lower-case instruction or ".directive"
  std::vector<std::string> operands;  // comma-separated, trimmed
  std::uint32_t addr = 0;
  std::uint32_t size = 0;
  bool errored = false;  // failed in layout; skipped by the emit pass
};

/// Internal error signal; the per-statement recovery loops catch it so one
/// pass can report every error (AsmError carries it out of the assembler).
struct AsmFail {
  int line;
  std::string message;
};

[[noreturn]] void fail(int line, const std::string& message) { throw AsmFail{line, message}; }

/// Strips "#", ";" and "//" comments (not inside string literals).
std::string strip_comment(std::string_view line) {
  std::string out;
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (c == '"' && (i == 0 || line[i - 1] != '\\')) in_string = !in_string;
    if (!in_string) {
      if (c == '#' || c == ';') break;
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
    }
    out.push_back(c);
  }
  return out;
}

/// Splits operands on commas that are outside string literals.
std::vector<std::string> split_operands(std::string_view text) {
  std::vector<std::string> out;
  std::string current;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '"' && (i == 0 || text[i - 1] != '\\')) in_string = !in_string;
    if (c == ',' && !in_string) {
      out.emplace_back(trim(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!trim(current).empty() || !out.empty()) out.emplace_back(trim(current));
  while (!out.empty() && out.back().empty()) out.pop_back();
  return out;
}

class Assembler {
 public:
  explicit Assembler(std::uint32_t base) : base_(base) {}

  AssembleResult run(std::string_view source) {
    parse(source);
    layout();
    emit();
    program_.base = base_;
    program_.entry = program_.has_symbol("_start") ? program_.symbol("_start") : base_;
    std::stable_sort(errors_.begin(), errors_.end(),
                     [](const AsmError& a, const AsmError& b) { return a.line < b.line; });
    return {std::move(program_), std::move(errors_)};
  }

 private:
  // ---------------------------------------------------------------- parsing

  void parse(std::string_view source) {
    int line_no = 0;
    std::size_t pos = 0;
    while (pos <= source.size()) {
      std::size_t eol = source.find('\n', pos);
      std::string_view raw =
          source.substr(pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos);
      pos = (eol == std::string_view::npos) ? source.size() + 1 : eol + 1;
      ++line_no;
      if (raw.empty() && pos > source.size()) break;

      std::string text = strip_comment(raw);
      std::string_view rest = trim(text);

      // Leading labels: "name:" possibly several on one line.
      while (true) {
        std::size_t colon = rest.find(':');
        if (colon == std::string_view::npos) break;
        std::string_view candidate = trim(rest.substr(0, colon));
        if (candidate.empty() || !is_identifier(candidate)) break;
        labels_.push_back({line_no, std::string(candidate), statements_.size()});
        rest = trim(rest.substr(colon + 1));
      }
      if (rest.empty()) continue;

      Statement stmt;
      stmt.line = line_no;
      std::size_t ws = rest.find_first_of(" \t");
      std::string_view head = ws == std::string_view::npos ? rest : rest.substr(0, ws);
      std::string_view tail = ws == std::string_view::npos ? "" : trim(rest.substr(ws));
      stmt.mnemonic = to_lower(head);
      stmt.operands = split_operands(tail);
      statements_.push_back(std::move(stmt));
    }
  }

  static bool is_identifier(std::string_view s) {
    if (s.empty()) return false;
    if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_' || s[0] == '.')) {
      return false;
    }
    for (char c : s) {
      if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.')) return false;
    }
    return true;
  }

  // ---------------------------------------------------------------- pass 1

  void layout() {
    std::uint32_t lc = base_;
    std::size_t label_index = 0;
    for (std::size_t i = 0; i < statements_.size(); ++i) {
      while (label_index < labels_.size() && labels_[label_index].statement == i) {
        define_symbol(labels_[label_index].line, labels_[label_index].name, lc);
        ++label_index;
      }
      Statement& stmt = statements_[i];
      stmt.addr = lc;
      try {
        stmt.size = statement_size(stmt, lc);
      } catch (const AsmFail& e) {
        errors_.push_back({e.line, e.message, false});
        stmt.errored = true;
        stmt.size = stmt.mnemonic[0] == '.' ? 0 : 4;  // keep later addresses plausible
      }
      lc += stmt.size;
    }
    while (label_index < labels_.size()) {
      define_symbol(labels_[label_index].line, labels_[label_index].name, lc);
      ++label_index;
    }
    image_size_ = lc - base_;
  }

  void define_symbol(int line, const std::string& name, std::uint32_t value) {
    auto [it, inserted] = first_definition_.try_emplace(name, line);
    if (!inserted) {
      errors_.push_back({line,
                         "label '" + name + "' redefined (first defined on line " +
                             std::to_string(it->second) + ")",
                         true});
      return;  // the first definition wins
    }
    program_.symbols[name] = value;
  }

  std::uint32_t statement_size(Statement& stmt, std::uint32_t lc) {
    const std::string& m = stmt.mnemonic;
    if (m[0] == '.') return directive_size(stmt, lc);
    if (m == "li") {
      if (stmt.operands.size() != 2) fail(stmt.line, "li needs rd, imm");
      auto value = parse_int(stmt.operands[1]);
      return (value && fits_imm12(*value)) ? 4 : 8;
    }
    if (m == "la") return 8;
    return 4;
  }

  std::uint32_t directive_size(Statement& stmt, std::uint32_t lc) {
    const std::string& m = stmt.mnemonic;
    const auto& ops = stmt.operands;
    if (m == ".org") {
      auto target = parse_int(op_at(stmt, 0));
      if (!target || *target < lc || *target > 0xFFFFFFFFLL) {
        fail(stmt.line, ".org target must be a constant >= current location");
      }
      return static_cast<std::uint32_t>(*target) - lc;
    }
    if (m == ".word") return static_cast<std::uint32_t>(ops.size()) * 4;
    if (m == ".half") return static_cast<std::uint32_t>(ops.size()) * 2;
    if (m == ".byte") return static_cast<std::uint32_t>(ops.size());
    if (m == ".ascii" || m == ".asciz") {
      std::string s = parse_string_literal(stmt.line, op_at(stmt, 0));
      return static_cast<std::uint32_t>(s.size()) + (m == ".asciz" ? 1 : 0);
    }
    if (m == ".space") {
      auto n = parse_int(op_at(stmt, 0));
      if (!n || *n < 0) fail(stmt.line, ".space needs a non-negative constant");
      return static_cast<std::uint32_t>(*n);
    }
    if (m == ".align") {
      auto n = parse_int(op_at(stmt, 0));
      if (!n || *n <= 0 || (*n & (*n - 1)) != 0) fail(stmt.line, ".align needs a power of two");
      std::uint32_t align = static_cast<std::uint32_t>(*n);
      return (align - (lc % align)) % align;
    }
    if (m == ".equ") {
      if (stmt.operands.size() != 2) fail(stmt.line, ".equ needs name, value");
      auto value = resolve_value(stmt.line, stmt.operands[1], /*allow_undefined=*/false);
      define_symbol(stmt.line, stmt.operands[0], static_cast<std::uint32_t>(value));
      return 0;
    }
    if (m == ".globl" || m == ".global" || m == ".text" || m == ".data" || m == ".section") {
      return 0;  // accepted for source compatibility, no effect
    }
    fail(stmt.line, "unknown directive: " + m);
  }

  const std::string& op_at(const Statement& stmt, std::size_t index) {
    if (index >= stmt.operands.size()) fail(stmt.line, "missing operand");
    return stmt.operands[index];
  }

  static std::string parse_string_literal(int line, std::string_view text) {
    text = trim(text);
    if (text.size() < 2 || text.front() != '"' || text.back() != '"') {
      fail(line, "expected string literal");
    }
    std::string out;
    for (std::size_t i = 1; i + 1 < text.size(); ++i) {
      char c = text[i];
      if (c == '\\' && i + 2 < text.size() + 1) {
        ++i;
        switch (text[i]) {
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case '0': out.push_back('\0'); break;
          case '\\': out.push_back('\\'); break;
          case '"': out.push_back('"'); break;
          default: fail(line, "unknown escape in string literal");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  // ---------------------------------------------------------------- pass 2

  void emit() {
    program_.bytes.assign(image_size_, 0);
    for (Statement& stmt : statements_) {
      if (stmt.errored) continue;  // already reported in layout
      try {
        if (stmt.mnemonic[0] == '.') {
          emit_directive(stmt);
        } else {
          emit_instruction(stmt);
          for (std::uint32_t off = 0; off < stmt.size; off += 4) {
            program_.code.push_back({stmt.addr + off, stmt.line});
          }
        }
      } catch (const AsmFail& e) {
        errors_.push_back({e.line, e.message, false});
        stmt.errored = true;
      }
    }
  }

  void put8(std::uint32_t addr, std::uint8_t value) { program_.bytes.at(addr - base_) = value; }
  void put16(std::uint32_t addr, std::uint16_t value) {
    put8(addr, static_cast<std::uint8_t>(value));
    put8(addr + 1, static_cast<std::uint8_t>(value >> 8));
  }
  void put32(std::uint32_t addr, std::uint32_t value) {
    put16(addr, static_cast<std::uint16_t>(value));
    put16(addr + 2, static_cast<std::uint16_t>(value >> 16));
  }

  void emit_directive(const Statement& stmt) {
    const std::string& m = stmt.mnemonic;
    std::uint32_t addr = stmt.addr;
    if (m == ".word") {
      for (const std::string& op : stmt.operands) {
        put32(addr, static_cast<std::uint32_t>(
                        resolve_value(stmt.line, op, /*allow_undefined=*/false,
                                      /*record_taken=*/true)));
        addr += 4;
      }
    } else if (m == ".half") {
      for (const std::string& op : stmt.operands) {
        put16(addr, static_cast<std::uint16_t>(
                        resolve_value(stmt.line, op, /*allow_undefined=*/false,
                                      /*record_taken=*/true)));
        addr += 2;
      }
    } else if (m == ".byte") {
      for (const std::string& op : stmt.operands) {
        put8(addr, static_cast<std::uint8_t>(resolve_value(stmt.line, op)));
        addr += 1;
      }
    } else if (m == ".ascii" || m == ".asciz") {
      std::string s = parse_string_literal(stmt.line, stmt.operands[0]);
      for (char c : s) put8(addr++, static_cast<std::uint8_t>(c));
      if (m == ".asciz") put8(addr, 0);
    }
    // .org/.space/.align leave zero padding; .equ/.globl/... emit nothing.
  }

  /// Resolves an integer, `symbol`, `symbol+k` or `symbol-k` expression.
  /// `record_taken` marks symbol-based results as address-taken (la/li/.word
  /// operands — the conservative indirect-jump target set).
  std::int64_t resolve_value(int line, std::string_view text, bool allow_undefined = false,
                             bool record_taken = false) {
    text = trim(text);
    if (auto v = parse_int(text)) return *v;
    // symbol with optional +/- constant offset
    std::size_t op_pos = text.find_first_of("+-", 1);
    std::string_view sym = op_pos == std::string_view::npos ? text : trim(text.substr(0, op_pos));
    std::int64_t offset = 0;
    if (op_pos != std::string_view::npos) {
      auto off = parse_int(trim(text.substr(op_pos)));
      if (!off) fail(line, "bad expression: " + std::string(text));
      offset = *off;
    }
    auto it = program_.symbols.find(std::string(sym));
    if (it == program_.symbols.end()) {
      if (allow_undefined) return 0;
      fail(line, "undefined symbol: " + std::string(sym));
    }
    std::int64_t value = static_cast<std::int64_t>(it->second) + offset;
    if (record_taken) program_.address_taken.insert(static_cast<std::uint32_t>(value));
    return value;
  }

  std::uint8_t reg_operand(const Statement& stmt, std::size_t index) {
    auto reg = parse_reg(op_at(stmt, index));
    if (!reg) fail(stmt.line, "bad register: " + op_at(stmt, index));
    return *reg;
  }

  std::int32_t imm_operand(const Statement& stmt, std::size_t index) {
    return static_cast<std::int32_t>(resolve_value(stmt.line, op_at(stmt, index)));
  }

  /// Parses "imm(reg)" or "(reg)" memory operands.
  std::pair<std::int32_t, std::uint8_t> mem_operand(const Statement& stmt, std::size_t index) {
    const std::string& text = op_at(stmt, index);
    std::size_t open = text.find('(');
    std::size_t close = text.rfind(')');
    if (open == std::string::npos || close == std::string::npos || close < open) {
      fail(stmt.line, "expected imm(reg): " + text);
    }
    std::string_view imm_text = trim(std::string_view(text).substr(0, open));
    std::int32_t imm = imm_text.empty()
                           ? 0
                           : static_cast<std::int32_t>(resolve_value(stmt.line, imm_text));
    auto reg = parse_reg(trim(std::string_view(text).substr(open + 1, close - open - 1)));
    if (!reg) fail(stmt.line, "bad base register in: " + text);
    return {imm, *reg};
  }

  std::int32_t branch_offset(const Statement& stmt, std::size_t index) {
    std::int64_t target = resolve_value(stmt.line, op_at(stmt, index));
    std::int64_t offset = target - static_cast<std::int64_t>(stmt.addr);
    if (!fits_branch(offset)) fail(stmt.line, "branch target out of range");
    return static_cast<std::int32_t>(offset);
  }

  std::int32_t jump_offset(const Statement& stmt, std::size_t index, std::uint32_t from) {
    std::int64_t target = resolve_value(stmt.line, op_at(stmt, index));
    std::int64_t offset = target - static_cast<std::int64_t>(from);
    if (!fits_jump(offset)) fail(stmt.line, "jump target out of range");
    return static_cast<std::int32_t>(offset);
  }

  void put_instr(std::uint32_t addr, const Instr& instr) {
    try {
      put32(addr, encode(instr));
    } catch (const util::LogicError& e) {
      fail(current_line_, e.what());
    }
  }

  int current_line_ = 0;

  void emit_li(const Statement& stmt, std::uint8_t rd, std::int64_t value) {
    if (stmt.size == 4) {
      put_instr(stmt.addr, {Op::Addi, rd, 0, 0, static_cast<std::int32_t>(value)});
      return;
    }
    const std::uint32_t uvalue = static_cast<std::uint32_t>(value);
    const std::uint32_t hi = (uvalue + 0x800) & 0xFFFFF000;
    const std::int32_t lo = static_cast<std::int32_t>(uvalue - hi);
    put_instr(stmt.addr, {Op::Lui, rd, 0, 0, static_cast<std::int32_t>(hi)});
    put_instr(stmt.addr + 4, {Op::Addi, rd, rd, 0, lo});
  }

  void emit_instruction(const Statement& stmt) {
    const std::string& m = stmt.mnemonic;
    const int line = stmt.line;
    current_line_ = line;
    auto need = [&](std::size_t n) {
      if (stmt.operands.size() != n) {
        fail(line, m + ": expected " + std::to_string(n) + " operands, got " +
                       std::to_string(stmt.operands.size()));
      }
    };

    // R-type
    static const std::map<std::string, Op> kRType = {
        {"add", Op::Add}, {"sub", Op::Sub}, {"sll", Op::Sll}, {"slt", Op::Slt},
        {"sltu", Op::Sltu}, {"xor", Op::Xor}, {"srl", Op::Srl}, {"sra", Op::Sra},
        {"or", Op::Or}, {"and", Op::And}, {"mul", Op::Mul}, {"mulh", Op::Mulh},
        {"mulhsu", Op::Mulhsu}, {"mulhu", Op::Mulhu}, {"div", Op::Div},
        {"divu", Op::Divu}, {"rem", Op::Rem}, {"remu", Op::Remu}};
    if (auto it = kRType.find(m); it != kRType.end()) {
      need(3);
      put_instr(stmt.addr, {it->second, reg_operand(stmt, 0), reg_operand(stmt, 1),
                            reg_operand(stmt, 2), 0});
      return;
    }

    // I-type arithmetic and shifts
    static const std::map<std::string, Op> kIType = {
        {"addi", Op::Addi}, {"slti", Op::Slti}, {"sltiu", Op::Sltiu}, {"xori", Op::Xori},
        {"ori", Op::Ori}, {"andi", Op::Andi}, {"slli", Op::Slli}, {"srli", Op::Srli},
        {"srai", Op::Srai}};
    if (auto it = kIType.find(m); it != kIType.end()) {
      need(3);
      put_instr(stmt.addr,
                {it->second, reg_operand(stmt, 0), reg_operand(stmt, 1), 0, imm_operand(stmt, 2)});
      return;
    }

    // Loads
    static const std::map<std::string, Op> kLoad = {
        {"lb", Op::Lb}, {"lh", Op::Lh}, {"lw", Op::Lw}, {"lbu", Op::Lbu}, {"lhu", Op::Lhu}};
    if (auto it = kLoad.find(m); it != kLoad.end()) {
      need(2);
      auto [imm, base] = mem_operand(stmt, 1);
      put_instr(stmt.addr, {it->second, reg_operand(stmt, 0), base, 0, imm});
      return;
    }

    // Stores
    static const std::map<std::string, Op> kStore = {
        {"sb", Op::Sb}, {"sh", Op::Sh}, {"sw", Op::Sw}};
    if (auto it = kStore.find(m); it != kStore.end()) {
      need(2);
      auto [imm, base] = mem_operand(stmt, 1);
      put_instr(stmt.addr, {it->second, 0, base, reg_operand(stmt, 0), imm});
      return;
    }

    // Branches
    static const std::map<std::string, Op> kBranch = {
        {"beq", Op::Beq}, {"bne", Op::Bne}, {"blt", Op::Blt},
        {"bge", Op::Bge}, {"bltu", Op::Bltu}, {"bgeu", Op::Bgeu}};
    if (auto it = kBranch.find(m); it != kBranch.end()) {
      need(3);
      put_instr(stmt.addr, {it->second, 0, reg_operand(stmt, 0), reg_operand(stmt, 1),
                            branch_offset(stmt, 2)});
      return;
    }
    // Swapped-operand branch pseudos
    static const std::map<std::string, Op> kBranchSwap = {
        {"bgt", Op::Blt}, {"ble", Op::Bge}, {"bgtu", Op::Bltu}, {"bleu", Op::Bgeu}};
    if (auto it = kBranchSwap.find(m); it != kBranchSwap.end()) {
      need(3);
      put_instr(stmt.addr, {it->second, 0, reg_operand(stmt, 1), reg_operand(stmt, 0),
                            branch_offset(stmt, 2)});
      return;
    }
    // Zero-comparison branch pseudos
    static const std::map<std::string, std::pair<Op, bool>> kBranchZero = {
        {"beqz", {Op::Beq, false}}, {"bnez", {Op::Bne, false}}, {"bltz", {Op::Blt, false}},
        {"bgez", {Op::Bge, false}}, {"bgtz", {Op::Blt, true}}, {"blez", {Op::Bge, true}}};
    if (auto it = kBranchZero.find(m); it != kBranchZero.end()) {
      need(2);
      auto [op, swapped] = it->second;
      std::uint8_t rs = reg_operand(stmt, 0);
      std::uint8_t rs1 = swapped ? 0 : rs;
      std::uint8_t rs2 = swapped ? rs : 0;
      put_instr(stmt.addr, {op, 0, rs1, rs2, branch_offset(stmt, 1)});
      return;
    }

    // Jumps and upper immediates
    if (m == "lui" || m == "auipc") {
      need(2);
      std::int64_t value = resolve_value(line, op_at(stmt, 1));
      if (value < 0 || value > 0xFFFFF) fail(line, m + ": 20-bit immediate out of range");
      put_instr(stmt.addr, {m == "lui" ? Op::Lui : Op::Auipc, reg_operand(stmt, 0), 0, 0,
                            static_cast<std::int32_t>(value << 12)});
      return;
    }
    if (m == "jal") {
      if (stmt.operands.size() == 1) {  // jal target  (rd = ra)
        put_instr(stmt.addr, {Op::Jal, 1, 0, 0, jump_offset(stmt, 0, stmt.addr)});
      } else {
        need(2);
        put_instr(stmt.addr,
                  {Op::Jal, reg_operand(stmt, 0), 0, 0, jump_offset(stmt, 1, stmt.addr)});
      }
      return;
    }
    if (m == "jalr") {
      if (stmt.operands.size() == 1) {  // jalr rs  (rd = ra, imm = 0)
        put_instr(stmt.addr, {Op::Jalr, 1, reg_operand(stmt, 0), 0, 0});
      } else if (stmt.operands.size() == 2 && stmt.operands[1].find('(') != std::string::npos) {
        auto [imm, base] = mem_operand(stmt, 1);
        put_instr(stmt.addr, {Op::Jalr, reg_operand(stmt, 0), base, 0, imm});
      } else {
        need(3);
        put_instr(stmt.addr,
                  {Op::Jalr, reg_operand(stmt, 0), reg_operand(stmt, 1), 0, imm_operand(stmt, 2)});
      }
      return;
    }
    if (m == "j") {
      need(1);
      put_instr(stmt.addr, {Op::Jal, 0, 0, 0, jump_offset(stmt, 0, stmt.addr)});
      return;
    }
    if (m == "call") {
      need(1);
      put_instr(stmt.addr, {Op::Jal, 1, 0, 0, jump_offset(stmt, 0, stmt.addr)});
      return;
    }
    if (m == "jr") {
      need(1);
      put_instr(stmt.addr, {Op::Jalr, 0, reg_operand(stmt, 0), 0, 0});
      return;
    }
    if (m == "ret") {
      need(0);
      put_instr(stmt.addr, {Op::Jalr, 0, 1, 0, 0});
      return;
    }

    // Simple pseudo-instructions
    if (m == "nop") {
      need(0);
      put_instr(stmt.addr, {Op::Addi, 0, 0, 0, 0});
      return;
    }
    if (m == "mv") {
      need(2);
      put_instr(stmt.addr, {Op::Addi, reg_operand(stmt, 0), reg_operand(stmt, 1), 0, 0});
      return;
    }
    if (m == "not") {
      need(2);
      put_instr(stmt.addr, {Op::Xori, reg_operand(stmt, 0), reg_operand(stmt, 1), 0, -1});
      return;
    }
    if (m == "neg") {
      need(2);
      put_instr(stmt.addr, {Op::Sub, reg_operand(stmt, 0), 0, reg_operand(stmt, 1), 0});
      return;
    }
    if (m == "seqz") {
      need(2);
      put_instr(stmt.addr, {Op::Sltiu, reg_operand(stmt, 0), reg_operand(stmt, 1), 0, 1});
      return;
    }
    if (m == "snez") {
      need(2);
      put_instr(stmt.addr, {Op::Sltu, reg_operand(stmt, 0), 0, reg_operand(stmt, 1), 0});
      return;
    }
    if (m == "li" || m == "la") {
      need(2);
      emit_li(stmt, reg_operand(stmt, 0),
              resolve_value(line, op_at(stmt, 1), /*allow_undefined=*/false,
                            /*record_taken=*/true));
      return;
    }
    if (m == "ecall") {
      need(0);
      put_instr(stmt.addr, {Op::Ecall, 0, 0, 0, 0});
      return;
    }
    if (m == "ebreak") {
      need(0);
      put_instr(stmt.addr, {Op::Ebreak, 0, 0, 0, 0});
      return;
    }
    if (m == "fence") {
      put_instr(stmt.addr, {Op::Fence, 0, 0, 0, 0});
      return;
    }

    fail(line, "unknown instruction: " + m);
  }

  struct Label {
    int line;
    std::string name;
    std::size_t statement;  // index of the statement the label precedes
  };

  std::uint32_t base_;
  std::uint32_t image_size_ = 0;
  std::vector<Statement> statements_;
  std::vector<Label> labels_;
  std::map<std::string, int> first_definition_;  // symbol -> defining line
  std::vector<AsmError> errors_;
  Program program_;
};

}  // namespace

Program assemble(std::string_view source, std::uint32_t base) {
  AssembleResult result = Assembler(base).run(source);
  if (!result.ok()) {
    const AsmError& e = result.errors.front();
    throw RuntimeError("line " + std::to_string(e.line) + ": " + e.message);
  }
  return std::move(result.program);
}

AssembleResult assemble_all(std::string_view source, std::uint32_t base) {
  return Assembler(base).run(source);
}

}  // namespace nisc::iss

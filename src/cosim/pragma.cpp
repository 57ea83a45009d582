#include "cosim/pragma.hpp"

#include <cctype>
#include <sstream>

#include "rsp/client.hpp"
#include "sysc/iss_port.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace nisc::cosim {
namespace {

using util::RuntimeError;
using util::starts_with;
using util::trim;

/// True when the line holds an instruction or data statement a breakpoint
/// can land on (not blank, not a pure comment, not a pure label, not a
/// directive).
bool is_code_line(std::string_view line) {
  std::string_view t = trim(line);
  if (t.empty()) return false;
  if (t[0] == '#' || t[0] == ';') return false;
  if (t.size() >= 2 && t[0] == '/' && t[1] == '/') return false;
  // Strip leading labels.
  while (true) {
    std::size_t colon = t.find(':');
    if (colon == std::string_view::npos) break;
    std::string_view head = trim(t.substr(0, colon));
    bool ident = !head.empty();
    for (char c : head) {
      if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.')) ident = false;
    }
    if (!ident) break;
    t = trim(t.substr(colon + 1));
  }
  if (t.empty()) return false;
  if (t[0] == '.') return false;  // directive
  if (t[0] == '#' || t[0] == ';') return false;
  return true;
}

/// Parses `iss_in("port", var)` after the `#pragma ` prefix.
PragmaBinding parse_pragma(std::string_view text, int line_no) {
  PragmaBinding binding;
  binding.pragma_line = line_no;
  text = trim(text);
  if (starts_with(text, "iss_in")) {
    binding.direction = BindDirection::IssToSc;
    text.remove_prefix(6);
  } else if (starts_with(text, "iss_out")) {
    binding.direction = BindDirection::ScToIss;
    text.remove_prefix(7);
  } else {
    throw RuntimeError("line " + std::to_string(line_no) +
                       ": unknown pragma (expected iss_in/iss_out): " + std::string(text));
  }
  text = trim(text);
  if (text.empty() || text.front() != '(' || text.back() != ')') {
    throw RuntimeError("line " + std::to_string(line_no) + ": malformed pragma arguments");
  }
  text = text.substr(1, text.size() - 2);
  auto parts = util::split(text, ',');
  if (parts.size() != 2) {
    throw RuntimeError("line " + std::to_string(line_no) +
                       ": pragma needs (\"port\", variable)");
  }
  std::string_view port = trim(parts[0]);
  if (port.size() < 2 || port.front() != '"' || port.back() != '"') {
    throw RuntimeError("line " + std::to_string(line_no) + ": port name must be quoted");
  }
  binding.port = std::string(port.substr(1, port.size() - 2));
  binding.variable = std::string(trim(parts[1]));
  if (binding.port.empty() || binding.variable.empty()) {
    throw RuntimeError("line " + std::to_string(line_no) + ": empty port or variable");
  }
  return binding;
}

}  // namespace

FilteredSource filter_pragmas(std::string_view source) {
  // Split into lines, keeping order.
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    std::size_t eol = source.find('\n', pos);
    if (eol == std::string_view::npos) {
      if (pos < source.size()) lines.emplace_back(source.substr(pos));
      break;
    }
    lines.emplace_back(source.substr(pos, eol - pos));
    pos = eol + 1;
  }

  FilteredSource out;
  int label_counter = 0;

  // Pass A: parse pragmas and compute which source line each synthetic
  // breakpoint label precedes.
  std::vector<std::vector<std::string>> labels_at(lines.size() + 1);
  std::vector<bool> is_pragma(lines.size(), false);
  auto next_code_line = [&](std::size_t from) -> std::size_t {
    std::size_t j = from;
    while (j < lines.size() && !is_code_line(lines[j])) ++j;
    return j;
  };

  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string_view line = trim(lines[i]);
    if (!starts_with(line, "#pragma")) continue;
    is_pragma[i] = true;
    PragmaBinding binding = parse_pragma(line.substr(7), static_cast<int>(i) + 1);
    binding.label = "__bp_" + std::to_string(label_counter++);

    std::size_t stmt = next_code_line(i + 1);
    if (stmt >= lines.size()) {
      throw RuntimeError("line " + std::to_string(binding.pragma_line) +
                         ": pragma has no following statement");
    }
    std::size_t bp_line = stmt;
    if (binding.direction == BindDirection::IssToSc) {
      // Breakpoint on the line immediately following the annotated statement.
      bp_line = next_code_line(stmt + 1);
      if (bp_line >= lines.size()) {
        throw RuntimeError("line " + std::to_string(binding.pragma_line) +
                           ": iss_in pragma needs a statement after the annotated one");
      }
    }
    binding.statement_line = static_cast<int>(stmt) + 1;
    binding.breakpoint_line = static_cast<int>(bp_line) + 1;
    labels_at[bp_line].push_back(binding.label);
    out.bindings.push_back(std::move(binding));
  }

  // Pass B: emit, dropping pragma lines and injecting labels.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (const std::string& label : labels_at[i]) {
      out.source += label;
      out.source += ":\n";
    }
    if (is_pragma[i]) continue;
    out.source += lines[i];
    out.source += '\n';
  }
  return out;
}

std::vector<BreakpointBinding> resolve_bindings(const std::vector<PragmaBinding>& bindings,
                                                const iss::Program& program) {
  std::vector<BreakpointBinding> resolved;
  resolved.reserve(bindings.size());
  for (const PragmaBinding& b : bindings) {
    BreakpointBinding r;
    r.direction = b.direction;
    r.port = b.port;
    r.variable = b.variable;
    r.breakpoint_addr = program.symbol(b.label);
    r.variable_addr = program.symbol(b.variable);
    resolved.push_back(std::move(r));
  }
  return resolved;
}

void bind_ports(std::vector<BreakpointBinding>& bindings, const sysc::sc_simcontext& ctx,
                const char* scheme) {
  for (BreakpointBinding& b : bindings) {
    b.iss_port = ctx.find_iss_port(b.port);
    const bool input = b.direction == BindDirection::IssToSc;
    if (b.iss_port == nullptr || b.iss_port->is_input() != input) {
      throw util::LogicError(std::string(scheme) + ": binding " + b.variable + " needs an " +
                             (input ? "iss_in" : "iss_out") + " port named " + b.port);
    }
  }
}

const BreakpointBinding* binding_at(const std::vector<BreakpointBinding>& bindings,
                                    std::uint32_t pc) noexcept {
  for (const BreakpointBinding& b : bindings) {
    if (b.breakpoint_addr == pc) return &b;
  }
  return nullptr;
}

bool ready(const BreakpointBinding& binding) noexcept {
  return binding.direction == BindDirection::IssToSc ? binding.iss_port->accepts_delivery()
                                                     : binding.iss_port->has_fresh_value();
}

void transfer(const BreakpointBinding& binding, rsp::GdbClient& client) {
  if (binding.direction == BindDirection::IssToSc) {
    binding.iss_port->deliver_bytes(client.read_memory(binding.variable_addr, binding.width));
  } else {
    client.write_memory(binding.variable_addr, binding.iss_port->peek_bytes());
    binding.iss_port->consume_fresh();
  }
}

}  // namespace nisc::cosim

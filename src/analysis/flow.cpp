#include "analysis/flow.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>
#include <tuple>

#include "analysis/absint.hpp"
#include "analysis/callgraph.hpp"
#include "analysis/cfg.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/summary.hpp"

namespace nisc::analysis {
namespace {

using iss::Op;

bool is_load(Op op) {
  return op == Op::Lb || op == Op::Lh || op == Op::Lw || op == Op::Lbu || op == Op::Lhu;
}
bool is_store(Op op) { return op == Op::Sb || op == Op::Sh || op == Op::Sw; }

std::uint32_t access_size(Op op) {
  switch (op) {
    case Op::Lb: case Op::Lbu: case Op::Sb: return 1;
    case Op::Lh: case Op::Lhu: case Op::Sh: return 2;
    default: return 4;
  }
}

bool is_ret(const iss::Instr& in) {
  return in.op == Op::Jalr && in.rd == 0 && in.rs1 == 1 && in.imm == 0;
}

bool is_call(const iss::Instr& in) {
  return (in.op == Op::Jal || in.op == Op::Jalr) && in.rd != 0;
}

const char* reg_name(std::uint8_t r) {
  static const char* names[32] = {"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
                                  "s0",   "s1", "a0", "a1", "a2", "a3", "a4", "a5",
                                  "a6",   "a7", "s2", "s3", "s4", "s5", "s6", "s7",
                                  "s8",   "s9", "s10", "s11", "t3", "t4", "t5", "t6"};
  return names[r & 31];
}

constexpr std::uint8_t kCalleeSaved[] = {8, 9, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27};

/// "f", or "f/g" for a resolved multi-target (jalr) site.
std::string callee_names(const CallGraph& cg, const CallSite& site) {
  std::string out;
  for (std::size_t i = 0; i < site.callees.size(); ++i) {
    if (i) out += '/';
    out += cg.functions()[site.callees[i]].name;
  }
  return out;
}

/// Both passes can derive the same defect; findings are buffered and keyed
/// by (rule, pc, operand) so the duplicate becomes a "via call from" note on
/// one diagnostic instead of a second entry. Flush order is insertion
/// order: all intraprocedural findings first, then interprocedural-only
/// ones.
class FindingBuffer {
 public:
  using Key = std::tuple<std::string, std::uint32_t, std::uint32_t>;

  void add(Severity severity, std::string rule, std::uint32_t pc, std::uint32_t aux,
           std::string message, int line) {
    Key key{rule, pc, aux};
    if (index_.count(key) > 0) return;
    index_.emplace(std::move(key), findings_.size());
    findings_.push_back(Finding{severity, std::move(rule), std::move(message), line, false});
  }

  /// Interprocedural entry point: merge into an existing finding as a note,
  /// or record a new finding carrying its call-site provenance.
  void add_interproc(Severity severity, std::string rule, std::uint32_t pc, std::uint32_t aux,
                     std::string message, int line, int via_line) {
    Key key{rule, pc, aux};
    auto it = index_.find(key);
    if (it != index_.end()) {
      Finding& f = findings_[it->second];
      if (via_line > 0 && f.message.find("via call from") == std::string::npos) {
        f.message += " (also reachable via call from line ";
        f.message += std::to_string(via_line);
        f.message += ")";
      }
      return;
    }
    if (via_line > 0) {
      message += " (via call from line ";
      message += std::to_string(via_line);
      message += ")";
    }
    index_.emplace(std::move(key), findings_.size());
    findings_.push_back(Finding{severity, std::move(rule), std::move(message), line, false});
  }

  bool has(std::string_view rule, std::uint32_t pc, std::uint32_t aux) const {
    return index_.count(Key{std::string(rule), pc, aux}) > 0;
  }

  void remove(std::string_view rule, std::uint32_t pc, std::uint32_t aux) {
    auto it = index_.find(Key{std::string(rule), pc, aux});
    if (it != index_.end()) findings_[it->second].removed = true;
  }

  void flush(const FlowReport& report) {
    for (Finding& f : findings_) {
      if (!f.removed) report(f.severity, std::move(f.rule), std::move(f.message), f.line);
    }
  }

 private:
  struct Finding {
    Severity severity;
    std::string rule;
    std::string message;
    int line;
    bool removed;
  };
  std::vector<Finding> findings_;
  std::map<Key, std::size_t> index_;
};

/// State at `addr` inside its block: the block in-state transferred through
/// every preceding instruction. Returns false when the block is unreachable.
template <class Domain>
bool state_before(const Cfg& cfg, const DataflowResult<Domain>& flow, const Domain& domain,
                  std::uint32_t addr, RegState& out) {
  std::size_t b = cfg.block_at(addr);
  if (b == Cfg::npos || !flow.in[b]) return false;
  out = *flow.in[b];
  for (const CfgInstr& ci : cfg.blocks()[b].instrs) {
    if (ci.addr == addr) return true;
    domain.transfer(ci, out);
  }
  return false;
}

// Messages in this pass are built with += : chained operator+ trips a
// spurious GCC 12 -Wrestrict at -O2.
std::string uninit_read_message(const CfgInstr& ci, std::uint8_t r) {
  std::string message = "'";
  message += iss::disassemble(ci.instr);
  message += "' reads register ";
  message += reg_name(r);
  message += " which is never written on any path from the entry";
  return message;
}

std::string oob_message(const CfgInstr& ci, const Interval& range, std::uint64_t mem_size) {
  std::string message = "'";
  message += iss::disassemble(ci.instr);
  message += "' accesses address ";
  if (range.is_exact()) {
    message += std::to_string(range.lo);
  } else {
    message += "[";
    message += std::to_string(range.lo);
    message += ", ";
    message += std::to_string(range.hi);
    message += "]";
  }
  message += " which is outside the ";
  message += std::to_string(mem_size);
  message += "-byte memory map on every path";
  return message;
}

/// NL301: every pragma breakpoint must be reachable from the entry.
void check_reachability(const Cfg& cfg, const iss::Program& program,
                        const std::vector<cosim::PragmaBinding>& bindings,
                        const std::vector<bool>& reachable, FindingBuffer& buffer) {
  for (const cosim::PragmaBinding& b : bindings) {
    if (!program.has_symbol(b.label)) continue;  // lint.asm already fired
    std::uint32_t label_addr = program.symbols.at(b.label);
    std::size_t block = cfg.block_at(label_addr);
    if (block == Cfg::npos) continue;  // label points into data, not code
    if (!reachable[block]) {
      buffer.add(Severity::Warning, "NL301", label_addr, 0,
                 "breakpoint for port '" + b.port + "' on line " +
                     std::to_string(b.breakpoint_line) +
                     " is unreachable from the program entry; the ISS can never stop there",
                 b.breakpoint_line);
    }
  }
}

/// NL302 + NL303: replay each reachable block from its fixpoint in-state,
/// flagging definite uninitialized reads and definite out-of-map accesses.
/// Shared by the whole-program pass and the per-function context pass —
/// identical keys make the two dedupe into one diagnostic.
template <class Domain>
void check_block_values(const Cfg& cfg, const std::vector<std::size_t>& blocks,
                        const DataflowResult<Domain>& flow, const Domain& domain,
                        const FlowOptions& options, int via_line, FindingBuffer& buffer) {
  for (std::size_t b : blocks) {
    if (!flow.in[b] || flow.in[b]->dead) continue;
    RegState state = *flow.in[b];
    for (const CfgInstr& ci : cfg.blocks()[b].instrs) {
      if (state.dead) break;
      for (std::uint8_t r : RegDomain::regs_read_values(ci.instr)) {
        if (r == 0) continue;
        if (state.regs[r].init == AbsValue::Init::Uninit) {
          buffer.add_interproc(Severity::Warning, "NL302", ci.addr, r, uninit_read_message(ci, r),
                               ci.line, via_line);
        }
      }
      if (is_load(ci.instr.op) || is_store(ci.instr.op)) {
        AbsValue addr = RegDomain::effective_address(state, ci.instr);
        // Only base-less bounded intervals can prove an access out of map;
        // sp-relative and unbounded addresses stay silent.
        if (addr.base == AbsValue::Base::None && !addr.range.is_top()) {
          std::int64_t limit =
              static_cast<std::int64_t>(options.mem_size) - access_size(ci.instr.op);
          if (addr.range.lo > limit || addr.range.hi < 0) {
            buffer.add_interproc(Severity::Error, "NL303", ci.addr, 0,
                                 oob_message(ci, addr.range, options.mem_size), ci.line, via_line);
          }
        }
      }
      domain.transfer(ci, state);
    }
  }
}

/// NL304: per-function stack balance. Each function (the entry plus every
/// call target) is analyzed over intraprocedural edges with callees
/// summarized as balanced; at every reachable `ret` the stack pointer must
/// be provably back at its entry value.
void check_stack_balance(const Cfg& cfg, const iss::Program& program, FindingBuffer& buffer) {
  std::vector<std::uint32_t> roots = cfg.call_targets();
  roots.push_back(program.entry);
  std::set<std::size_t> seen_roots;
  RegDomain domain;
  for (std::uint32_t root : roots) {
    std::size_t entry = cfg.block_at(root);
    if (entry == Cfg::npos || !seen_roots.insert(entry).second) continue;
    DataflowResult<RegDomain> flow = run_forward(cfg, domain, kIntraprocEdges, entry);
    for (std::size_t b = 0; b < cfg.blocks().size(); ++b) {
      if (!flow.in[b]) continue;
      const CfgInstr& last = cfg.blocks()[b].instrs.back();
      if (!is_ret(last.instr)) continue;
      RegState state;
      if (!state_before(cfg, flow, domain, last.addr, state)) continue;
      const AbsValue& sp = state.regs[2];
      // Only a provable imbalance fires: sp must still be sp0-relative with
      // an exact non-zero offset. A repointed or unbounded sp stays silent.
      if (sp.is_sp_rel() && sp.range.is_exact() && sp.range.lo != 0) {
        buffer.add(Severity::Warning, "NL304", last.addr, 0,
                   "function entered at address " + std::to_string(root) + " returns with sp " +
                       std::to_string(sp.range.lo) + " bytes away from its entry value",
                   last.line);
      }
    }
  }
}

/// NL305: binding liveness. A bound variable must live inside the memory
/// map, and an iss_in-bound variable must be written on every path from the
/// entry to its breakpoint.
void check_binding_liveness(const Cfg& cfg, const DataflowResult<RegDomain>& flow,
                            const RegDomain& domain, const iss::Program& program,
                            const std::vector<cosim::PragmaBinding>& bindings,
                            const FlowOptions& options, FindingBuffer& buffer) {
  for (const cosim::PragmaBinding& b : bindings) {
    if (!program.has_symbol(b.variable)) continue;  // lint.variable-undefined already fired
    std::uint32_t var_addr = program.symbols.at(b.variable);
    if (static_cast<std::uint64_t>(var_addr) + 4 > options.mem_size) {
      buffer.add(Severity::Error, "NL305", var_addr, 0,
                 "variable '" + b.variable + "' bound to port '" + b.port + "' lives at address " +
                     std::to_string(var_addr) + ", outside the " +
                     std::to_string(options.mem_size) +
                     "-byte memory map; the binding can never carry data",
                 b.pragma_line);
      continue;
    }
    if (b.direction != cosim::BindDirection::IssToSc) continue;
    if (!program.has_symbol(b.label)) continue;
    int tracked = domain.tracked_index(var_addr);
    if (tracked < 0) continue;  // more bindings than tracked slots: stay silent
    RegState state;
    if (!state_before(cfg, flow, domain, program.symbols.at(b.label), state)) continue;
    if ((state.written & (std::uint64_t(1) << tracked)) == 0) {
      buffer.add(Severity::Warning, "NL305", var_addr, 1,
                 "variable '" + b.variable + "' bound to iss_in port '" + b.port +
                     "' may reach its breakpoint on line " + std::to_string(b.breakpoint_line) +
                     " without being written; the port would sample a stale value",
                 b.pragma_line);
    }
  }
}

// ---------------------------------------------------------------------------
// Interprocedural pass (NL311-NL315 + summary-driven re-checks).
// ---------------------------------------------------------------------------

/// NL313: a function whose summary shows a definite sp displacement at
/// return, where the imbalance flows through a callee (NL304 deliberately
/// trusts callees; this is its cross-call complement).
void check_cross_call_stack(const CallGraph& cg, const SummaryTable& table,
                            FindingBuffer& buffer) {
  for (std::size_t f = 0; f < cg.functions().size(); ++f) {
    const Function& fn = cg.functions()[f];
    const FunctionSummary& s = table.of(f);
    if (s.havoc || !s.reached_ret || !s.sp_delta || *s.sp_delta == 0) continue;
    for (std::size_t site_idx : fn.call_sites) {
      const FunctionSummary callee = table.at_site(cg, site_idx);
      if (callee.havoc || !callee.sp_delta || *callee.sp_delta == 0) continue;
      const CallSite& site = cg.sites()[site_idx];
      const std::string callee_name = callee_names(cg, site);
      for (const auto& [ret_addr, ret_line] : s.rets) {
        buffer.add_interproc(
            Severity::Warning, "NL313", ret_addr, 0,
            "function '" + fn.name + "' returns with sp " + std::to_string(*s.sp_delta) +
                " bytes away from its entry value; the imbalance flows through the call to '" +
                callee_name + "' on line " + std::to_string(site.line) + " (callee shifts sp by " +
                std::to_string(*callee.sp_delta) + ")",
            ret_line, 0);
      }
      break;  // one guilty callee is evidence enough
    }
  }
}

/// True when `exit` provably differs from the entry value of `r` for at
/// least one caller — i.e. the callee cannot be preserving the register.
bool definitely_clobbered(const AbsValue& exit, std::uint8_t r) {
  if (exit.base == AbsValue::Base::None && exit.range.is_exact()) return true;
  if (exit.base == AbsValue::Base::Entry && exit.entry_reg != r) return true;
  if (exit.is_entry_rel(r) && exit.range.is_exact() && exit.range.lo != 0) return true;
  return false;
}

std::string describe_exit_value(const AbsValue& exit, std::uint8_t r) {
  if (exit.base == AbsValue::Base::None && exit.range.is_exact()) {
    return "constant " + std::to_string(exit.range.lo);
  }
  if (exit.base == AbsValue::Base::Entry && exit.entry_reg != r) {
    return std::string("the entry value of ") + reg_name(exit.entry_reg);
  }
  return "its entry value plus " + std::to_string(exit.range.lo);
}

bool writes_reg(const iss::Instr& in, std::uint8_t r) {
  if (r == 0) return false;
  switch (in.op) {
    case Op::Sb: case Op::Sh: case Op::Sw:
    case Op::Beq: case Op::Bne: case Op::Blt: case Op::Bge: case Op::Bltu: case Op::Bgeu:
    case Op::Fence: case Op::Ebreak: case Op::Illegal:
      return false;
    case Op::Ecall:
      return r == 10;  // a0 carries the syscall result
    default:
      return in.rd == r;
  }
}

/// Forward scan from the instruction at `start_addr`: is register `r` read
/// before being definitely rewritten? Follows intraprocedural edges except
/// conservative indirect ones (evidence through a guessed edge is not
/// definite); calls are stepped through via their summaries. Returns the
/// first reading instruction, nullptr when r is dead or unprovable.
const CfgInstr* find_live_read(const Cfg& cfg, std::uint32_t start_addr, std::uint8_t r,
                               const std::map<std::uint32_t, FunctionSummary>& sites) {
  std::size_t b0 = cfg.block_at(start_addr);
  if (b0 == Cfg::npos) return nullptr;
  std::size_t start_index = 0;
  while (start_index < cfg.blocks()[b0].instrs.size() &&
         cfg.blocks()[b0].instrs[start_index].addr != start_addr) {
    ++start_index;
  }
  std::set<std::pair<std::size_t, std::size_t>> seen;
  std::vector<std::pair<std::size_t, std::size_t>> work{{b0, start_index}};
  seen.insert(work.front());
  while (!work.empty()) {
    auto [b, idx] = work.back();
    work.pop_back();
    const BasicBlock& block = cfg.blocks()[b];
    bool stopped = false;
    for (std::size_t i = idx; i < block.instrs.size(); ++i) {
      const CfgInstr& ci = block.instrs[i];
      for (std::uint8_t q : RegDomain::regs_read(ci.instr)) {
        if (q == r) return &ci;  // live: the caller value is consumed here
      }
      if (writes_reg(ci.instr, r)) {
        stopped = true;  // definitely rewritten: dead past here
        break;
      }
      if (is_call(ci.instr)) {
        auto it = sites.find(ci.addr);
        const FunctionSummary* s = it == sites.end() ? nullptr : &it->second;
        if (s == nullptr || s->havoc || !s->reached_ret) {
          stopped = true;  // unknown or no-return callee: no definite claim
          break;
        }
        if (s->read_of(r) != nullptr) return &ci;  // callee consumes the value
        if (!s->exit_regs[r].is_entry_identity(r)) {
          stopped = true;  // clobbered or unprovable across the call
          break;
        }
      }
    }
    if (stopped) continue;
    for (const CfgEdge& e : block.succs) {
      if ((edge_bit(e.kind) & kIntraprocEdges) == 0) continue;
      if (e.kind == EdgeKind::Indirect) continue;  // guessed edge: not definite
      auto next = std::make_pair(e.block, std::size_t{0});
      if (seen.insert(next).second) work.push_back(next);
    }
  }
  return nullptr;
}

/// NL314: a resolved callee provably fails to preserve a callee-saved
/// register that is live (and initialized) in the caller across the call.
/// Multi-target sites participate: the joined summary only proves a clobber
/// when every candidate target clobbers compatibly.
void check_abi_preservation(const Cfg& cfg, const CallGraph& cg, const SummaryTable& table,
                            const RegDomain& domain, const DataflowResult<RegDomain>& flow1,
                            FindingBuffer& buffer) {
  for (std::size_t site_idx = 0; site_idx < cg.sites().size(); ++site_idx) {
    const CallSite& site = cg.sites()[site_idx];
    if (!site.resolved || site.callees.empty()) continue;
    const FunctionSummary s = table.at_site(cg, site_idx);
    if (s.havoc || !s.reached_ret) continue;
    RegState before;
    if (!state_before(cfg, flow1, domain, site.addr, before)) continue;
    std::map<std::uint32_t, FunctionSummary> caller_sites = table.site_summaries(cg, site.caller);
    const std::string callee_name = callee_names(cg, site);
    for (std::uint8_t r : kCalleeSaved) {
      if (!definitely_clobbered(s.exit_regs[r], r)) continue;
      if (before.regs[r].init != AbsValue::Init::Init) continue;  // no caller value at stake
      const CfgInstr* read = find_live_read(cfg, site.addr + 4, r, caller_sites);
      if (read == nullptr) continue;
      buffer.add_interproc(
          Severity::Warning, "NL314", site.addr, r,
          "call to '" + callee_name + "' does not preserve callee-saved register " + reg_name(r) +
              " (it returns holding " + describe_exit_value(s.exit_regs[r], r) +
              "); the caller still reads its value on line " + std::to_string(read->line),
          site.line, 0);
    }
  }
}

/// NL315: an iss_in binding whose NL305 "may be stale" warning is explained
/// by all of its writes living in code unreachable from the entry. Replaces
/// the NL305 warning with the sharper dead-callee evidence.
void check_dead_binding_writes(const Cfg& cfg, const iss::Program& program,
                               const std::vector<cosim::PragmaBinding>& bindings,
                               const DataflowResult<RegDomain>& flow1, const RegDomain& domain,
                               const std::vector<bool>& reachable, FindingBuffer& buffer) {
  for (const cosim::PragmaBinding& b : bindings) {
    if (b.direction != cosim::BindDirection::IssToSc) continue;
    if (!program.has_symbol(b.variable)) continue;
    std::uint32_t var_addr = program.symbols.at(b.variable);
    if (!buffer.has("NL305", var_addr, 1)) continue;  // rides on the NL305 evidence
    // Any reachable store that can hit the variable keeps NL305 as-is.
    bool reachable_store = false;
    for (std::size_t blk = 0; blk < cfg.blocks().size() && !reachable_store; ++blk) {
      if (!flow1.in[blk]) continue;
      RegState state = *flow1.in[blk];
      for (const CfgInstr& ci : cfg.blocks()[blk].instrs) {
        if (is_store(ci.instr.op)) {
          AbsValue addr = RegDomain::effective_address(state, ci.instr);
          if (!addr.is_exact_addr() || static_cast<std::uint32_t>(addr.range.lo) == var_addr) {
            reachable_store = true;  // hits, or cannot be excluded
            break;
          }
        }
        domain.transfer(ci, state);
      }
    }
    if (reachable_store) continue;
    // Hunt the writer in unreachable functions: symbolic flow per dead label.
    for (const auto& [name, sym_addr] : program.symbols) {
      std::size_t dead_block = cfg.block_at(sym_addr);
      if (dead_block == Cfg::npos || reachable[dead_block]) continue;
      CallAwareDomain dead_domain(RegDomain(), symbolic_boundary(), {});
      DataflowResult<CallAwareDomain> dead_flow =
          run_forward(cfg, dead_domain, kIntraprocEdges, dead_block);
      const CfgInstr* writer = nullptr;
      for (std::size_t blk = 0; blk < cfg.blocks().size() && writer == nullptr; ++blk) {
        if (!dead_flow.in[blk]) continue;
        RegState state = *dead_flow.in[blk];
        for (const CfgInstr& ci : cfg.blocks()[blk].instrs) {
          if (is_store(ci.instr.op)) {
            AbsValue addr = RegDomain::effective_address(state, ci.instr);
            if (addr.is_exact_addr() && static_cast<std::uint32_t>(addr.range.lo) == var_addr) {
              writer = &ci;
              break;
            }
          }
          dead_domain.transfer(ci, state);
        }
      }
      if (writer != nullptr) {
        buffer.remove("NL305", var_addr, 1);
        buffer.add(Severity::Warning, "NL315", var_addr, 0,
                   "variable '" + b.variable + "' bound to iss_in port '" + b.port +
                       "' is only written in '" + name + "' (line " +
                       std::to_string(writer->line) +
                       "), which is unreachable from the program entry; the port would sample a "
                       "stale value",
                   b.pragma_line);
        break;
      }
    }
  }
}

/// The context handed to every function of a recursive SCC: unknown but
/// initialized, so no definite claim survives inside unresolved recursion.
RegState conservative_context() {
  RegState state;
  for (AbsValue& v : state.regs) v = AbsValue::top_init();
  state.regs[0] = AbsValue::exact(0);
  state.written = 0;
  return state;
}

/// Top-down context propagation over clones: each materialized (function,
/// k-limited call string) clone is re-analyzed on its own call-site state —
/// unjoined for distinct contexts, joined only where call strings collide
/// (always, when context_k == 0). The per-clone flow (a) re-runs the
/// NL302/NL303 value checks — findings dedupe with the whole-program pass
/// across clones thanks to the shared (rule, pc, operand) keys — and (b)
/// checks every call site's arguments against the callee summary resolved
/// under this clone's context: NL311 uninit argument, NL312 out-of-map
/// footprint, NL316 frame-over-binding and NL317 context-divergent clobber.
void run_context_pass(const Cfg& cfg, const CallGraph& cg, const SummaryTable& table,
                      const RegDomain& domain, const DataflowResult<RegDomain>& flow1,
                      const iss::Program& program,
                      const std::vector<cosim::PragmaBinding>& bindings,
                      const FlowOptions& options, FindingBuffer& buffer) {
  using CloneKey = std::pair<std::size_t, Context>;
  std::map<CloneKey, RegState> entry_state;
  std::map<CloneKey, int> via;
  const std::size_t k = table.context_k();
  if (cg.entry_function() != CallGraph::npos) {
    entry_state[{cg.entry_function(), Context{}}] = domain.boundary();
  }
  for (std::size_t si = cg.sccs().size(); si-- > 0;) {  // SCC list is bottom-up; walk top-down
    const std::vector<std::size_t>& scc = cg.sccs()[si];
    if (cg.scc_is_recursive(si)) {
      // Recursion keeps the conservative whole-SCC context: the clone table
      // holds root clones only for its members, and no definite entry claim
      // survives an unbounded chain of self-calls anyway.
      bool any = std::any_of(scc.begin(), scc.end(), [&](std::size_t f) {
        return entry_state.count({f, Context{}}) > 0;
      });
      if (!any) continue;
      for (std::size_t f : scc) entry_state[{f, Context{}}] = conservative_context();
    }
    for (std::size_t f : scc) {
      const Function& fn = cg.functions()[f];
      for (const Context& ctx : table.contexts_of(f)) {
        auto st = entry_state.find({f, ctx});
        if (st == entry_state.end()) continue;
        auto via_it = via.find({f, ctx});
        const int via_line = via_it == via.end() ? 0 : via_it->second;
        std::map<std::uint32_t, FunctionSummary> caller_sites = table.site_summaries(cg, f, ctx);
        CallAwareDomain fn_domain(RegDomain(domain.tracked()), st->second, caller_sites);
        DataflowResult<CallAwareDomain> flow =
            run_forward(cfg, fn_domain, kIntraprocEdges, fn.entry_block, 8, kNarrowSweeps);
        check_block_values(cfg, fn.blocks, flow, fn_domain, options, via_line, buffer);
        for (std::size_t site_idx : fn.call_sites) {
          const CallSite& site = cg.sites()[site_idx];
          RegState at_call;
          if (!state_before(cfg, flow, fn_domain, site.addr, at_call) || at_call.dead) continue;
          const CfgInstr* call_instr = cfg.instr_at(site.addr);
          fn_domain.inner().transfer(*call_instr, at_call);  // link register written
          const FunctionSummary s = table.at_site(cg, site_idx, ctx);
          const std::string callee_name =
              site.resolved ? callee_names(cg, site) : std::string();
          if (!s.havoc && site.resolved && !site.callees.empty()) {
            // NL311: the intersection semantics of the multi-target join
            // keep an entry read only when every candidate consumes it, so
            // the definite claim holds whichever target the call picks.
            for (const EntryRead& er : s.entry_reads) {
              if (er.reg == 0 || er.reg == 2) continue;
              if (at_call.regs[er.reg].init != AbsValue::Init::Uninit) continue;
              buffer.add_interproc(Severity::Warning, "NL311", site.addr, er.reg,
                                   "call to '" + callee_name + "' passes register " +
                                       reg_name(er.reg) +
                                       " which is never written on any path to the call; '" +
                                       callee_name + "' reads it on line " +
                                       std::to_string(er.line),
                                   site.line, via_line);
            }
          }
          if (!s.havoc && site.callees.size() == 1) {
            // NL312 stays single-target: a footprint entry of a joined
            // summary belongs to just one candidate, so "outside the map"
            // would only hold if the call picked that one.
            for (const MemAccess& m : s.mem) {
              const AbsValue& v = at_call.regs[m.entry_reg];
              if (v.base != AbsValue::Base::None || v.range.is_top()) continue;
              if (v.init != AbsValue::Init::Init) continue;
              Interval addr = v.range.plus(m.offset);
              if (addr.is_top()) continue;
              std::int64_t limit = static_cast<std::int64_t>(options.mem_size) - m.size;
              if (addr.lo > limit || addr.hi < 0) {
                std::string message = "call to '" + callee_name + "' passes ";
                message += reg_name(m.entry_reg);
                message += " = ";
                if (v.range.is_exact()) {
                  message += std::to_string(v.range.lo);
                } else {
                  message += "[";
                  message += std::to_string(v.range.lo);
                  message += ", ";
                  message += std::to_string(v.range.hi);
                  message += "]";
                }
                message += "; the ";
                message += m.is_store ? "store" : "load";
                message += " through it on line ";
                message += std::to_string(m.line);
                message += " falls outside the ";
                message += std::to_string(options.mem_size);
                message += "-byte memory map on every path";
                buffer.add_interproc(Severity::Error, "NL312", site.addr, m.addr,
                                     std::move(message), site.line, via_line);
              }
            }
          }
          // NL316: the clone's concrete stack pointer places the callee's
          // frame stores over a bound variable's word. sp must be an exact
          // absolute address — only an unjoined call string keeps it exact,
          // so context_k = 0 (joined sp interval) is the negative control.
          if (!s.havoc && site.resolved && !site.callees.empty()) {
            const AbsValue& sp = at_call.regs[2];
            if (sp.base == AbsValue::Base::None && sp.range.is_exact() &&
                sp.init == AbsValue::Init::Init) {
              const std::int64_t sp_val = sp.range.lo;
              for (const MemAccess& m : s.mem) {
                if (!m.is_store || m.entry_reg != 2 || !m.offset.is_exact()) continue;
                const std::int64_t lo = sp_val + m.offset.lo;
                const std::int64_t hi = lo + m.size;  // exclusive
                for (const cosim::PragmaBinding& b : bindings) {
                  if (!program.has_symbol(b.variable)) continue;
                  const std::int64_t var = program.symbols.at(b.variable);
                  if (hi <= var || lo >= var + 4) continue;
                  std::string message = "call to '" + callee_name + "' grows the stack over '";
                  message += b.variable;
                  message += "' (bound to port '";
                  message += b.port;
                  message += "'): sp is ";
                  message += std::to_string(sp_val);
                  message += " here and the callee stores ";
                  message += std::to_string(m.size);
                  message += " bytes at sp";
                  message += (m.offset.lo >= 0 ? "+" : "");
                  message += std::to_string(m.offset.lo);
                  message += " (line ";
                  message += std::to_string(m.line);
                  message += "), clobbering address ";
                  message += std::to_string(lo);
                  if (!ctx.empty()) {
                    message += " [call string: ";
                    message += context_label(cg, ctx);
                    message += "]";
                  }
                  buffer.add_interproc(Severity::Error, "NL316", site.addr, m.addr,
                                       std::move(message), site.line, via_line);
                }
              }
            }
          }
          // NL317: under this call string the caller's callee-saved value is
          // provably initialized and provably clobbered, but the
          // context-joined view NL314 works from only sees a Mixed
          // initialization — the defect exists on one call path and the
          // join masked it.
          if (!s.havoc && s.reached_ret && site.resolved && !site.callees.empty()) {
            RegState whole;
            if (state_before(cfg, flow1, domain, site.addr, whole)) {
              for (std::uint8_t r : kCalleeSaved) {
                if (!definitely_clobbered(s.exit_regs[r], r)) continue;
                if (at_call.regs[r].init != AbsValue::Init::Init) continue;
                if (whole.regs[r].init != AbsValue::Init::Mixed) continue;
                if (buffer.has("NL314", site.addr, r)) continue;
                const CfgInstr* read = find_live_read(cfg, site.addr + 4, r, caller_sites);
                if (read == nullptr) continue;
                std::string message = "call to '" + callee_name +
                                      "' does not preserve callee-saved register ";
                message += reg_name(r);
                message += " (it returns holding ";
                message += describe_exit_value(s.exit_regs[r], r);
                message += ") and the caller still reads its value on line ";
                message += std::to_string(read->line);
                message += "; the clobbered value is live only on the call path";
                if (!ctx.empty()) {
                  message += " [call string: ";
                  message += context_label(cg, ctx);
                  message += "]";
                }
                message += ", so the context-joined view cannot prove it";
                buffer.add_interproc(Severity::Warning, "NL317", site.addr, r,
                                     std::move(message), site.line, via_line);
              }
            }
          }
          // Propagate this clone's call-site state to every resolved
          // callee's matching clone (root when the exact call string was
          // never materialized — recursion, clone-cap overflow, k = 0).
          if (site.resolved) {
            const Context callee_ctx = context_push(ctx, site_idx, k);
            for (std::size_t callee : site.callees) {
              const std::vector<Context>& known = table.contexts_of(callee);
              const Context& target =
                  std::find(known.begin(), known.end(), callee_ctx) != known.end() ? callee_ctx
                                                                                   : Context{};
              CloneKey ck{callee, target};
              auto it = entry_state.find(ck);
              if (it == entry_state.end()) {
                entry_state.emplace(std::move(ck), at_call);
                via[{callee, target}] = site.line;
              } else {
                domain.join(it->second, at_call);
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace

void check_flow(const iss::Program& program, const std::vector<cosim::PragmaBinding>& bindings,
                const FlowOptions& options, const FlowReport& report,
                std::string* summaries_json, FlowStats* stats) {
  Cfg cfg = Cfg::build(program);
  if (cfg.blocks().empty() || cfg.entry() == Cfg::npos) return;

  std::vector<std::uint32_t> tracked;
  for (const cosim::PragmaBinding& b : bindings) {
    if (b.direction == cosim::BindDirection::IssToSc && program.has_symbol(b.variable)) {
      tracked.push_back(program.symbols.at(b.variable));
    }
  }
  RegDomain domain(std::move(tracked));

  std::vector<bool> reachable = reachable_blocks(cfg, cfg.entry(), kInterprocEdges);
  DataflowResult<RegDomain> flow = run_forward(cfg, domain, kInterprocEdges, cfg.entry());

  FindingBuffer buffer;
  std::vector<std::size_t> all_blocks(cfg.blocks().size());
  for (std::size_t b = 0; b < all_blocks.size(); ++b) all_blocks[b] = b;

  check_reachability(cfg, program, bindings, reachable, buffer);
  check_block_values(cfg, all_blocks, flow, domain, options, 0, buffer);
  check_stack_balance(cfg, program, buffer);
  check_binding_liveness(cfg, flow, domain, program, bindings, options, buffer);

  if (options.interproc) {
    CallGraph cg = CallGraph::build(cfg, program);
    if (!cg.functions().empty()) {
      SummaryTable table = SummaryTable::compute(cfg, cg, domain.tracked(), options.context_k);
      check_cross_call_stack(cg, table, buffer);
      check_abi_preservation(cfg, cg, table, domain, flow, buffer);
      check_dead_binding_writes(cfg, program, bindings, flow, domain, reachable, buffer);
      run_context_pass(cfg, cg, table, domain, flow, program, bindings, options, buffer);
      if (summaries_json != nullptr) *summaries_json = render_summaries_json(cg, table);
      if (stats != nullptr) {
        const SummaryStats& ss = table.stats();
        stats->functions = ss.functions;
        stats->clones = ss.clones;
        stats->havoc_summaries = ss.havoc_summaries;
        stats->narrowing_iterations = ss.narrowing_iterations;
        stats->clone_overflows = ss.clone_overflows;
      }
    }
  }

  buffer.flush(report);
}

}  // namespace nisc::analysis

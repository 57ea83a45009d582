// The pragma filter of paper §3.2.
//
// The GDB-Kernel programming model binds guest variables to iss_in/iss_out
// ports via breakpoints. The paper automates the setup with pragmas: "a
// special pragma, containing the name of the variable, is inserted before
// the line where the breakpoint is to be set; a simple filter automatically
// generates the proper GDB script … and a map <variable> <line>".
//
// Our guest sources are RV32 assembly, so the pragmas are:
//
//     #pragma iss_in("router.from_cpu", csum_result)
//     sw t2, 0(t3)            # the statement writing csum_result
//     <next statement>        # <- breakpoint lands HERE (line after)
//
//     #pragma iss_out("router.to_cpu", pkt_word)
//     lw t2, 0(t3)            # <- breakpoint lands HERE (the very line)
//
// matching the paper's rule: for iss_in ports the breakpoint goes on the
// line immediately *following* the statement (the value must be written
// before the stop); for iss_out ports it goes on the very line (the value
// is injected before the statement executes).
//
// filter_pragmas() rewrites the source with synthetic labels at the
// breakpoint lines and returns the binding list; resolve_bindings() turns
// labels and variable names into addresses after assembly; bind_ports()
// finds each binding's iss port once, at elaboration. Both GDB schemes then
// service a stop by one rule: binding_at() finds the binding of the stopped
// pc, ready() tests its port, transfer() moves the value over RSP.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "iss/program.hpp"

namespace nisc::sysc {
class iss_port_base;
class sc_simcontext;
}  // namespace nisc::sysc

namespace nisc::rsp {
class GdbClient;
}  // namespace nisc::rsp

namespace nisc::cosim {

/// Direction of a breakpoint binding, from the SystemC port's perspective.
enum class BindDirection : std::uint8_t {
  IssToSc,  ///< iss_in port: guest variable -> SystemC (pragma iss_in)
  ScToIss,  ///< iss_out port: SystemC -> guest variable (pragma iss_out)
};

/// One pragma occurrence, before address resolution.
struct PragmaBinding {
  BindDirection direction;
  std::string port;         ///< SystemC iss port name
  std::string variable;     ///< guest symbol
  std::string label;        ///< synthetic breakpoint label injected in source
  int pragma_line = 0;      ///< 1-based source line of the pragma
  int statement_line = 0;   ///< 1-based line of the annotated statement
  int breakpoint_line = 0;  ///< 1-based line the breakpoint label lands on
};

/// Output of the filter: transformed source plus binding records.
struct FilteredSource {
  std::string source;
  std::vector<PragmaBinding> bindings;
};

/// Scans `source` for #pragma iss_in/iss_out annotations, injects synthetic
/// breakpoint labels per the paper's placement rules, and strips the
/// pragmas. Throws RuntimeError on malformed pragmas.
FilteredSource filter_pragmas(std::string_view source);

/// A fully resolved breakpoint<->port binding.
struct BreakpointBinding {
  BindDirection direction;
  std::string port;
  std::string variable;
  std::uint32_t breakpoint_addr = 0;
  std::uint32_t variable_addr = 0;
  std::uint32_t width = 4;  ///< bytes transferred per hit
  /// The port named `port`, found by bind_ports() at elaboration.
  sysc::iss_port_base* iss_port = nullptr;
};

/// Resolves filtered bindings against an assembled program's symbol table.
/// Throws RuntimeError when a label or variable is undefined.
std::vector<BreakpointBinding> resolve_bindings(const std::vector<PragmaBinding>& bindings,
                                                const iss::Program& program);

/// Finds each binding's iss port in `ctx`: an iss_in for IssToSc, an
/// iss_out for ScToIss. Throws LogicError, prefixed with `scheme`, when
/// there is no such port.
void bind_ports(std::vector<BreakpointBinding>& bindings, const sysc::sc_simcontext& ctx,
                const char* scheme);

/// The binding whose breakpoint is at `pc`, or null.
const BreakpointBinding* binding_at(const std::vector<BreakpointBinding>& bindings,
                                    std::uint32_t pc) noexcept;

/// True when the bound port can take part in a transfer now: an iss_in that
/// accepts a delivery, or an iss_out holding a value the guest has not read
/// (flow control: until then the guest waits, halted at the breakpoint).
bool ready(const BreakpointBinding& binding) noexcept;

/// Moves one value over RSP: for IssToSc the guest variable, which the
/// guest just wrote, into the iss_in port; for ScToIss the iss_out port's
/// value into the guest variable, which the guest is about to read.
void transfer(const BreakpointBinding& binding, rsp::GdbClient& client);

}  // namespace nisc::cosim

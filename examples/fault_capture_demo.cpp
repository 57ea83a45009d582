// Seeded fault injection with a wire-capture post-mortem.
//
// Runs a GDB-Kernel session whose stub-side transport is wrapped in a
// deterministic FaultPlan: the first sizeable frame (the guest's ebreak
// stop reply) is cut after two bytes and the channel closed mid-frame.
// The kernel extension ends the run with a structured CosimError; this
// demo prints the diagnosis and writes the captured wire traffic as
// concatenated Driver-Kernel frames, ready for the analysis tooling:
//
//   $ ./fault_capture_demo out.capture
//   $ cosim_lint --frames out.capture
//
// The committed examples/captures/gdb_kernel_fault.capture was produced by
// exactly this program: CI re-runs it, checks that the output is byte for
// byte the committed file, and re-lints that file on every push.
#include <cstdio>

#include "cosim/gdb_kernel.hpp"
#include "cosim/session.hpp"
#include "sysc/sysc.hpp"

using namespace nisc;
using namespace nisc::sysc::time_literals;

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "gdb_kernel_fault.capture";

  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);

  cosim::GdbTargetConfig config;
  config.fault_plan.seed = 0x1CEB00DAULL;
  config.fault_plan.disconnect_send(/*nth=*/1, /*keep_bytes=*/2);
  cosim::GdbTarget target("_start:\n  ebreak\n", config);

  cosim::GdbKernelOptions options;
  options.instructions_per_us = 1000000;
  cosim::GdbKernelExtension ext(target.client(), &target.budget(), {}, options);
  ctx.register_extension(&ext);

  while (!ext.error() && !ext.target_finished() && ctx.time_stamp() < 100_us) ctx.run(1_us);
  target.shutdown();
  ctx.unregister_extension(&ext);

  if (!ext.error()) {
    std::fprintf(stderr, "expected a structured transport error, got none\n");
    return 1;
  }
  const cosim::CosimError& error = *ext.error();
  std::printf("== structured co-simulation error ==\n%s\n", error.to_string().c_str());

  if (error.capture_frames.empty()) {
    std::fprintf(stderr, "no wire capture attached\n");
    return 1;
  }
  FILE* out = std::fopen(out_path, "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fwrite(error.capture_frames.data(), 1, error.capture_frames.size(), out);
  std::fclose(out);
  std::printf("wrote %zu bytes of wire capture to %s (try: cosim_lint --frames %s)\n",
              error.capture_frames.size(), out_path, out_path);
  return 0;
}

// A second domain-specific scenario: DSP offload.
//
// A SystemC signal chain streams samples to the CPU, which runs a 4-tap FIR
// filter (coefficients 3,5,7,2) in software; filtered samples come back
// through an iss_in port. Demonstrates that the GDB-Kernel binding model
// generalizes beyond the router case study: same pragmas, same kernel
// extension, different application.
//
//   $ ./fir_offload
#include <cstdio>
#include <vector>

#include "cosim/gdb_kernel.hpp"
#include "cosim/session.hpp"
#include "sysc/sysc.hpp"

using namespace nisc;
using namespace nisc::sysc::time_literals;

namespace {

constexpr const char* kFirGuest = R"(
# 4-tap FIR: y[n] = 3*x[n] + 5*x[n-1] + 7*x[n-2] + 2*x[n-3]
_start:
    la s3, delay
loop:
    la t0, sample
    #pragma iss_out("fir.sample_in", sample)
    lw t1, 0(t0)          # next input sample, injected from SystemC
    lw t2, 8(s3)          # shift the delay line
    sw t2, 12(s3)
    lw t2, 4(s3)
    sw t2, 8(s3)
    lw t2, 0(s3)
    sw t2, 4(s3)
    sw t1, 0(s3)
    lw t2, 0(s3)          # accumulate taps
    li t3, 3
    mul s4, t2, t3
    lw t2, 4(s3)
    li t3, 5
    mul t2, t2, t3
    add s4, s4, t2
    lw t2, 8(s3)
    li t3, 7
    mul t2, t2, t3
    add s4, s4, t2
    lw t2, 12(s3)
    slli t2, t2, 1
    add s4, s4, t2
    la t0, result
    #pragma iss_in("fir.result_out", result)
    sw s4, 0(t0)          # filtered sample, captured into SystemC
    nop
    j loop
sample: .word 0
result: .word 0
delay:  .word 0, 0, 0, 0
)";

}  // namespace

int main() {
  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  sysc::iss_out<std::uint32_t> sample_in("fir.sample_in");
  sysc::iss_in<std::uint32_t> result_out("fir.result_out");

  // Step input: a constant stream of 100s. The filter output must ramp
  // 300, 800, 1500 and settle at (3+5+7+2)*100 = 1700.
  constexpr int kSamples = 8;
  std::vector<std::uint32_t> outputs;
  auto& collector = ctx.create_method(
      "collect",
      [&] {
        outputs.push_back(result_out.read());
        if (outputs.size() < kSamples) sample_in.write(100);
      },
      sysc::process_kind::IssMethod);
  collector.make_sensitive(result_out.written_event());
  collector.dont_initialize();
  sample_in.write(100);

  cosim::GdbTarget target(kFirGuest);
  cosim::GdbKernelOptions options;
  options.instructions_per_us = 1000000;
  cosim::GdbKernelExtension ext(target.client(), &target.budget(), target.bindings(), options);
  ctx.register_extension(&ext);

  while (outputs.size() < kSamples) ctx.run(1_us);

  std::printf("== FIR offload under GDB-Kernel co-simulation ==\n");
  std::printf("step response: ");
  for (std::uint32_t y : outputs) std::printf("%u ", y);
  std::printf("\n");

  const std::vector<std::uint32_t> expected = {300, 800, 1500, 1700, 1700, 1700, 1700, 1700};
  bool ok = outputs == expected;
  std::printf("expected     : 300 800 1500 1700 1700 1700 1700 1700\n");
  std::printf("match        : %s\n", ok ? "yes" : "NO");
  target.shutdown();
  ctx.unregister_extension(&ext);
  return ok ? 0 : 1;
}

// Interrupt handling under Driver-Kernel co-simulation (paper §4).
//
// The ability to model interrupts is the Driver-Kernel scheme's qualitative
// advantage over GDB-Kernel ("modeling an interrupt in the GDB-Kernel
// scheme would require to stop GDB execution at any instruction, thus
// degrading the performance unacceptably").
//
// A SystemC timer device raises a periodic interrupt; the guest attaches an
// ISR through the RTOS, counts invocations and acknowledges each interrupt
// by writing its count back through the device driver. The example prints
// the interrupt fan-in statistics.
//
//   $ ./interrupt_latency
#include <cstdio>

#include "cosim/driver_kernel.hpp"
#include "cosim/session.hpp"
#include "sysc/sysc.hpp"

using namespace nisc;
using namespace nisc::sysc::time_literals;

namespace {

constexpr const char* kIsrGuest = R"(
# Count timer interrupts; acknowledge each by dev-writing the count.
_start:
    la a1, isr
    li a0, 9            # IRQ line 9: the SystemC timer
    li a7, SYS_IRQ_ATTACH
    ecall
main_loop:
    la t0, done
    lw t1, 0(t0)
    beqz t1, main_loop  # spin: all the work happens in the ISR
    li a7, SYS_EXIT
    ecall
isr:
    la t0, count
    lw t1, 0(t0)
    addi t1, t1, 1
    sw t1, 0(t0)
    sw t1, 0(t0)        # keep `count` hot for the ack below
    la a1, count
    li a0, 0
    li a2, 4
    li a7, SYS_DEV_WRITE
    ecall
    li t2, 10
    blt t1, t2, isr_done
    la t0, done
    sw t2, 0(t0)
isr_done:
    ret
count: .word 0
done:  .word 0
)";

/// SystemC timer: posts an interrupt every `period` through the extension.
struct TimerDevice : sysc::sc_module {
  TimerDevice(std::string name, cosim::DriverKernelExtension& ext, sysc::sc_time period)
      : sc_module(std::move(name)), ext_(ext), period_(period) {
    declare_thread("tick", &TimerDevice::tick);
  }
  void tick() {
    for (;;) {
      sysc::wait(period_);
      ext_.post_interrupt(9);
      ++raised;
    }
  }
  cosim::DriverKernelExtension& ext_;
  sysc::sc_time period_;
  int raised = 0;
};

}  // namespace

int main() {
  sysc::sc_simcontext ctx;
  auto& clk = ctx.create<sysc::sc_clock>("clk", 10_ns);
  (void)clk;
  auto& ack_port = ctx.create<sysc::iss_in<std::uint32_t>>("timer.ack");
  auto& unused_out = ctx.create<sysc::iss_out<std::uint32_t>>("timer.unused");
  (void)unused_out;

  cosim::DriverTargetConfig config;
  config.write_port = "timer.ack";
  config.read_port = "timer.unused";
  cosim::DriverTarget target(kIsrGuest, config);

  cosim::DriverKernelOptions options;
  options.instructions_per_us = 1000000;
  cosim::DriverKernelExtension ext(target.take_data_endpoint(),
                                   target.take_interrupt_endpoint(), &target.budget(), options);
  ctx.register_extension(&ext);
  auto& timer = ctx.create<TimerDevice>("timer", ext, 5_us);

  while (!target.finished() && ctx.time_stamp() < 1_ms) ctx.run(10_us);
  ctx.run(10_us);  // drain the last in-flight acknowledgments

  std::printf("== Driver-Kernel interrupt path ==\n");
  std::printf("timer interrupts raised    : %d\n", timer.raised);
  std::printf("interrupts sent to driver  : %llu\n",
              static_cast<unsigned long long>(ext.stats().interrupts_sent));
  std::printf("ISR dispatches in the RTOS : %llu\n",
              static_cast<unsigned long long>(target.kernel().stats().isr_dispatches));
  std::printf("last acknowledged count    : %u\n", ack_port.read());
  std::printf("guest finished             : %s\n", target.finished() ? "yes" : "no");
  target.shutdown();
  ctx.unregister_extension(&ext);
  // A straggler interrupt may land between count==10 and the guest's exit,
  // so accept >= 10 acknowledgments.
  return (target.finished() && ack_port.read() >= 10) ? 0 : 1;
}

#include "cosim/session.hpp"

#include "ipc/message.hpp"
#include "iss/assembler.hpp"
#include "util/log.hpp"

namespace nisc::cosim {

namespace {

/// Transfers each session's wire capture keeps for post-mortems.
constexpr std::size_t kCaptureFrames = 32;

/// Builds an in-process session wire: `a` is its kernel side, `b` its
/// target side. Both ends run on the kernel thread, so the pair is linked
/// before anything is sent: a transfer that cannot complete now never will,
/// and both ends start with no news until the other end sends. `plan` bites
/// the target side; a capture ring named `capture_label` (if any) and
/// `observer` tap the kernel side, whose sends and waits run `step`.
ipc::ChannelPair make_session_wire(ipc::Transport transport, std::function<bool()> step,
                                   const ipc::FaultPlan& plan = {},
                                   const char* capture_label = nullptr,
                                   std::shared_ptr<ipc::WireObserver> observer = nullptr) {
  ipc::ChannelPair wire = ipc::make_channel_pair(transport);
  wire.link_same_thread();
  if (!plan.empty()) ipc::FaultyChannel::install(wire.b, plan);
  if (capture_label != nullptr) {
    wire.a.attach_capture(std::make_shared<ipc::WireCapture>(capture_label, kCaptureFrames));
  }
  wire.a.attach_observer(std::move(observer));
  wire.a.set_inline_peer(std::move(step));
  return wire;
}

}  // namespace

// ---------------------------------------------------------------------------
// GdbTarget

GdbTarget::GdbTarget(const std::string& guest_source, GdbTargetConfig config) {
  FilteredSource filtered = filter_pragmas(guest_source);
  const iss::Program program = iss::assemble(filtered.source);
  bindings_ = resolve_bindings(filtered.bindings, program);

  cpu_ = std::make_unique<iss::Cpu>(config.mem_size);
  program.load_into(cpu_->mem());
  cpu_->reset(program.entry);

  ipc::ChannelPair wire = make_session_wire(config.transport, [this] { return step(); },
                                            config.fault_plan, "gdb",
                                            std::move(config.wire_observer));
  budget_.set_idle(true);  // the stub starts halted
  budget_.set_consumer([this] { step(); });
  stub_ = std::make_unique<rsp::GdbStub>(*cpu_, std::move(wire.b));
  client_ = std::make_unique<rsp::GdbClient>(std::move(wire.a));
}

GdbTarget::~GdbTarget() { shutdown(); }

bool GdbTarget::step() {
  ipc::Channel& wire = stub_->channel();
  if (!stub_->running() && !wire.has_news()) return false;
  bool worked = stub_->poll();
  // A suppressed or short read can leave part of a request behind: keep
  // stepping until a step that finds no work also finds the wire drained.
  const bool unread = !worked && !stub_->done() && wire.has_news() && wire.input_waiting();
  while (budget_.ready()) {
    const std::uint64_t cycles_before = cpu_->cycles();
    if (!stub_->run_slice(TimeBudget::kSlice)) break;  // halted or ended
    worked = true;
    budget_.charge(cpu_->cycles() - cycles_before);
  }
  // A halted CPU does not consume simulated time: its allowance burns off,
  // once the debt of its last slice is paid.
  budget_.set_idle(!stub_->running());
  if (stub_->done()) budget_.close();  // killed, detached or disconnected
  return worked || unread;
}

void GdbTarget::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  budget_.close();
  if (stub_->done()) return;
  try {
    if (client_->running()) {
      client_->interrupt();
      client_->wait_stop();
    }
    client_->kill();
  } catch (const util::RuntimeError&) {
    // Transport already gone: there is nobody left to stop.
  }
}

// ---------------------------------------------------------------------------
// DriverTarget

DriverTarget::DriverTarget(const std::string& guest_source, DriverTargetConfig config) {
  util::require(!config.write_port.empty() && !config.read_port.empty(),
                "DriverTarget: write_port/read_port must name iss ports");
  cpu_ = std::make_unique<iss::Cpu>(config.mem_size);
  kernel_ = std::make_unique<rtos::Kernel>(*cpu_, config.rtos);
  kernel_->load(iss::assemble(rtos::guest_abi_prelude() + guest_source));

  ipc::ChannelPair data = make_session_wire(config.transport, [this] { return step(); },
                                            config.fault_plan, "drv-data",
                                            std::move(config.wire_observer));
  ipc::ChannelPair irq = make_session_wire(config.transport, [this] { return step(); });
  irq.b.attach_observer(std::move(config.irq_observer));
  data_kernel_side_ = std::move(data.a);
  irq_kernel_side_ = std::move(irq.a);
  irq_target_side_ = std::move(irq.b);

  auto driver = std::make_unique<ScPortDriver>(std::move(data.b), std::move(config.write_port),
                                               std::move(config.read_port));
  driver_ = driver.get();
  int dev = kernel_->register_driver(std::move(driver));
  util::require(dev == 0, "DriverTarget: scdev must be device 0");
  budget_.set_consumer([this] { step(); });
}

ipc::Channel DriverTarget::take_data_endpoint() {
  util::require(data_kernel_side_.valid(), "take_data_endpoint: already taken");
  return std::move(data_kernel_side_);
}

ipc::Channel DriverTarget::take_interrupt_endpoint() {
  util::require(irq_kernel_side_.valid(), "take_interrupt_endpoint: already taken");
  return std::move(irq_kernel_side_);
}

bool DriverTarget::step() {
  if (irq_target_side_.valid() && irq_target_side_.has_news()) {
    // The paper's "thread that listens to the interrupts generated from the
    // SystemC device" (§4.1), run inline: queue each irq for ISR dispatch
    // and report the acknowledge edge of the DriverIrq automaton.
    try {
      while (auto msg = ipc::try_recv_message(irq_target_side_)) {
        if (auto irq = msg->irq()) {
          kernel_->raise_irq(*irq);
          irq_target_side_.notify_observer("ack");
        }
      }
    } catch (const util::RuntimeError&) {
      // Interrupt socket closed (the port quiesced): nothing more to
      // deliver. Close this end too, so no later step looks at it again.
      irq_target_side_.close();
    }
  }
  ipc::Channel& data = driver_->channel();
  bool ran = false;
  while (budget_.ready()) {
    const bool was_idle = last_status_ == rtos::RunStatus::Idle;
    if (was_idle) {
      // Every guest thread waits on a device read: the CPU idles, burning
      // its allowance, until an irq or bytes for the driver wake it.
      const bool woken = kernel_->irq_pending() ||
                         (!driver_->degraded() && data.has_news() && data.input_waiting());
      if (!woken) {
        budget_.set_idle(true);
        return ran;
      }
      budget_.set_idle(false);
    }
    const std::uint64_t cycles_before = cpu_->cycles();
    last_status_ = kernel_->run(TimeBudget::kSlice);
    ran = true;
    const std::uint64_t cycles = cpu_->cycles() - cycles_before;
    budget_.charge(cycles);
    switch (last_status_) {
      case rtos::RunStatus::Fault:
        NISC_ERROR("driver-target") << "guest fault: "
                                    << iss::halt_name(kernel_->last_fault());
        [[fallthrough]];
      case rtos::RunStatus::AllDone:
        // The guest never runs again: its session ends.
        finished_ = true;
        budget_.close();
        return ran;
      case rtos::RunStatus::Idle:
        if (was_idle && cycles == 0) {
          // Woken, but the driver read nothing (say, its poll was
          // suppressed): retry at the next deposit.
          budget_.set_idle(true);
          return ran;
        }
        break;
      case rtos::RunStatus::Budget:
        break;
    }
  }
  return ran;
}

}  // namespace nisc::cosim

#include "cosim/session.hpp"

#include "iss/assembler.hpp"
#include "util/log.hpp"

namespace nisc::cosim {

namespace {

/// Transfers each session's wire capture keeps for post-mortems.
constexpr std::size_t kCaptureFrames = 32;

}  // namespace

// ---------------------------------------------------------------------------
// GdbTarget

GdbTarget::GdbTarget(const std::string& guest_source, GdbTargetConfig config)
    : config_(std::move(config)) {
  FilteredSource filtered = filter_pragmas(guest_source);
  program_ = iss::assemble(filtered.source);
  bindings_ = resolve_bindings(filtered.bindings, program_);

  cpu_ = std::make_unique<iss::Cpu>(config_.mem_size);
  program_.load_into(cpu_->mem());
  cpu_->reset(program_.entry);

  // Both ends run on the kernel thread: a transfer that cannot complete now
  // never will, and a wire end found empty stays empty until the other end
  // sends.
  ipc::ChannelPair pair = ipc::make_channel_pair(config_.transport);
  pair.link_same_thread();
  if (!config_.fault_plan.empty()) {
    fault_state_ = ipc::FaultyChannel::install(pair.a, config_.fault_plan);
  }
  capture_ = std::make_shared<ipc::WireCapture>("gdb", kCaptureFrames);
  pair.b.attach_capture(capture_);
  if (config_.wire_observer) pair.b.attach_observer(config_.wire_observer);
  pair.b.set_inline_peer([this] {
    unread_ = true;
    return step();
  });
  budget_.set_idle(true);  // the stub starts halted
  budget_.set_consumer([this] { step(); });
  stub_ = std::make_unique<rsp::GdbStub>(*cpu_, std::move(pair.a));
  client_ = std::make_unique<rsp::GdbClient>(std::move(pair.b));
}

GdbTarget::~GdbTarget() { shutdown(); }

bool GdbTarget::step() {
  if (!unread_ && !stub_->running()) return false;
  // A suppressed or short read can leave part of a request behind: keep
  // stepping until a step that finds no work also finds the wire drained.
  bool worked = stub_->poll();
  if (!worked && unread_) unread_ = stub_->input_pending();
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
  return worked || unread_;
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

DriverTarget::DriverTarget(const std::string& guest_source, DriverTargetConfig config)
    : config_(std::move(config)) {
  util::require(!config_.write_port.empty() && !config_.read_port.empty(),
                "DriverTarget: write_port/read_port must name iss ports");
  program_ = iss::assemble(rtos::guest_abi_prelude() + guest_source);

  cpu_ = std::make_unique<iss::Cpu>(config_.mem_size);
  kernel_ = std::make_unique<rtos::Kernel>(*cpu_, config_.rtos);
  kernel_->load(program_);

  ipc::ChannelPair data = ipc::make_channel_pair(config_.transport);
  ipc::ChannelPair irq = ipc::make_channel_pair(config_.transport);
  data.link_same_thread();
  irq.link_same_thread();
  if (!config_.fault_plan.empty()) {
    fault_state_ = ipc::FaultyChannel::install(data.b, config_.fault_plan);
  }
  capture_ = std::make_shared<ipc::WireCapture>("drv-data", kCaptureFrames);
  data.a.attach_capture(capture_);
  if (config_.wire_observer) data.a.attach_observer(config_.wire_observer);
  if (config_.irq_observer) irq.b.attach_observer(config_.irq_observer);
  data.a.set_inline_peer([this] { return on_data_sent(); });
  irq.a.set_inline_peer([this] { return on_interrupt_sent(); });
  data_kernel_side_ = std::move(data.a);
  irq_kernel_side_ = std::move(irq.a);
  irq_target_side_ = std::move(irq.b);

  auto driver = std::make_unique<ScPortDriver>(std::move(data.b), config_.write_port,
                                               config_.read_port);
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

bool DriverTarget::on_data_sent() {
  unread_ = true;
  return step();
}

bool DriverTarget::on_interrupt_sent() {
  // The paper's "thread that listens to the interrupts generated from the
  // SystemC device" (§4.1), run inline: queue each irq for ISR dispatch and
  // report the acknowledge edge of the DriverIrq automaton.
  try {
    while (auto msg = ipc::try_recv_message(irq_target_side_)) {
      if (auto irq = msg->irq()) {
        kernel_->raise_irq(*irq);
        irq_target_side_.notify_observer("ack");
      }
    }
  } catch (const util::RuntimeError&) {
    // Interrupt socket closed (the port quiesced): nothing more to deliver.
  }
  return step();
}

bool DriverTarget::wake_pending() {
  if (kernel_->irq_pending()) return true;
  if (unread_) unread_ = driver_->has_unread();
  return unread_;
}

bool DriverTarget::step() {
  bool ran = false;
  while (budget_.ready()) {
    const bool was_idle = last_status_ == rtos::RunStatus::Idle;
    if (was_idle) {
      // Every guest thread waits on a device read: the CPU idles, burning
      // its allowance, until the kernel sends it something.
      if (!wake_pending()) {
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

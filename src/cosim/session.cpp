#include "cosim/session.hpp"

#include <chrono>
#include <thread>

#include "iss/assembler.hpp"
#include "util/log.hpp"

namespace nisc::cosim {

namespace {

/// Instructions per stub continue-slice between transport polls.
constexpr std::uint64_t kStubQuantum = 1024;
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

  ipc::ChannelPair pair = ipc::make_channel_pair(config_.transport);
  pair.a.set_io_timeout(config_.io_timeout_ms);
  pair.b.set_io_timeout(config_.io_timeout_ms);
  if (!config_.fault_plan.empty()) {
    fault_state_ = ipc::FaultyChannel::install(pair.a, config_.fault_plan);
  }
  if (config_.capture_wire) {
    capture_ = std::make_shared<ipc::WireCapture>("gdb", kCaptureFrames);
    pair.b.attach_capture(capture_);
  }
  if (config_.wire_observer) pair.b.attach_observer(config_.wire_observer);
  rsp::StubOptions stub_options;
  stub_options.quantum = kStubQuantum;
  if (config_.throttled) {
    stub_options.acquire_quantum = [this](std::uint64_t want) { return budget_.acquire(want); };
    // A halted CPU does not consume simulated time: park its allowance so
    // the reverse throttle never mistakes a breakpoint stop for a slow CPU.
    stub_options.on_run_state = [this](bool running) { budget_.set_idle(!running); };
    budget_.set_idle(true);  // the stub starts halted
  }
  stub_ = std::make_unique<rsp::GdbStub>(*cpu_, std::move(pair.a), std::move(stub_options));
  client_ = std::make_unique<rsp::GdbClient>(std::move(pair.b),
                                             rsp::ClientOptions{config_.reply_timeout_ms});
}

GdbTarget::~GdbTarget() { shutdown(); }

void GdbTarget::start() {
  util::require(!started_, "GdbTarget::start called twice");
  started_ = true;
  thread_ = std::thread([this] {
    stub_->serve();
    budget_.close();  // the stub is gone (killed, detached or disconnected)
  });
}

void GdbTarget::shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;
  budget_.close();
  try {
    if (client_->running()) {
      client_->interrupt();
      client_->wait_stop(2000);
    }
    client_->kill();
  } catch (const util::RuntimeError&) {
    // Transport already gone; the stub also exits on EOF or its bounded
    // serve tick after request_stop below.
  }
  stub_->request_stop();
  if (thread_.joinable()) thread_.join();
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
  data.a.set_io_timeout(config_.io_timeout_ms);
  data.b.set_io_timeout(config_.io_timeout_ms);
  irq.a.set_io_timeout(config_.io_timeout_ms);
  irq.b.set_io_timeout(config_.io_timeout_ms);
  if (!config_.fault_plan.empty()) {
    fault_state_ = ipc::FaultyChannel::install(data.b, config_.fault_plan);
  }
  if (config_.capture_wire) {
    capture_ = std::make_shared<ipc::WireCapture>("drv-data", kCaptureFrames);
    data.a.attach_capture(capture_);
  }
  if (config_.wire_observer) data.a.attach_observer(config_.wire_observer);
  if (config_.irq_observer) irq.b.attach_observer(config_.irq_observer);
  data_kernel_side_ = std::move(data.a);
  irq_kernel_side_ = std::move(irq.a);
  irq_target_side_ = std::move(irq.b);

  auto driver = std::make_unique<ScPortDriver>(std::move(data.b), config_.write_port,
                                               config_.read_port);
  driver_ = driver.get();
  int dev = kernel_->register_driver(std::move(driver));
  util::require(dev == 0, "DriverTarget: scdev must be device 0");
}

DriverTarget::~DriverTarget() { shutdown(); }

ipc::Channel DriverTarget::take_data_endpoint() {
  util::require(data_kernel_side_.valid(), "take_data_endpoint: already taken");
  return std::move(data_kernel_side_);
}

ipc::Channel DriverTarget::take_interrupt_endpoint() {
  util::require(irq_kernel_side_.valid(), "take_interrupt_endpoint: already taken");
  return std::move(irq_kernel_side_);
}

void DriverTarget::start() {
  util::require(!started_, "DriverTarget::start called twice");
  started_ = true;
  pump_ = std::make_unique<InterruptPump>(std::move(irq_target_side_), *kernel_);
  thread_ = std::thread([this] {
    run_loop();
    budget_.close();  // never consuming again: release the throttle
  });
}

void DriverTarget::run_loop() {
  while (!stop_.load()) {
    // Pay-after accounting in CPU *cycles*: OS overhead (syscalls, context
    // switches, ISR entry) is charged as cycles by the RTOS model, and must
    // slow the guest down in simulated time — that is the paper's Figure 7
    // effect. Run a slice, then settle its measured cycle cost against the
    // allowance the SystemC side deposits as simulated time advances. A
    // closed budget (the session quiesced, or shutdown, which also sets
    // stop_) settles nothing and lets the guest run on unthrottled.
    const std::uint64_t cycles_before = cpu_->cycles();
    rtos::RunStatus status = kernel_->run(kRunQuantum);
    last_status_.store(status);
    if (config_.throttled) budget_.pay(cpu_->cycles() - cycles_before);
    switch (status) {
      case rtos::RunStatus::AllDone:
        finished_.store(true);
        return;
      case rtos::RunStatus::Fault:
        NISC_ERROR("driver-target") << "guest fault: "
                                    << iss::halt_name(kernel_->last_fault());
        finished_.store(true);
        return;
      case rtos::RunStatus::Idle:
        // Every guest thread is blocked in dev_read: the CPU idles, burning
        // its allowance doing nothing, until device data arrives.
        budget_.set_idle(true);
        if (!driver_->wait_incoming(1) && driver_->degraded()) {
          // No data will ever arrive on a degraded driver: idle politely
          // instead of hot-spinning until shutdown.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        budget_.set_idle(false);
        break;
      case rtos::RunStatus::Budget:
        break;
    }
  }
}

void DriverTarget::shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;
  stop_.store(true);
  budget_.close();
  if (thread_.joinable()) thread_.join();
  if (pump_) pump_->stop();
}

}  // namespace nisc::cosim

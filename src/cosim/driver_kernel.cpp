#include "cosim/driver_kernel.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace nisc::cosim {

namespace {

/// True when every iss_in port a message names accepts a delivery now.
bool deliverable(sysc::sc_simcontext& ctx, const ipc::DriverMessage& msg) {
  for (const ipc::MsgItem& item : msg.items) {
    const sysc::iss_port_base* port = ctx.find_iss_port(item.port);
    if (port != nullptr && port->is_input() && !port->accepts_delivery()) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// DriverKernelExtension

DriverKernelExtension::DriverKernelExtension(ipc::Channel data, ipc::Channel interrupts,
                                             TimeBudget* budget, DriverKernelOptions options)
    : data_(std::move(data)), interrupts_(std::move(interrupts)), budget_(budget),
      options_(options) {}

void DriverKernelExtension::quiesce(const std::string& reason) {
  if (quiesced_) return;
  quiesced_ = true;
  obs::counter("cosim.drvk.quiesces").add(1);
  obs::instant("cosim.quiesce", "cosim");
  error_ = make_cosim_error("driver-kernel", reason, data_.capture());
  NISC_WARN("driver-kernel") << "offload port quiesced (simulation continues): " << reason;
  data_.notify_observer("quiesce");
  data_.close();
  interrupts_.close();
  backlog_.clear();
  pending_interrupts_.clear();
  // Time correlation ends with the session, and with it the guest's steps.
  if (budget_ != nullptr) budget_->close();
}

void DriverKernelExtension::on_elaboration(sysc::sc_simcontext& ctx) {
  // Resolve the owned ports once, in registration order (a push's order).
  const std::vector<std::string>& names = options_.owned_ports;
  for (sysc::iss_port_base* port : ctx.iss_ports()) {
    if (port->is_input()) continue;
    if (names.empty() || std::ranges::find(names, port->name()) != names.end()) {
      owned_.push_back(port);
    }
  }
  for (const std::string& name : names) {
    const sysc::iss_port_base* port = ctx.find_iss_port(name);
    if (port == nullptr || port->is_input()) {
      throw util::LogicError("DriverKernel: owned port " + name + " is no iss_out port");
    }
  }
}

void DriverKernelExtension::on_cycle_begin(sysc::sc_simcontext& ctx) {
  if (quiesced_) return;
  // Paper Fig. 5: "message to exchange?" at the start of the cycle.
  // Backlogged WRITEs (target port still draining) go first, in order.
  while (!backlog_.empty()) {
    // Preserve order: do not drain the channel past a blocked WRITE.
    if (!deliverable(ctx, backlog_.front())) return;
    ipc::DriverMessage head = std::move(backlog_.front());
    backlog_.pop_front();
    handle_message(ctx, head);
  }
  try {
    while (auto msg = ipc::try_recv_message(data_)) {
      ++stats_.messages_in;
      if (msg->type == ipc::MsgType::Write && !deliverable(ctx, *msg)) {
        backlog_.push_back(std::move(*msg));
        return;
      }
      handle_message(ctx, *msg);
    }
  } catch (const util::RuntimeError& e) {
    // Driver side gone or stream corrupted beyond framing: shut this port
    // down but keep simulating.
    quiesce(std::string("data port receive failed: ") + e.what());
  }
}

void DriverKernelExtension::handle_message(sysc::sc_simcontext& ctx,
                                           const ipc::DriverMessage& msg) {
  obs::ScopedSpan span("cosim.drvk.message", "cosim", "type",
                       static_cast<std::uint64_t>(msg.type));
  switch (msg.type) {
    case ipc::MsgType::Write:
      // Store each data item in the iss_in port named by SCPort_i and start
      // the iss_processes sensitive to it.
      for (const ipc::MsgItem& item : msg.items) {
        sysc::iss_port_base* port = ctx.find_iss_port(item.port);
        if (port == nullptr || !port->is_input()) {
          NISC_WARN("driver-kernel") << "WRITE to unknown iss_in port " << item.port;
          continue;
        }
        if (item.data.size() != port->width_bytes()) {
          NISC_WARN("driver-kernel") << "WRITE to " << item.port << ": payload "
                                     << item.data.size() << " bytes, port width "
                                     << port->width_bytes();
          continue;  // drop the malformed item, keep the session alive
        }
        port->deliver_bytes(item.data);
        ++stats_.words_delivered;
      }
      break;
    case ipc::MsgType::Read: {
      // Answer with the current value of each named iss_out port.
      ipc::DriverMessage reply;
      reply.type = ipc::MsgType::ReadReply;
      for (const ipc::MsgItem& item : msg.items) {
        sysc::iss_port_base* port = ctx.find_iss_port(item.port);
        if (port == nullptr || port->is_input()) {
          NISC_WARN("driver-kernel") << "READ of unknown iss_out port " << item.port;
          continue;
        }
        reply.items.push_back({item.port, port->peek_bytes()});
        port->consume_fresh();
      }
      try {
        ipc::send_message(data_, reply);
        ++stats_.messages_out;
      } catch (const util::RuntimeError& e) {
        quiesce(std::string("read-reply send failed: ") + e.what());
      }
      break;
    }
    default:
      NISC_WARN("driver-kernel") << "unexpected message type from driver";
      break;
  }
}

void DriverKernelExtension::on_cycle_end(sysc::sc_simcontext&) {
  if (quiesced_) return;
  // Push freshly written iss_out values to the driver (asynchronous reads).
  if (options_.push_outputs) {
    ipc::DriverMessage push;
    push.type = ipc::MsgType::ReadReply;
    for (sysc::iss_port_base* port : owned_) {
      if (!port->has_fresh_value()) continue;
      push.items.push_back({port->name(), port->peek_bytes()});
      port->consume_fresh();
    }
    if (!push.items.empty()) {
      try {
        ipc::send_message(data_, push);
        ++stats_.messages_out;
      } catch (const util::RuntimeError& e) {
        quiesce(std::string("output push failed: ") + e.what());
        return;
      }
      // Data-arrival notification: the interrupt rides the same cycle's
      // drain below, after the data it announces is already on the wire.
      if (options_.data_irq >= 0) {
        post_interrupt(static_cast<std::uint32_t>(options_.data_irq));
      }
    }
  }
  // Paper Fig. 5: "interrupt generated?" at the end of the cycle.
  while (!pending_interrupts_.empty()) {
    std::uint32_t irq = pending_interrupts_.front();
    pending_interrupts_.pop_front();
    try {
      ipc::send_message(interrupts_, ipc::DriverMessage::interrupt(irq));
      ++stats_.interrupts_sent;
    } catch (const util::RuntimeError& e) {
      quiesce(std::string("interrupt send failed: ") + e.what());
      break;
    }
  }
}

void DriverKernelExtension::on_time_advance(sysc::sc_simcontext&, const sysc::sc_time& now) {
  if (budget_ != nullptr) budget_->advance_to(now.ps(), options_.instructions_per_us);
}

void DriverKernelExtension::on_run_end(sysc::sc_simcontext&) {
  // Batched publication, mirroring GdbKernelExtension::on_run_end.
  static obs::Counter& c_in = obs::counter("cosim.drvk.messages_in");
  static obs::Counter& c_out = obs::counter("cosim.drvk.messages_out");
  static obs::Counter& c_irqs = obs::counter("cosim.drvk.interrupts_sent");
  static obs::Counter& c_words = obs::counter("cosim.drvk.words_delivered");
  c_in.add(stats_.messages_in - published_.messages_in);
  c_out.add(stats_.messages_out - published_.messages_out);
  c_irqs.add(stats_.interrupts_sent - published_.interrupts_sent);
  c_words.add(stats_.words_delivered - published_.words_delivered);
  published_ = stats_;
}

}  // namespace nisc::cosim

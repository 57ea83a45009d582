#include "router/producer.hpp"

namespace nisc::router {

Producer::Producer(std::string name, sysc::sc_fifo<Packet>& fifo,
                   sysc::sc_event& enqueue_event, ProducerConfig config)
    : sc_module(std::move(name)), fifo_(fifo), enqueue_event_(enqueue_event),
      config_(config), rng_(config.seed) {
  util::require(config_.address_space >= 1 && config_.address_space <= 256,
                "Producer: bad address space");
  declare_thread("produce", &Producer::produce_loop);
}

Packet Producer::make_packet(std::uint64_t index) {
  Packet packet;
  packet.src = static_cast<std::uint8_t>(config_.port);
  packet.dst =
      static_cast<std::uint8_t>(rng_.below(static_cast<std::uint64_t>(config_.address_space)));
  packet.id = static_cast<std::uint32_t>(index);
  for (auto& word : packet.payload) word = rng_.next_u32();
  return packet;
}

void Producer::produce_loop() {
  for (std::uint64_t i = 0; config_.num_packets == 0 || i < config_.num_packets; ++i) {
    Packet packet = make_packet(i);
    ++stats_.produced;
    if (fifo_.nb_write(packet)) {
      ++stats_.accepted;
      enqueue_event_.notify_delta();
    } else {
      // The router (waiting on the CPU checksum) has fallen behind: the
      // packet is lost. This is the effect Figure 7 plots.
      ++stats_.dropped_input;
    }
    if (config_.delay > sysc::sc_time::zero()) {
      sysc::wait(config_.delay);
    } else {
      sysc::wait(sysc::sc_time::from_ps(1));
    }
  }
  stats_.done = true;
}

}  // namespace nisc::router

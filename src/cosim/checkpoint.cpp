#include "cosim/checkpoint.hpp"

#include <algorithm>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"

namespace nisc::cosim {

using util::ByteReader;
using util::ByteWriter;
using util::RuntimeError;

namespace {

std::string hex32(std::uint32_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// ISS layer

bool IssSnapshot::operator==(const IssSnapshot& other) const {
  return regs == other.regs && pc == other.pc && instret == other.instret &&
         cycles == other.cycles && last_halt == other.last_halt &&
         cycle_model.base == other.cycle_model.base &&
         cycle_model.load_store == other.cycle_model.load_store &&
         cycle_model.branch_taken == other.cycle_model.branch_taken &&
         cycle_model.mul == other.cycle_model.mul && cycle_model.div == other.cycle_model.div &&
         breakpoints == other.breakpoints && watchpoints == other.watchpoints &&
         mem_size == other.mem_size && pages == other.pages;
}

IssSnapshot IssSnapshot::capture(const iss::Cpu& cpu) {
  IssSnapshot snap;
  for (std::uint8_t i = 0; i < 32; ++i) snap.regs[i] = cpu.reg(i);
  snap.pc = cpu.pc();
  snap.instret = cpu.instret();
  snap.cycles = cpu.cycles();
  snap.last_halt = static_cast<std::uint8_t>(cpu.last_halt());
  snap.cycle_model = const_cast<iss::Cpu&>(cpu).cycle_model();
  snap.breakpoints.assign(cpu.breakpoints().begin(), cpu.breakpoints().end());
  snap.watchpoints.assign(cpu.watchpoints().begin(), cpu.watchpoints().end());
  const std::span<const std::uint8_t> mem = cpu.mem().bytes();
  snap.mem_size = mem.size();
  for (std::size_t base = 0; base < mem.size(); base += kCheckpointPageSize) {
    const std::size_t len = std::min<std::size_t>(kCheckpointPageSize, mem.size() - base);
    const std::span<const std::uint8_t> page = mem.subspan(base, len);
    if (std::all_of(page.begin(), page.end(), [](std::uint8_t b) { return b == 0; })) continue;
    snap.pages.emplace_back(static_cast<std::uint32_t>(base / kCheckpointPageSize),
                            std::vector<std::uint8_t>(page.begin(), page.end()));
  }
  return snap;
}

void IssSnapshot::apply(iss::Cpu& cpu) const {
  if (cpu.mem().size() != mem_size) {
    throw RuntimeError("checkpoint: memory size mismatch (snapshot " + std::to_string(mem_size) +
                       ", cpu " + std::to_string(cpu.mem().size()) + ")");
  }
  cpu.mem().clear();
  for (const auto& [index, bytes] : pages) {
    const std::uint64_t base = static_cast<std::uint64_t>(index) * kCheckpointPageSize;
    if (base + bytes.size() > mem_size) {
      throw RuntimeError("checkpoint: page " + std::to_string(index) + " outside memory");
    }
    cpu.mem().write_block(static_cast<std::uint32_t>(base), bytes);
  }
  for (std::uint8_t i = 1; i < 32; ++i) cpu.set_reg(i, regs[i]);
  cpu.set_pc(pc);
  cpu.restore_counters(instret, cycles);
  cpu.restore_halt(static_cast<iss::Halt>(last_halt));
  cpu.cycle_model() = cycle_model;
  for (std::uint32_t addr : std::vector<std::uint32_t>(cpu.breakpoints().begin(),
                                                       cpu.breakpoints().end())) {
    cpu.remove_breakpoint(addr);
  }
  for (std::uint32_t addr : breakpoints) cpu.add_breakpoint(addr);
  std::vector<std::uint32_t> watch_addrs;
  for (const auto& [addr, len] : cpu.watchpoints()) watch_addrs.push_back(addr);
  for (std::uint32_t addr : watch_addrs) cpu.remove_watchpoint(addr);
  for (const auto& [addr, len] : watchpoints) cpu.add_watchpoint(addr, len);
}

// ---------------------------------------------------------------------------
// Section payload encodings

namespace {

std::vector<std::uint8_t> encode_iss(const IssSnapshot& snap) {
  ByteWriter w;
  for (std::uint32_t reg : snap.regs) w.u32(reg);
  w.u32(snap.pc);
  w.u64(snap.instret);
  w.u64(snap.cycles);
  w.u8(snap.last_halt);
  w.u32(snap.cycle_model.base);
  w.u32(snap.cycle_model.load_store);
  w.u32(snap.cycle_model.branch_taken);
  w.u32(snap.cycle_model.mul);
  w.u32(snap.cycle_model.div);
  w.u32(static_cast<std::uint32_t>(snap.breakpoints.size()));
  for (std::uint32_t addr : snap.breakpoints) w.u32(addr);
  w.u32(static_cast<std::uint32_t>(snap.watchpoints.size()));
  for (const auto& [addr, len] : snap.watchpoints) {
    w.u32(addr);
    w.u32(len);
  }
  w.u64(snap.mem_size);
  w.u32(static_cast<std::uint32_t>(snap.pages.size()));
  for (const auto& [index, bytes] : snap.pages) {
    w.u32(index);
    w.u32(static_cast<std::uint32_t>(bytes.size()));
    w.bytes(bytes);
  }
  return w.take();
}

IssSnapshot decode_iss(std::span<const std::uint8_t> payload) {
  ByteReader r(payload, "ISS section");
  IssSnapshot snap;
  for (std::uint32_t& reg : snap.regs) reg = r.u32();
  snap.pc = r.u32();
  snap.instret = r.u64();
  snap.cycles = r.u64();
  snap.last_halt = r.u8();
  snap.cycle_model.base = r.u32();
  snap.cycle_model.load_store = r.u32();
  snap.cycle_model.branch_taken = r.u32();
  snap.cycle_model.mul = r.u32();
  snap.cycle_model.div = r.u32();
  const std::uint32_t n_bp = r.u32();
  for (std::uint32_t i = 0; i < n_bp; ++i) snap.breakpoints.push_back(r.u32());
  const std::uint32_t n_wp = r.u32();
  for (std::uint32_t i = 0; i < n_wp; ++i) {
    std::uint32_t addr = r.u32();
    std::uint32_t len = r.u32();
    snap.watchpoints.emplace_back(addr, len);
  }
  snap.mem_size = r.u64();
  const std::uint32_t n_pages = r.u32();
  for (std::uint32_t i = 0; i < n_pages; ++i) {
    std::uint32_t index = r.u32();
    std::uint32_t len = r.u32();
    snap.pages.emplace_back(index, r.bytes(len));
  }
  if (!r.done()) throw RuntimeError("checkpoint: trailing bytes in ISS section");
  return snap;
}

std::vector<std::uint8_t> encode_kernel(const sysc::kernel_state& state) {
  ByteWriter w;
  w.u64(state.now_ps);
  w.u64(state.timed_seq);
  w.u64(state.stats.delta_cycles);
  w.u64(state.stats.process_dispatches);
  w.u64(state.stats.channel_updates);
  w.u64(state.stats.timed_advances);
  w.u64(state.stats.extension_checks);
  w.u32(static_cast<std::uint32_t>(state.timed.size()));
  for (const auto& entry : state.timed) {
    w.u64(entry.at_ps);
    w.u64(entry.seq);
    w.u8(entry.is_process ? 1 : 0);
    w.str(entry.name);
    w.u32(entry.ordinal);
  }
  w.u32(static_cast<std::uint32_t>(state.delta_events.size()));
  for (const auto& entry : state.delta_events) {
    w.str(entry.name);
    w.u32(entry.ordinal);
  }
  return w.take();
}

sysc::kernel_state decode_kernel(std::span<const std::uint8_t> payload) {
  ByteReader r(payload, "KRNL section");
  sysc::kernel_state state;
  state.now_ps = r.u64();
  state.timed_seq = r.u64();
  state.stats.delta_cycles = r.u64();
  state.stats.process_dispatches = r.u64();
  state.stats.channel_updates = r.u64();
  state.stats.timed_advances = r.u64();
  state.stats.extension_checks = r.u64();
  const std::uint32_t n_timed = r.u32();
  for (std::uint32_t i = 0; i < n_timed; ++i) {
    sysc::kernel_state::timed_entry entry;
    entry.at_ps = r.u64();
    entry.seq = r.u64();
    entry.is_process = r.u8() != 0;
    entry.name = r.str();
    entry.ordinal = r.u32();
    state.timed.push_back(std::move(entry));
  }
  const std::uint32_t n_delta = r.u32();
  for (std::uint32_t i = 0; i < n_delta; ++i) {
    sysc::kernel_state::delta_entry entry;
    entry.name = r.str();
    entry.ordinal = r.u32();
    state.delta_events.push_back(std::move(entry));
  }
  if (!r.done()) throw RuntimeError("checkpoint: trailing bytes in KRNL section");
  return state;
}

std::vector<std::uint8_t> encode_channel(const ChannelSnapshot& chan) {
  ByteWriter w;
  w.str(chan.label);
  w.u64(chan.tx_seq);
  w.u64(chan.rx_seq);
  w.u64(chan.inflight.size());
  w.bytes(chan.inflight);
  return w.take();
}

ChannelSnapshot decode_channel(std::span<const std::uint8_t> payload) {
  ByteReader r(payload, "CHAN section");
  ChannelSnapshot chan;
  chan.label = r.str();
  chan.tx_seq = r.u64();
  chan.rx_seq = r.u64();
  const std::uint64_t inflight = r.u64();
  chan.inflight = r.bytes(inflight);
  if (!r.done()) throw RuntimeError("checkpoint: trailing bytes in CHAN section");
  return chan;
}

std::vector<std::uint8_t> encode_worker(const WorkerSnapshot& worker) {
  ByteWriter w;
  w.u64(worker.irqs_delivered);
  w.u32(static_cast<std::uint32_t>(worker.pending_irqs.size()));
  for (std::uint32_t irq : worker.pending_irqs) w.u32(irq);
  w.u64(worker.dev_rx.size());
  w.bytes(worker.dev_rx);
  return w.take();
}

WorkerSnapshot decode_worker(std::span<const std::uint8_t> payload) {
  ByteReader r(payload, "WRKR section");
  WorkerSnapshot worker;
  worker.irqs_delivered = r.u64();
  const std::uint32_t n_irqs = r.u32();
  for (std::uint32_t i = 0; i < n_irqs; ++i) worker.pending_irqs.push_back(r.u32());
  const std::uint64_t n_rx = r.u64();
  worker.dev_rx = r.bytes(n_rx);
  if (!r.done()) throw RuntimeError("checkpoint: trailing bytes in WRKR section");
  return worker;
}

void append_section(ByteWriter& w, std::uint32_t tag, const std::vector<std::uint8_t>& payload) {
  w.u32(tag);
  w.u64(payload.size());
  w.bytes(payload);
  w.u32(util::crc32(payload));
}

std::string tag_name(std::uint32_t tag) {
  std::string name(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xFF);
    name[static_cast<std::size_t>(i)] = (c >= 0x20 && c < 0x7F) ? c : '?';
  }
  return name;
}

}  // namespace

// ---------------------------------------------------------------------------
// Container

bool Checkpoint::operator==(const Checkpoint& other) const {
  return iss == other.iss && kernel == other.kernel && channels == other.channels &&
         worker == other.worker && extra == other.extra;
}

std::vector<std::uint8_t> encode_checkpoint(const Checkpoint& checkpoint) {
  obs::ScopedSpan span("ckpt.encode", "ckpt");
  ByteWriter w;
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  if (checkpoint.iss) append_section(w, kSectionIss, encode_iss(*checkpoint.iss));
  if (checkpoint.kernel) append_section(w, kSectionKernel, encode_kernel(*checkpoint.kernel));
  for (const ChannelSnapshot& chan : checkpoint.channels) {
    append_section(w, kSectionChannel, encode_channel(chan));
  }
  if (checkpoint.worker) append_section(w, kSectionWorker, encode_worker(*checkpoint.worker));
  for (const auto& [tag, payload] : checkpoint.extra) append_section(w, tag, payload);
  std::vector<std::uint8_t> out = w.take();
  static obs::Counter& c_encodes = obs::counter("ckpt.encodes");
  c_encodes.add(1);
  static obs::Histogram& h_bytes = obs::histogram("ckpt.bytes", obs::default_bytes_bounds());
  h_bytes.observe(out.size());
  return out;
}

Checkpoint decode_checkpoint(std::span<const std::uint8_t> bytes) {
  obs::ScopedSpan span("ckpt.decode", "ckpt", "bytes", bytes.size());
  ByteReader r(bytes, "header");
  if (r.u32() != kCheckpointMagic) throw RuntimeError("checkpoint: bad magic (not NCKP)");
  const std::uint32_t version = r.u32();
  if (version != kCheckpointVersion) {
    throw RuntimeError("checkpoint: unsupported version " + std::to_string(version) +
                       " (this build reads version " + std::to_string(kCheckpointVersion) + ")");
  }
  Checkpoint out;
  while (!r.done()) {
    const std::uint32_t tag = r.u32();
    const std::uint64_t len = r.u64();
    if (len > r.remaining()) {
      throw RuntimeError("checkpoint truncated in section " + tag_name(tag) + " (payload " +
                         std::to_string(len) + " bytes, have " + std::to_string(r.remaining()) +
                         ")");
    }
    const std::vector<std::uint8_t> payload = r.bytes(len);
    const std::uint32_t crc = r.u32();
    if (crc != util::crc32(payload)) {
      throw RuntimeError("checkpoint: CRC mismatch in section " + tag_name(tag));
    }
    switch (tag) {
      case kSectionIss: out.iss = decode_iss(payload); break;
      case kSectionKernel: out.kernel = decode_kernel(payload); break;
      case kSectionChannel: out.channels.push_back(decode_channel(payload)); break;
      case kSectionWorker: out.worker = decode_worker(payload); break;
      default: out.extra.emplace_back(tag, payload); break;
    }
  }
  static obs::Counter& c_decodes = obs::counter("ckpt.decodes");
  c_decodes.add(1);
  return out;
}

// ---------------------------------------------------------------------------
// Inspection / diff

std::string describe_checkpoint(const Checkpoint& checkpoint) {
  std::ostringstream out;
  out << "checkpoint v" << kCheckpointVersion << "\n";
  if (checkpoint.iss) {
    const IssSnapshot& iss = *checkpoint.iss;
    out << "  ISS : pc=0x" << hex32(iss.pc) << " instret=" << iss.instret
        << " cycles=" << iss.cycles
        << " halt=" << iss::halt_name(static_cast<iss::Halt>(iss.last_halt))
        << " mem=" << iss.mem_size << "B in " << iss.pages.size() << " page(s), "
        << iss.breakpoints.size() << " bp, " << iss.watchpoints.size() << " wp\n";
  }
  if (checkpoint.kernel) {
    const sysc::kernel_state& k = *checkpoint.kernel;
    out << "  KRNL: now=" << k.now_ps << "ps deltas=" << k.stats.delta_cycles << " timed="
        << k.timed.size() << " delta-pending=" << k.delta_events.size() << "\n";
  }
  for (const ChannelSnapshot& chan : checkpoint.channels) {
    out << "  CHAN: " << chan.label << " tx_seq=" << chan.tx_seq << " rx_seq=" << chan.rx_seq
        << " inflight=" << chan.inflight.size() << "B\n";
  }
  if (checkpoint.worker) {
    out << "  WRKR: irqs=" << checkpoint.worker->irqs_delivered << " pending="
        << checkpoint.worker->pending_irqs.size() << " dev_rx=" << checkpoint.worker->dev_rx.size()
        << "B\n";
  }
  for (const auto& [tag, payload] : checkpoint.extra) {
    out << "  " << tag_name(tag) << ": " << payload.size() << "B (unknown section, preserved)\n";
  }
  return out.str();
}

namespace {

void diff_iss(const IssSnapshot& a, const IssSnapshot& b, std::vector<std::string>& out) {
  if (a.pc != b.pc) out.push_back("iss: pc 0x" + hex32(a.pc) + " != 0x" + hex32(b.pc));
  for (std::size_t i = 0; i < 32; ++i) {
    if (a.regs[i] != b.regs[i]) {
      out.push_back("iss: x" + std::to_string(i) + " 0x" + hex32(a.regs[i]) + " != 0x" +
                    hex32(b.regs[i]));
    }
  }
  if (a.instret != b.instret) {
    out.push_back("iss: instret " + std::to_string(a.instret) + " != " + std::to_string(b.instret));
  }
  if (a.cycles != b.cycles) {
    out.push_back("iss: cycles " + std::to_string(a.cycles) + " != " + std::to_string(b.cycles));
  }
  if (a.last_halt != b.last_halt) {
    out.push_back(std::string("iss: halt ") + iss::halt_name(static_cast<iss::Halt>(a.last_halt)) +
                  " != " + iss::halt_name(static_cast<iss::Halt>(b.last_halt)));
  }
  if (a.mem_size != b.mem_size) {
    out.push_back("iss: mem size " + std::to_string(a.mem_size) + " != " +
                  std::to_string(b.mem_size));
    return;
  }
  // Pages are sorted by index on both sides; walk them in lockstep.
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.pages.size() || ib < b.pages.size()) {
    const std::uint32_t pa = ia < a.pages.size() ? a.pages[ia].first : ~0u;
    const std::uint32_t pb = ib < b.pages.size() ? b.pages[ib].first : ~0u;
    if (pa < pb) {
      out.push_back("iss: page " + std::to_string(pa) + " non-zero only in first");
      ++ia;
    } else if (pb < pa) {
      out.push_back("iss: page " + std::to_string(pb) + " non-zero only in second");
      ++ib;
    } else {
      const auto& da = a.pages[ia].second;
      const auto& db = b.pages[ib].second;
      auto mismatch = std::mismatch(da.begin(), da.end(), db.begin(), db.end());
      if (mismatch.first != da.end() || mismatch.second != db.end()) {
        const std::size_t offset = static_cast<std::size_t>(mismatch.first - da.begin());
        out.push_back("iss: page " + std::to_string(pa) + " differs at byte " +
                      std::to_string(offset) + " (addr 0x" +
                      hex32(pa * kCheckpointPageSize + static_cast<std::uint32_t>(offset)) +
                      ")");
      }
      ++ia;
      ++ib;
    }
  }
  if (a.breakpoints != b.breakpoints) out.push_back("iss: breakpoint sets differ");
  if (a.watchpoints != b.watchpoints) out.push_back("iss: watchpoint sets differ");
}

}  // namespace

std::vector<std::string> diff_checkpoints(const Checkpoint& a, const Checkpoint& b,
                                          std::size_t max_lines) {
  std::vector<std::string> out;
  if (a.iss.has_value() != b.iss.has_value()) {
    out.push_back("iss: section present only in one checkpoint");
  } else if (a.iss && !(*a.iss == *b.iss)) {
    diff_iss(*a.iss, *b.iss, out);
  }
  if (a.kernel.has_value() != b.kernel.has_value()) {
    out.push_back("kernel: section present only in one checkpoint");
  } else if (a.kernel && !(*a.kernel == *b.kernel)) {
    const sysc::kernel_state& ka = *a.kernel;
    const sysc::kernel_state& kb = *b.kernel;
    if (ka.now_ps != kb.now_ps) {
      out.push_back("kernel: now " + std::to_string(ka.now_ps) + "ps != " +
                    std::to_string(kb.now_ps) + "ps");
    }
    if (ka.stats.delta_cycles != kb.stats.delta_cycles) {
      out.push_back("kernel: delta count " + std::to_string(ka.stats.delta_cycles) + " != " +
                    std::to_string(kb.stats.delta_cycles));
    }
    if (ka.timed != kb.timed) out.push_back("kernel: timed queues differ");
    if (ka.delta_events != kb.delta_events) out.push_back("kernel: pending delta events differ");
    if (out.empty()) out.push_back("kernel: scheduler counters differ");
  }
  const std::size_t n_chan = std::max(a.channels.size(), b.channels.size());
  for (std::size_t i = 0; i < n_chan; ++i) {
    if (i >= a.channels.size() || i >= b.channels.size()) {
      out.push_back("channel[" + std::to_string(i) + "]: present only in one checkpoint");
      continue;
    }
    const ChannelSnapshot& ca = a.channels[i];
    const ChannelSnapshot& cb = b.channels[i];
    if (ca == cb) continue;
    out.push_back("channel " + ca.label + ": tx " + std::to_string(ca.tx_seq) + "/" +
                  std::to_string(cb.tx_seq) + " rx " + std::to_string(ca.rx_seq) + "/" +
                  std::to_string(cb.rx_seq) + " inflight " + std::to_string(ca.inflight.size()) +
                  "B/" + std::to_string(cb.inflight.size()) + "B");
  }
  if (a.worker != b.worker) out.push_back("worker: session extras differ");
  if (a.extra != b.extra) out.push_back("extra: unknown sections differ");
  if (out.size() > max_lines) {
    const std::size_t dropped = out.size() - max_lines;
    out.resize(max_lines);
    out.push_back("... " + std::to_string(dropped) + " more difference(s)");
  }
  return out;
}

}  // namespace nisc::cosim

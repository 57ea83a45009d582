#include "obs/trace.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace nisc::obs {

namespace detail {
std::atomic<bool> g_tracing_enabled{false};
}  // namespace detail

namespace {

/// One ring slot. Every field is individually atomic so an export taken
/// while the owning thread is still recording reads without data races; a
/// slot overwritten mid-read may mix two events (each field is internally
/// consistent), which the exporter's repair pass tolerates. A null name
/// marks a slot that was never written.
struct Slot {
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> cat{nullptr};
  std::atomic<const char*> arg_name{nullptr};
  std::atomic<std::uint64_t> arg_value{0};
  std::atomic<std::uint64_t> ts_ns{0};
  std::atomic<std::uint64_t> sim_ps{kNoSimTime};
  std::atomic<std::uint64_t> flow_id{0};
  std::atomic<char> phase{'i'};
};

/// Lazily bound eviction counter: the registry is only touched once the
/// first event is actually evicted (keeping the "inert until first touch"
/// overhead guarantee for traced-but-not-overflowing processes).
std::atomic<Counter*> g_dropped_counter{nullptr};

void count_dropped_event() noexcept {
  Counter* c = g_dropped_counter.load(std::memory_order_acquire);
  if (c == nullptr) {
    c = &counter("trace.dropped_events");
    g_dropped_counter.store(c, std::memory_order_release);
  }
  c->add(1);
}

/// One thread's bounded event ring. Owned jointly by the thread (so the hot
/// path is lock-free) and the global registry (so export can read rings of
/// exited threads).
struct ThreadRing {
  explicit ThreadRing(std::size_t capacity, std::uint32_t tid)
      : slots(capacity), tid(tid) {}

  std::vector<Slot> slots;
  std::atomic<std::size_t> next{0};       ///< write cursor
  std::atomic<std::uint64_t> recorded{0}; ///< total events ever recorded
  std::uint32_t tid = 0;

  void push(char phase, const char* name, const char* cat, const char* arg_name,
            std::uint64_t arg_value, std::uint64_t ts_ns, std::uint64_t sim_ps,
            std::uint64_t flow_id) noexcept {
    const std::size_t i = next.load(std::memory_order_relaxed);
    Slot& s = slots[i];
    s.name.store(name, std::memory_order_relaxed);
    s.cat.store(cat, std::memory_order_relaxed);
    s.arg_name.store(arg_name, std::memory_order_relaxed);
    s.arg_value.store(arg_value, std::memory_order_relaxed);
    s.ts_ns.store(ts_ns, std::memory_order_relaxed);
    s.sim_ps.store(sim_ps, std::memory_order_relaxed);
    s.flow_id.store(flow_id, std::memory_order_relaxed);
    s.phase.store(phase, std::memory_order_relaxed);
    next.store((i + 1) % slots.size(), std::memory_order_relaxed);
    const std::uint64_t total = recorded.load(std::memory_order_relaxed) + 1;
    recorded.store(total, std::memory_order_release);
    if (total > slots.size()) count_dropped_event();
  }

  std::uint64_t buffered() const noexcept {
    const std::uint64_t total = recorded.load(std::memory_order_acquire);
    return total < slots.size() ? total : slots.size();
  }

  std::uint64_t dropped() const noexcept {
    const std::uint64_t total = recorded.load(std::memory_order_acquire);
    return total > slots.size() ? total - slots.size() : 0;
  }
};

struct TraceState {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadRing>> rings;
  std::size_t ring_capacity;
  std::uint32_t next_tid = 1;
  std::set<std::string, std::less<>> interned;

  TraceState() {
    ring_capacity = 65536;
    if (const char* env = std::getenv("NISC_TRACE_BUF")) {
      char* end = nullptr;
      unsigned long long v = std::strtoull(env, &end, 10);
      if (end != env && v >= 16) ring_capacity = static_cast<std::size_t>(v);
    }
  }
};

TraceState& state() {
  static TraceState* s = new TraceState();  // never destroyed: rings may outlive main
  return *s;
}

thread_local std::shared_ptr<ThreadRing> t_ring;
thread_local std::uint64_t t_sim_ps = kNoSimTime;

ThreadRing& thread_ring() {
  if (!t_ring) {
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    t_ring = std::make_shared<ThreadRing>(s.ring_capacity, s.next_tid++);
    s.rings.push_back(t_ring);
  }
  return *t_ring;
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void append_escaped(std::ostream& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
}

bool is_flow_phase(char phase) noexcept { return phase == 's' || phase == 't' || phase == 'f'; }

void append_event_json(std::ostream& out, const TraceSnapshot::Event& e, std::uint32_t pid,
                       std::uint32_t tid, std::int64_t offset_ns, bool& first) {
  if (!first) out << ",\n";
  first = false;
  // Rebase onto the merge target's clock; clamp below at zero (an offset
  // larger than the earliest timestamp would go negative, which Perfetto
  // rejects).
  const std::int64_t shifted = static_cast<std::int64_t>(e.ts_ns) + offset_ns;
  const std::uint64_t ts_ns = shifted > 0 ? static_cast<std::uint64_t>(shifted) : 0;
  // Chrome trace ts unit is microseconds; keep ns resolution as a fraction.
  const std::uint64_t us = ts_ns / 1000;
  const std::uint64_t frac = ts_ns % 1000;
  out << "{\"name\":\"";
  append_escaped(out, e.name);
  out << "\",\"cat\":\"";
  append_escaped(out, e.cat);
  out << "\",\"ph\":\"" << e.phase << "\",\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"ts\":" << us << '.';
  out << static_cast<char>('0' + frac / 100) << static_cast<char>('0' + (frac / 10) % 10)
      << static_cast<char>('0' + frac % 10);
  if (e.phase == 'i') out << ",\"s\":\"t\"";
  if (is_flow_phase(e.phase)) {
    out << ",\"id\":\"0x" << std::hex << e.flow_id << std::dec << '"';
    if (e.phase == 'f') out << ",\"bp\":\"e\"";
  }
  const bool has_sim = e.sim_ps != kNoSimTime;
  const bool has_arg = !e.arg_name.empty();
  if (has_sim || has_arg) {
    out << ",\"args\":{";
    if (has_sim) out << "\"sim_ps\":" << e.sim_ps;
    if (has_arg) {
      if (has_sim) out << ',';
      out << '"';
      append_escaped(out, e.arg_name);
      out << "\":" << e.arg_value;
    }
    out << '}';
  }
  out << '}';
}

void append_metadata_json(std::ostream& out, const char* meta, std::uint32_t pid,
                          const std::string& value, bool& first) {
  if (!first) out << ",\n";
  first = false;
  out << "{\"name\":\"" << meta << "\",\"ph\":\"M\",\"pid\":" << pid
      << ",\"tid\":0,\"ts\":0,\"args\":{\"name\":\"";
  append_escaped(out, value);
  out << "\"}}";
}

// -- snapshot format (written with util::ByteWriter) -------------------------

inline constexpr std::uint32_t kSnapshotMagic = 0x4352544Eu;  // "NTRC"
inline constexpr std::uint32_t kSnapshotVersion = 1;

}  // namespace

void enable_tracing(std::size_t ring_capacity) {
  TraceState& s = state();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (ring_capacity >= 16) s.ring_capacity = ring_capacity;
  }
  detail::g_tracing_enabled.store(true, std::memory_order_relaxed);
}

void disable_tracing() noexcept {
  detail::g_tracing_enabled.store(false, std::memory_order_relaxed);
}

void clear_trace() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  // Rings of exited threads (registry holds the only reference) are
  // dropped; the caller's own ring is emptied in place. Rings other live
  // threads are still writing cannot be reset safely and are left alone.
  std::erase_if(s.rings, [](const std::shared_ptr<ThreadRing>& r) { return r.use_count() == 1; });
  if (t_ring) {
    t_ring->next.store(0, std::memory_order_relaxed);
    t_ring->recorded.store(0, std::memory_order_release);
  }
}

void set_thread_sim_time_ps(std::uint64_t ps) noexcept { t_sim_ps = ps; }

std::uint64_t thread_sim_time_ps() noexcept { return t_sim_ps; }

const char* intern(std::string_view s) {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  auto it = st.interned.find(s);
  if (it == st.interned.end()) it = st.interned.emplace(s).first;
  return it->c_str();
}

void emit(char phase, const char* name, const char* category,
          const char* arg_name, std::uint64_t arg_value) noexcept {
  thread_ring().push(phase, name, category, arg_name, arg_value, now_ns(), t_sim_ps, 0);
}

void emit_flow(char phase, const char* name, const char* category,
               std::uint64_t flow_id) noexcept {
  thread_ring().push(phase, name, category, nullptr, 0, now_ns(), t_sim_ps, flow_id);
}

std::size_t trace_event_count() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::size_t n = 0;
  for (const auto& ring : s.rings) n += static_cast<std::size_t>(ring->buffered());
  return n;
}

std::uint64_t trace_dropped_count() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::uint64_t n = 0;
  for (const auto& ring : s.rings) n += ring->dropped();
  return n;
}

TraceSnapshot take_trace_snapshot() {
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    rings = s.rings;
  }
  TraceSnapshot snapshot;
  snapshot.threads.reserve(rings.size());
  for (const auto& ring : rings) {
    TraceSnapshot::Thread thread;
    thread.tid = ring->tid;
    thread.dropped = ring->dropped();
    const std::uint64_t total = ring->recorded.load(std::memory_order_acquire);
    const std::size_t capacity = ring->slots.size();
    const std::size_t n =
        total < capacity ? static_cast<std::size_t>(total) : capacity;
    const std::size_t start =
        total < capacity ? 0 : ring->next.load(std::memory_order_relaxed);
    thread.events.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Slot& s = ring->slots[(start + i) % capacity];
      const char* name = s.name.load(std::memory_order_relaxed);
      const char* cat = s.cat.load(std::memory_order_relaxed);
      if (name == nullptr || cat == nullptr) continue;  // never written
      TraceSnapshot::Event e;
      e.name = name;
      e.cat = cat;
      if (const char* an = s.arg_name.load(std::memory_order_relaxed)) e.arg_name = an;
      e.arg_value = s.arg_value.load(std::memory_order_relaxed);
      e.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
      e.sim_ps = s.sim_ps.load(std::memory_order_relaxed);
      e.flow_id = s.flow_id.load(std::memory_order_relaxed);
      e.phase = s.phase.load(std::memory_order_relaxed);
      thread.events.push_back(std::move(e));
    }
    snapshot.threads.push_back(std::move(thread));
  }
  return snapshot;
}

std::vector<std::uint8_t> encode_trace_snapshot(const TraceSnapshot& snapshot) {
  util::ByteWriter w;
  w.u32(kSnapshotMagic);
  w.u32(kSnapshotVersion);
  w.u32(static_cast<std::uint32_t>(snapshot.threads.size()));
  for (const TraceSnapshot::Thread& thread : snapshot.threads) {
    w.u32(thread.tid);
    w.u64(thread.dropped);
    w.u32(static_cast<std::uint32_t>(thread.events.size()));
    for (const TraceSnapshot::Event& e : thread.events) {
      w.u8(static_cast<std::uint8_t>(e.phase));
      w.u64(e.ts_ns);
      w.u64(e.sim_ps);
      w.u64(e.arg_value);
      w.u64(e.flow_id);
      w.str32(e.name);
      w.str32(e.cat);
      w.str32(e.arg_name);
    }
  }
  return w.take();
}

TraceSnapshot decode_trace_snapshot(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes, "trace snapshot");
  if (r.u32() != kSnapshotMagic) throw util::RuntimeError("trace snapshot: bad magic");
  const std::uint32_t version = r.u32();
  if (version != kSnapshotVersion) {
    throw util::RuntimeError("trace snapshot: unsupported version " + std::to_string(version));
  }
  TraceSnapshot snapshot;
  const std::uint32_t threads = r.u32();
  snapshot.threads.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    TraceSnapshot::Thread thread;
    thread.tid = r.u32();
    thread.dropped = r.u64();
    const std::uint32_t events = r.u32();
    thread.events.reserve(events);
    for (std::uint32_t i = 0; i < events; ++i) {
      TraceSnapshot::Event e;
      e.phase = static_cast<char>(r.u8());
      e.ts_ns = r.u64();
      e.sim_ps = r.u64();
      e.arg_value = r.u64();
      e.flow_id = r.u64();
      e.name = r.str32();
      e.cat = r.str32();
      e.arg_name = r.str32();
      thread.events.push_back(std::move(e));
    }
    snapshot.threads.push_back(std::move(thread));
  }
  return snapshot;
}

std::string chrome_trace_json(std::span<const ProcessTrace> processes) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  for (const ProcessTrace& process : processes) {
    if (!process.label.empty()) {
      append_metadata_json(out, "process_name", process.pid, process.label, first);
    }
    for (const TraceSnapshot::Thread& thread : process.snapshot.threads) {
      const std::vector<TraceSnapshot::Event>& events = thread.events;
      // Repair pairs broken by ring eviction: drop 'E' events whose 'B' was
      // evicted; close dangling 'B' events at the last seen timestamp.
      std::vector<std::size_t> stack;
      std::vector<bool> keep(events.size(), true);
      std::uint64_t last_ts = 0;
      for (std::size_t i = 0; i < events.size(); ++i) {
        last_ts = std::max(last_ts, events[i].ts_ns);
        if (events[i].phase == 'B') {
          stack.push_back(i);
        } else if (events[i].phase == 'E') {
          if (stack.empty()) {
            keep[i] = false;  // begin evicted
          } else {
            stack.pop_back();
          }
        }
      }
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (keep[i]) {
          append_event_json(out, events[i], process.pid, thread.tid, process.clock_offset_ns,
                            first);
        }
      }
      // Dangling begins: synthesize ends, innermost first.
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        TraceSnapshot::Event closer = events[*it];
        closer.phase = 'E';
        closer.ts_ns = last_ts;
        closer.arg_name.clear();
        append_event_json(out, closer, process.pid, thread.tid, process.clock_offset_ns, first);
      }
    }
  }
  out << "\n]}\n";
  return out.str();
}

std::string chrome_trace_json() {
  ProcessTrace self;
  self.pid = 1;
  self.snapshot = take_trace_snapshot();
  return chrome_trace_json({&self, 1});
}

bool write_chrome_trace(const std::string& path, std::span<const ProcessTrace> processes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << chrome_trace_json(processes);
  return static_cast<bool>(out);
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << chrome_trace_json();
  return static_cast<bool>(out);
}

}  // namespace nisc::obs

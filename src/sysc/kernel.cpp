#include "sysc/kernel.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sysc/iss_port.hpp"
#include "util/log.hpp"

// Fiber annotations for the sanitizers, selected by either compiler's macros:
// NISC_ASAN(...) and NISC_TSAN(...) expand to their arguments only under
// AddressSanitizer and ThreadSanitizer.
#if defined(__has_feature)
#define NISC_HAS_FEATURE(x) __has_feature(x)
#else
#define NISC_HAS_FEATURE(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || NISC_HAS_FEATURE(address_sanitizer)
#include <sanitizer/common_interface_defs.h>
#define NISC_ASAN(...) __VA_ARGS__
#else
#define NISC_ASAN(...)
#endif
#if defined(__SANITIZE_THREAD__) || NISC_HAS_FEATURE(thread_sanitizer)
#include <sanitizer/tsan_interface.h>
#define NISC_TSAN(...) __VA_ARGS__
#else
#define NISC_TSAN(...)
#endif

namespace nisc::sysc {

namespace {
thread_local sc_simcontext* g_current_context = nullptr;
thread_local sc_process* g_current_process = nullptr;

/// Log sim-time hook (util cannot depend on sysc, so the kernel injects the
/// provider): reports the innermost live context's time on this thread.
bool log_sim_time_provider(std::uint64_t* sim_ps) {
  if (g_current_context == nullptr) return false;
  *sim_ps = g_current_context->time_stamp().ps();
  return true;
}

/// Publishes `now` as the calling thread's simulated time for trace spans
/// and restores the previous value on scope exit (nested contexts).
class SimTimeScope {
 public:
  explicit SimTimeScope(std::uint64_t ps) : previous_(obs::thread_sim_time_ps()) {
    obs::set_thread_sim_time_ps(ps);
  }
  ~SimTimeScope() { obs::set_thread_sim_time_ps(previous_); }

 private:
  std::uint64_t previous_;
};

}  // namespace

sc_simcontext& current_context() {
  util::require(g_current_context != nullptr, "no simulation context is current on this thread");
  return *g_current_context;
}

sc_process* current_process() noexcept { return g_current_process; }

// ---------------------------------------------------------------------------
// sc_object

sc_object::sc_object(std::string name) : ctx_(&current_context()) {
  name_ = ctx_->unique_name(name);
  ctx_->add_object(this);
}

sc_object::~sc_object() { ctx_->remove_object(this); }

// ---------------------------------------------------------------------------
// sc_event

sc_event::sc_event(std::string name) : name_(std::move(name)), ctx_(&current_context()) {
  ctx_->add_event(this);
}

sc_event::~sc_event() {
  ctx_->cancel_event(this);
  ctx_->remove_event(this);
}

void sc_event::notify() { fire(); }

void sc_event::notify_delta() { ctx_->schedule_event_delta(this); }

void sc_event::notify(const sc_time& delay) {
  ctx_->schedule_event_timed(this, ctx_->time_stamp() + delay);
}

void sc_event::add_static(sc_process* process) {
  if (std::find(static_sensitive_.begin(), static_sensitive_.end(), process) ==
      static_sensitive_.end()) {
    static_sensitive_.push_back(process);
    process->note_static_sensitized();
  }
}

void sc_event::add_dynamic(sc_process* process) { dynamic_waiters_.push_back(process); }

void sc_event::remove_dynamic(sc_process* process) noexcept {
  std::erase(dynamic_waiters_, process);
}

void sc_event::fire() {
  for (sc_process* p : static_sensitive_) {
    if (p->triggerable_by(this)) ctx_->make_runnable(p);
  }
  // make_runnable only appends to the kernel's worklist, so the waiters can
  // be walked in place; clear() keeps their capacity for the next wait.
  for (sc_process* p : dynamic_waiters_) ctx_->make_runnable(p);
  dynamic_waiters_.clear();
}

// ---------------------------------------------------------------------------
// sc_process

namespace {

/// Makes a process current for one scope, then restores the dispatcher's
/// (the kernel's nullptr, or the outer thread of a nested context).
struct CurrentProcess {
  explicit CurrentProcess(sc_process* p) noexcept : previous(std::exchange(g_current_process, p)) {}
  ~CurrentProcess() { g_current_process = previous; }
  sc_process* previous;
};

}  // namespace

/// A thread's stack, below a PROT_NONE guard page, and the contexts a switch
/// saves. Every switch is announced to ASan (the stack in use) and to TSan
/// (one fiber per coroutine).
struct sc_process::Coroutine {
  static constexpr std::size_t kStackBytes = 256 * 1024;
  const std::size_t guard = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  char* stack = nullptr;  ///< lowest usable byte, just above the guard page
  ucontext_t self{};
  ucontext_t caller{};
  bool finished = false;
  void* fake_stack = nullptr;           ///< ASan: the body's frames while it is suspended
  const void* caller_bottom = nullptr;  ///< ASan: the stack that resumed the body
  std::size_t caller_size = 0;
  void* fiber = nullptr;  ///< TSan
  void* caller_fiber = nullptr;

  Coroutine() {
    void* map = ::mmap(nullptr, guard + kStackBytes, PROT_NONE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (map == MAP_FAILED) throw util::RuntimeError("sc_process: cannot map a thread stack");
    stack = static_cast<char*>(map) + guard;
    if (::mprotect(stack, kStackBytes, PROT_READ | PROT_WRITE) != 0) {
      ::munmap(map, guard + kStackBytes);
      throw util::RuntimeError("sc_process: cannot map a thread stack");
    }
    ::getcontext(&self);
    self.uc_stack.ss_sp = stack;
    self.uc_stack.ss_size = kStackBytes;
    ::makecontext(&self, &sc_process::coroutine_main, 0);
    NISC_TSAN(fiber = __tsan_create_fiber(0));
  }

  ~Coroutine() {
    NISC_TSAN(__tsan_destroy_fiber(fiber));
    ::munmap(stack - guard, guard + kStackBytes);
  }

  /// Kernel side: runs the body until it switches out.
  void switch_in() {
    NISC_ASAN(void* caller_fake_stack = nullptr);
    NISC_ASAN(__sanitizer_start_switch_fiber(&caller_fake_stack, stack, kStackBytes));
    NISC_TSAN(caller_fiber = __tsan_get_current_fiber());
    NISC_TSAN(__tsan_switch_to_fiber(fiber, 0));
    ::swapcontext(&caller, &self);
    NISC_ASAN(__sanitizer_finish_switch_fiber(caller_fake_stack, nullptr, nullptr));
  }

  /// Body side: the first thing after every switch in.
  void entered() {
    NISC_ASAN(__sanitizer_finish_switch_fiber(fake_stack, &caller_bottom, &caller_size));
  }

  /// Body side: back to the switch_in() that resumed it. A finished body is
  /// never resumed, so its last switch drops ASan's record of its frames.
  void switch_out(bool done) {
    finished = done;
    NISC_ASAN(__sanitizer_start_switch_fiber(done ? nullptr : &fake_stack, caller_bottom,
                                             caller_size));
    NISC_TSAN(__tsan_switch_to_fiber(caller_fiber, 0));
    ::swapcontext(&self, &caller);
    entered();
  }
};

sc_process::sc_process(std::string name, process_kind kind, std::function<void()> body)
    : sc_object(std::move(name)), kind_(kind), body_(std::move(body)) {
  util::require(static_cast<bool>(body_), "sc_process: empty body");
}

sc_process::~sc_process() { kill(); }

void sc_process::make_sensitive(sc_event& event) { event.add_static(this); }

const char* sc_process::trace_name() const {
  if (trace_name_ == nullptr) trace_name_ = obs::intern(name());
  return trace_name_;
}

bool sc_process::triggerable_by(const sc_event* event) const noexcept {
  (void)event;
  if (terminated_) return false;
  if (kind_ != process_kind::Thread) return true;
  // Threads honour their current wait mode: a thread blocked in wait(event)
  // or wait(time) ignores static sensitivity.
  if (!coroutine_) return true;  // has not reached its first wait yet
  return wait_mode_ == WaitMode::Static;
}

void sc_process::execute() {
  if (terminated_) return;
  ++run_count_;
  const CurrentProcess current(this);
  if (kind_ != process_kind::Thread) {
    body_();
    return;
  }
  resume();
  if (pending_exception_) std::rethrow_exception(std::exchange(pending_exception_, nullptr));
}

void sc_process::coroutine_main() {
  sc_process* self = g_current_process;  // set by the execute() that started us
  self->coroutine_->entered();
  try {
    self->body_();
  } catch (KillException&) {
    // normal termination path during kill()
  } catch (...) {
    self->pending_exception_ = std::current_exception();
  }
  self->terminated_ = true;
  self->coroutine_->switch_out(/*done=*/true);
}

void sc_process::resume() {
  if (!coroutine_) coroutine_ = std::make_unique<Coroutine>();
  coroutine_->switch_in();
  if (coroutine_->finished) coroutine_.reset();
}

void sc_process::yield_to_kernel() {
  coroutine_->switch_out(/*done=*/false);
  if (kill_requested_) throw KillException{};
}

void sc_process::kill() noexcept {
  if (coroutine_) {
    // Unwind the suspended body on its own stack: its wait() throws
    // KillException, so the destructors of its locals run.
    kill_requested_ = true;
    const CurrentProcess current(this);
    while (coroutine_) resume();
  }
  terminated_ = true;
  pending_exception_ = nullptr;
}

void sc_process::wait_static() {
  util::require(g_current_process == this && kind_ == process_kind::Thread,
                "wait() outside thread process");
  wait_mode_ = WaitMode::Static;
  yield_to_kernel();
}

void sc_process::wait_event(sc_event& event) {
  util::require(g_current_process == this && kind_ == process_kind::Thread,
                "wait(event) outside thread process");
  wait_mode_ = WaitMode::Event;
  dynamic_event_ = &event;
  event.add_dynamic(this);
  yield_to_kernel();
  dynamic_event_ = nullptr;
  wait_mode_ = WaitMode::Static;
}

void sc_process::wait_time(const sc_time& delay) {
  util::require(g_current_process == this && kind_ == process_kind::Thread,
                "wait(time) outside thread process");
  wait_mode_ = WaitMode::Timed;
  context().schedule_process_timed(this, context().time_stamp() + delay);
  yield_to_kernel();
  wait_mode_ = WaitMode::Static;
}

// ---------------------------------------------------------------------------
// sc_prim_channel

void sc_prim_channel::request_update() {
  if (update_requested_) return;
  update_requested_ = true;
  context().request_update(this);
}

// ---------------------------------------------------------------------------
// sc_simcontext

sc_simcontext::sc_simcontext() : previous_current_(g_current_context) {
  g_current_context = this;
  util::set_log_sim_time_provider(&log_sim_time_provider);
}

sc_simcontext::~sc_simcontext() {
  for (const auto& process : processes_) process->kill();
  // Owned objects are destroyed in reverse creation order, after every
  // process is dead, so thread unwinding can never observe destroyed state.
  while (!owned_objects_.empty()) owned_objects_.pop_back();
  processes_.clear();
  g_current_context = previous_current_;
}

sc_simcontext::ContextGuard::ContextGuard(sc_simcontext& ctx) : previous_(g_current_context) {
  g_current_context = &ctx;
}

sc_simcontext::ContextGuard::~ContextGuard() { g_current_context = previous_; }

sc_process& sc_simcontext::create_method(std::string name, std::function<void()> body,
                                         process_kind kind) {
  util::require(kind != process_kind::Thread, "create_method: use create_thread for threads");
  ContextGuard guard(*this);
  processes_.push_back(std::make_unique<sc_process>(std::move(name), kind, std::move(body)));
  return *processes_.back();
}

sc_process& sc_simcontext::create_thread(std::string name, std::function<void()> body) {
  ContextGuard guard(*this);
  processes_.push_back(
      std::make_unique<sc_process>(std::move(name), process_kind::Thread, std::move(body)));
  return *processes_.back();
}

void sc_simcontext::register_extension(kernel_extension* extension) {
  util::require(extension != nullptr, "register_extension: null");
  extensions_.push_back(extension);
}

void sc_simcontext::unregister_extension(kernel_extension* extension) noexcept {
  std::erase(extensions_, extension);
}

void sc_simcontext::register_iss_port(iss_port_base* port, std::string_view requested) {
  util::require(port != nullptr, "register_iss_port: null");
  if (port->name() != requested) {
    throw util::LogicError("iss port name " + std::string(requested) + " is already taken");
  }
  iss_ports_.push_back(port);
}

iss_port_base* sc_simcontext::find_iss_port(std::string_view name) const noexcept {
  for (iss_port_base* port : iss_ports_) {
    if (port->name() == name) return port;
  }
  return nullptr;
}

void sc_simcontext::elaborate() {
  if (elaborated_) return;
  elaborated_ = true;
  ContextGuard guard(*this);
  std::vector<sc_object*> snapshot = objects_;
  for (sc_object* obj : snapshot) obj->on_elaboration();
  for (kernel_extension* ext : extensions_) ext->on_elaboration(*this);
}

void sc_simcontext::initialize_processes() {
  for (const auto& process : processes_) {
    if (process->initialize()) make_runnable(process.get());
  }
}

void sc_simcontext::run_one_delta() {
  const std::uint64_t delta_id = stats_.delta_cycles;
  // One enabled check per delta, reused for every emit in this function: a
  // delta here can be tens of nanoseconds, so the disabled path must stay a
  // single relaxed load. Raw B/E instead of ScopedSpan keeps the off case
  // branch-only; if a process throws, export-time repair closes the span.
  const bool tracing = obs::tracing_enabled();
  if (tracing) obs::emit('B', "kernel.delta", "kernel", "delta", delta_id);
  for (kernel_extension* ext : extensions_) {
    ext->on_cycle_begin(*this);
    ++stats_.extension_checks;
  }
  // Evaluate phase. Immediate notifications may append to the worklist.
  std::size_t i = 0;
  try {
    while (i < runnable_.size()) {
      sc_process* p = runnable_[i++];
      p->runnable_flag = false;
      if (tracing && p->kind() == process_kind::IssMethod) {
        // The paper's iss_process: dispatched only when data crosses the ISS
        // boundary, so each activation is worth a span of its own.
        obs::ScopedSpan span(p->trace_name(), "kernel.iss_process");
        p->execute();
      } else {
        p->execute();
      }
      ++stats_.process_dispatches;
    }
  } catch (...) {
    // Keep the kernel usable: the processes already dispatched, the thrower
    // included, leave the worklist, so the next run() goes on after them.
    runnable_.erase(runnable_.begin(), runnable_.begin() + static_cast<std::ptrdiff_t>(i));
    throw;
  }
  runnable_.clear();
  // Update phase.
  for (sc_prim_channel* ch : update_queue_) {
    ch->update_requested_ = false;
    ch->update();
    ++stats_.channel_updates;
  }
  update_queue_.clear();
  // Delta-notification phase.
  ++stats_.delta_cycles;
  for (sc_event* e : delta_events_) e->fire();  // fire() schedules nothing
  delta_events_.clear();
  for (kernel_extension* ext : extensions_) ext->on_cycle_end(*this);
  if (monitor_ != nullptr) monitor_->on_delta_end(*this, delta_id);
  if (tracing) obs::emit('E', "kernel.delta", "kernel");
}

bool sc_simcontext::advance_time(const sc_time& limit) {
  if (timed_queue_.empty()) return false;
  const sc_time next = sc_time::from_ps(timed_queue_.front().ps);
  if (next > limit) {
    now_ = limit;
    return false;
  }
  now_ = next;
  ++stats_.timed_advances;
  if (obs::tracing_enabled()) {
    // Publishing the simulated time only matters while events are being
    // recorded; skipping the thread-local store keeps the disabled
    // advance path free of observability work.
    obs::set_thread_sim_time_ps(now_.ps());
    obs::instant("kernel.time_advance", "kernel", "sim_ps", now_.ps());
  }
  while (!timed_queue_.empty() && timed_queue_.front().ps == next.ps()) {
    std::pop_heap(timed_queue_.begin(), timed_queue_.end(), fires_later);
    const TimedEntry entry = timed_queue_.back();
    timed_queue_.pop_back();
    if (entry.event != nullptr) {
      entry.event->fire();
    } else if (entry.process != nullptr) {
      make_runnable(entry.process);
    }
  }
  for (kernel_extension* ext : extensions_) ext->on_time_advance(*this, now_);
  return true;
}

bool sc_simcontext::has_pending_activity() const noexcept {
  return !runnable_.empty() || !update_queue_.empty() || !delta_events_.empty();
}

sc_time sc_simcontext::run(sc_time duration) {
  return run_until(now_ + duration);
}

sc_time sc_simcontext::run_to_starvation() { return run_until(sc_time::max()); }

sc_time sc_simcontext::run_until(sc_time end) {
  ContextGuard guard(*this);
  SimTimeScope sim_time(now_.ps());
  obs::ScopedSpan run_span("kernel.run", "kernel");
  const kernel_stats entry_stats = stats_;
  elaborate();
  if (!initialized_) {
    initialized_ = true;
    initialize_processes();
  }
  stop_requested_ = false;
  for (;;) {
    run_one_delta();
    if (stop_requested_) break;
    if (has_pending_activity()) continue;
    if (now_ >= end) break;
    if (advance_time(end)) continue;
    // Starvation before the window end: nothing is left to run.
    if (now_ < end) obs::instant("kernel.starvation", "kernel");
    break;
  }
  for (kernel_extension* ext : extensions_) ext->on_run_end(*this);
  // Scheduler counters are pushed once per run() — per-delta paths stay a
  // plain struct increment, so tracing/metrics cannot slow the hot loop.
  static obs::Counter& c_deltas = obs::counter("kernel.delta_cycles");
  static obs::Counter& c_dispatches = obs::counter("kernel.process_dispatches");
  static obs::Counter& c_updates = obs::counter("kernel.channel_updates");
  static obs::Counter& c_advances = obs::counter("kernel.timed_advances");
  static obs::Counter& c_runs = obs::counter("kernel.runs");
  c_deltas.add(stats_.delta_cycles - entry_stats.delta_cycles);
  c_dispatches.add(stats_.process_dispatches - entry_stats.process_dispatches);
  c_updates.add(stats_.channel_updates - entry_stats.channel_updates);
  c_advances.add(stats_.timed_advances - entry_stats.timed_advances);
  c_runs.add(1);
  return now_;
}

void sc_simcontext::make_runnable(sc_process* process) {
  if (process == nullptr || process->terminated() || process->runnable_flag) return;
  process->runnable_flag = true;
  runnable_.push_back(process);
}

void sc_simcontext::request_update(sc_prim_channel* channel) { update_queue_.push_back(channel); }

void sc_simcontext::schedule_event_delta(sc_event* event) {
  if (std::find(delta_events_.begin(), delta_events_.end(), event) == delta_events_.end()) {
    delta_events_.push_back(event);
  }
}

void sc_simcontext::push_timed(const TimedEntry& entry) {
  timed_queue_.push_back(entry);
  std::push_heap(timed_queue_.begin(), timed_queue_.end(), fires_later);
}

void sc_simcontext::schedule_event_timed(sc_event* event, sc_time at) {
  util::require(at >= now_, "schedule_event_timed: time in the past");
  push_timed({at.ps(), timed_seq_++, event, nullptr});
}

void sc_simcontext::schedule_process_timed(sc_process* process, sc_time at) {
  util::require(at >= now_, "schedule_process_timed: time in the past");
  push_timed({at.ps(), timed_seq_++, nullptr, process});
}

void sc_simcontext::cancel_event(sc_event* event) noexcept {
  std::erase(delta_events_, event);
  if (std::erase_if(timed_queue_, [event](const TimedEntry& e) { return e.event == event; }) != 0) {
    std::make_heap(timed_queue_.begin(), timed_queue_.end(), fires_later);
  }
}

void sc_simcontext::add_object(sc_object* object) {
  objects_.push_back(object);
  objects_by_name_.emplace(object->name(), object);
}

void sc_simcontext::remove_object(sc_object* object) noexcept {
  std::erase(objects_, object);
  auto it = objects_by_name_.find(object->name());
  if (it != objects_by_name_.end() && it->second == object) objects_by_name_.erase(it);
  std::erase_if(iss_ports_, [object](iss_port_base* p) {
    return static_cast<sc_object*>(p) == object;
  });
}

void sc_simcontext::add_event(sc_event* event) { events_.push_back(event); }

void sc_simcontext::remove_event(sc_event* event) noexcept { std::erase(events_, event); }

sc_event* sc_simcontext::find_event(std::string_view name, std::uint32_t ordinal) const noexcept {
  std::uint32_t seen = 0;
  for (sc_event* event : events_) {
    if (event->name() != name) continue;
    if (seen == ordinal) return event;
    ++seen;
  }
  return nullptr;
}

namespace {

/// Ordinal of `event` among same-named events in registration order.
std::uint32_t event_ordinal(const std::vector<sc_event*>& events, const sc_event* event) noexcept {
  std::uint32_t ordinal = 0;
  for (sc_event* candidate : events) {
    if (candidate == event) return ordinal;
    if (candidate->name() == event->name()) ++ordinal;
  }
  return ordinal;
}

}  // namespace

kernel_state sc_simcontext::save_state() const {
  util::require(runnable_.empty() && update_queue_.empty(),
                "save_state: kernel is mid-delta (runnable processes or pending updates)");
  kernel_state state;
  state.now_ps = now_.ps();
  state.timed_seq = timed_seq_;
  state.stats = stats_;
  // The snapshot lists the pending entries in firing order.
  std::vector<TimedEntry> pending = timed_queue_;
  std::sort(pending.begin(), pending.end(),
            [](const TimedEntry& a, const TimedEntry& b) { return fires_later(b, a); });
  state.timed.reserve(pending.size());
  for (const TimedEntry& entry : pending) {
    kernel_state::timed_entry out;
    out.at_ps = entry.ps;
    out.seq = entry.seq;
    if (entry.process != nullptr) {
      out.is_process = true;
      out.name = entry.process->name();
    } else if (entry.event != nullptr) {
      out.name = entry.event->name();
      out.ordinal = event_ordinal(events_, entry.event);
    }
    state.timed.push_back(std::move(out));
  }
  state.delta_events.reserve(delta_events_.size());
  for (const sc_event* event : delta_events_) {
    state.delta_events.push_back({event->name(), event_ordinal(events_, event)});
  }
  return state;
}

void sc_simcontext::restore_state(const kernel_state& state) {
  util::require(runnable_.empty() && update_queue_.empty(),
                "restore_state: kernel is mid-delta");
  elaborate();
  // The snapshotted run already executed the initialization phase; running
  // it again would double-dispatch every initializable process.
  initialized_ = true;
  timed_queue_.clear();
  delta_events_.clear();
  now_ = sc_time::from_ps(state.now_ps);
  timed_seq_ = state.timed_seq;
  stats_ = state.stats;
  for (const kernel_state::timed_entry& entry : state.timed) {
    TimedEntry resolved{entry.at_ps, entry.seq};
    if (entry.is_process) {
      sc_object* object = find_object(entry.name);
      resolved.process = dynamic_cast<sc_process*>(object);
      if (resolved.process == nullptr) {
        throw util::RuntimeError("restore_state: unresolved process '" + entry.name + "'");
      }
    } else {
      resolved.event = find_event(entry.name, entry.ordinal);
      if (resolved.event == nullptr) {
        throw util::RuntimeError("restore_state: unresolved event '" + entry.name + "' ordinal " +
                                 std::to_string(entry.ordinal));
      }
    }
    push_timed(resolved);
  }
  for (const kernel_state::delta_entry& entry : state.delta_events) {
    sc_event* event = find_event(entry.name, entry.ordinal);
    if (event == nullptr) {
      throw util::RuntimeError("restore_state: unresolved delta event '" + entry.name + "'");
    }
    delta_events_.push_back(event);
  }
}

std::string sc_simcontext::unique_name(const std::string& base) {
  if (objects_by_name_.find(base) == objects_by_name_.end() &&
      name_counters_.find(base) == name_counters_.end()) {
    name_counters_[base] = 0;
    return base;
  }
  int& counter = name_counters_[base];
  for (;;) {
    ++counter;
    std::ostringstream candidate;
    candidate << base << "_" << counter;
    if (objects_by_name_.find(candidate.str()) == objects_by_name_.end()) return candidate.str();
  }
}

sc_object* sc_simcontext::find_object(std::string_view name) const noexcept {
  auto it = objects_by_name_.find(name);
  return it == objects_by_name_.end() ? nullptr : it->second;
}

std::vector<sc_process*> sc_simcontext::process_list() const {
  std::vector<sc_process*> out;
  out.reserve(processes_.size());
  for (const auto& process : processes_) out.push_back(process.get());
  return out;
}

// ---------------------------------------------------------------------------
// free wait functions

namespace {
sc_process& waiting_process() {
  sc_process* p = g_current_process;
  util::require(p != nullptr, "wait() called outside a process");
  util::require(p->is_thread(), "wait() called from a method process");
  return *p;
}
}  // namespace

void wait() { waiting_process().wait_static(); }
void wait(sc_event& event) { waiting_process().wait_event(event); }
void wait(const sc_time& delay) { waiting_process().wait_time(delay); }

}  // namespace nisc::sysc

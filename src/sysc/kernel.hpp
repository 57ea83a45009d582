// The niscosim SystemC-like simulation kernel.
//
// A from-scratch discrete-event kernel following SystemC 2.0 semantics
// (evaluate -> update -> delta-notify -> timed-notify), extended with the
// hooks the paper's two co-simulation schemes patch into the OSCI kernel:
//
//  * kernel_extension::on_cycle_begin  -- the "GDB stopped at breakpoint?" /
//    "message to exchange?" check at the start of every simulation cycle
//    (paper Figs. 3 and 5);
//  * kernel_extension::on_cycle_end    -- the "interrupt generated?" check
//    after event handling (paper Fig. 5);
//  * kernel_extension::on_time_advance -- where the schemes pay the ISS for
//    elapsed simulated time; a design that starves ends its run;
//  * an iss-port registry where extensions find iss_in / iss_out ports by
//    name (paper §3.1, §4.2).
//
// Unlike OSCI SystemC there is no global simulation context: each
// sc_simcontext is an independent kernel instance (a thread-local "current"
// pointer exists only to serve object constructors), so tests can run many
// simulations per process.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sysc/sc_time.hpp"
#include "util/error.hpp"

namespace nisc::sysc {

class sc_simcontext;
class sc_event;
class sc_process;
class iss_port_base;

/// Returns the innermost live simulation context on this thread.
/// Throws LogicError when no context exists.
sc_simcontext& current_context();

/// Base of every named simulation object (modules, channels, ports,
/// processes). Registers with the current context on construction.
class sc_object {
 public:
  explicit sc_object(std::string name);
  virtual ~sc_object();

  sc_object(const sc_object&) = delete;
  sc_object& operator=(const sc_object&) = delete;

  /// Unique (context-wide) object name.
  const std::string& name() const noexcept { return name_; }

  /// The kernel instance this object belongs to.
  sc_simcontext& context() const noexcept { return *ctx_; }

  /// Called once by the kernel before the first delta cycle; used by ports
  /// to verify binding. Throws on elaboration errors.
  virtual void on_elaboration() {}

 private:
  std::string name_;
  sc_simcontext* ctx_;
};

/// A notifiable synchronization point (SystemC sc_event). Supports
/// immediate, delta and timed notification.
class sc_event {
 public:
  explicit sc_event(std::string name = "event");
  ~sc_event();

  sc_event(const sc_event&) = delete;
  sc_event& operator=(const sc_event&) = delete;

  const std::string& name() const noexcept { return name_; }

  /// Immediate notification: sensitive processes become runnable in the
  /// *current* evaluate phase.
  void notify();
  /// Delta notification: sensitive processes run in the next delta cycle.
  void notify_delta();
  /// Timed notification after `delay`.
  void notify(const sc_time& delay);

  /// Static sensitivity registration (used by `sensitive <<`).
  void add_static(sc_process* process);
  /// Dynamic registration for a thread blocked in wait(event).
  void add_dynamic(sc_process* process);
  void remove_dynamic(sc_process* process) noexcept;

  /// Kernel-internal: triggers all sensitive processes.
  void fire();

 private:
  std::string name_;
  sc_simcontext* ctx_;
  std::vector<sc_process*> static_sensitive_;
  std::vector<sc_process*> dynamic_waiters_;
};

/// Process flavors. IssMethod is the paper's `iss_process`: scheduled only
/// when data actually crosses the ISS boundary (§3.1).
enum class process_kind : std::uint8_t { Method, Thread, IssMethod };

/// A simulation process: either a run-to-completion method or a cooperative
/// thread, a stackful coroutine on the kernel's host thread (as OSCI SystemC
/// 2.0.1 ran them on QuickThreads), so exactly one of kernel/process runs at
/// any instant.
class sc_process : public sc_object {
 public:
  sc_process(std::string name, process_kind kind, std::function<void()> body);
  ~sc_process() override;

  process_kind kind() const noexcept { return kind_; }
  bool is_thread() const noexcept { return kind_ == process_kind::Thread; }
  bool terminated() const noexcept { return terminated_; }

  /// Number of times the process has been dispatched by the scheduler.
  std::uint64_t run_count() const noexcept { return run_count_; }

  /// Excludes the process from the initialization phase.
  void dont_initialize() noexcept { dont_initialize_ = true; }
  bool initialize() const noexcept { return !dont_initialize_; }

  /// Adds `event` to the static sensitivity list.
  void make_sensitive(sc_event& event);

  // -- scheduler interface ------------------------------------------------

  /// Runs the process once (method: full call; thread: until next wait()).
  void execute();

  /// True when a notification of `event` should make this process runnable
  /// (method: always; thread: depends on its current wait mode).
  bool triggerable_by(const sc_event* event) const noexcept;

  /// Kernel-internal flag avoiding duplicate entries in the runnable queue.
  bool runnable_flag = false;

  /// Number of events in this process's static sensitivity list (maintained
  /// by sc_event::add_static; exposed for the elaboration analysis passes).
  std::size_t static_sensitivity_count() const noexcept { return static_sensitivity_count_; }
  void note_static_sensitized() noexcept { ++static_sensitivity_count_; }

  /// Terminates a thread process by unwinding it with a kill exception.
  void kill() noexcept;

  /// Process name as a stable interned C string, for trace-event emission
  /// (span records store the pointer, not a copy). Interns lazily.
  const char* trace_name() const;

  // -- thread-side interface (valid only inside this process's body) ------

  void wait_static();
  void wait_event(sc_event& event);
  void wait_time(const sc_time& delay);

 private:
  enum class WaitMode : std::uint8_t { Static, Event, Timed };

  struct KillException {};
  struct Coroutine;  // the thread's stack and saved contexts (kernel.cpp)

  static void coroutine_main();
  void resume();
  void yield_to_kernel();

  process_kind kind_;
  std::function<void()> body_;
  bool dont_initialize_ = false;
  bool terminated_ = false;
  std::uint64_t run_count_ = 0;
  std::size_t static_sensitivity_count_ = 0;

  WaitMode wait_mode_ = WaitMode::Static;
  sc_event* dynamic_event_ = nullptr;
  mutable const char* trace_name_ = nullptr;

  // thread machinery
  std::unique_ptr<Coroutine> coroutine_;  ///< live from first dispatch until the body ends
  bool kill_requested_ = false;
  std::exception_ptr pending_exception_;
};

/// Observer interface for channel-access instrumentation. The delta-cycle
/// race detector (src/analysis/race.hpp) implements it; the kernel and the
/// primitive channels invoke it only when a monitor is installed, so the
/// disabled-path cost is a single pointer test per access.
///
/// Implementations must not throw: the hooks are called from noexcept-ish
/// hot paths (sc_signal::read).
class access_monitor {
 public:
  virtual ~access_monitor() = default;

  /// A process (nullptr when called from outside any process, e.g. testbench
  /// top-level code) wrote `channel` during delta cycle `delta`.
  virtual void on_channel_write(const sc_object& channel, const sc_process* writer,
                                std::uint64_t delta) = 0;
  /// A process read `channel` during delta cycle `delta`.
  virtual void on_channel_read(const sc_object& channel, const sc_process* reader,
                               std::uint64_t delta) = 0;
  /// Delta cycle `delta` finished (evaluate + update + delta-notify done).
  virtual void on_delta_end(sc_simcontext& ctx, std::uint64_t delta) = 0;
};

/// A deferred reference to an event that may not be resolvable yet (e.g. a
/// port's edge event before the port is bound). Resolved at elaboration.
struct event_finder {
  std::function<sc_event&()> resolve;
};

/// Base class of channels that take part in the update phase (sc_signal,
/// sc_fifo).
class sc_prim_channel : public sc_object {
 public:
  using sc_object::sc_object;

  /// Performs the deferred value update; called by the kernel during the
  /// update phase.
  virtual void update() {}

 protected:
  /// Enqueues this channel for the next update phase (idempotent per phase).
  void request_update();

 private:
  friend class sc_simcontext;
  bool update_requested_ = false;
};

/// The paper's kernel-modification surface. Extensions registered with a
/// context are invoked by the scheduler at the points the paper's modified
/// scheduling algorithms (Figs. 3 and 5) insert their checks.
class kernel_extension {
 public:
  virtual ~kernel_extension() = default;

  /// After elaboration, before the initialization phase.
  virtual void on_elaboration(sc_simcontext&) {}
  /// Start of every simulation (delta) cycle, before evaluation.
  virtual void on_cycle_begin(sc_simcontext&) {}
  /// End of every simulation cycle, after the update/delta-notify phases.
  virtual void on_cycle_end(sc_simcontext&) {}
  /// Whenever simulated time advances.
  virtual void on_time_advance(sc_simcontext&, const sc_time& now) { (void)now; }
  /// When run() returns.
  virtual void on_run_end(sc_simcontext&) {}
};

/// Aggregate scheduler statistics (exposed for tests and benchmarks).
struct kernel_stats {
  std::uint64_t delta_cycles = 0;
  std::uint64_t process_dispatches = 0;
  std::uint64_t channel_updates = 0;
  std::uint64_t timed_advances = 0;
  std::uint64_t extension_checks = 0;

  bool operator==(const kernel_stats&) const = default;
};

/// Schedulable-state snapshot of a quiescent kernel (cosim/checkpoint.hpp,
/// DESIGN.md §12): simulated time, the delta/sequence counters, and every
/// pending notification identified *by name* so the snapshot can be applied
/// to an identically rebuilt design. Notifications reference events by
/// (name, ordinal-among-same-name, in registration order) because sc_event
/// names — unlike sc_object names — are not uniquified; a deterministically
/// rebuilt design reproduces both.
///
/// Not captured (host substitution, DESIGN.md §2): thread-process stacks.
/// A snapshot is only faithful when every pending wait is event- or
/// method-based, or the threads are re-driven to their wait points by
/// deterministic re-execution (what the supervisor's replay does).
struct kernel_state {
  struct timed_entry {
    std::uint64_t at_ps = 0;
    std::uint64_t seq = 0;  ///< original tie-break: same-instant firing order
    bool is_process = false;
    std::string name;
    std::uint32_t ordinal = 0;  ///< events only; 0 for processes

    bool operator==(const timed_entry&) const = default;
  };
  struct delta_entry {
    std::string name;
    std::uint32_t ordinal = 0;

    bool operator==(const delta_entry&) const = default;
  };

  std::uint64_t now_ps = 0;
  std::uint64_t timed_seq = 0;
  kernel_stats stats;
  std::vector<timed_entry> timed;
  std::vector<delta_entry> delta_events;

  bool operator==(const kernel_state&) const = default;
};

/// One independent simulation kernel: object registry, event queues and the
/// scheduler.
class sc_simcontext {
 public:
  sc_simcontext();
  ~sc_simcontext();

  sc_simcontext(const sc_simcontext&) = delete;
  sc_simcontext& operator=(const sc_simcontext&) = delete;

  // -- construction API ----------------------------------------------------

  /// Creates a kernel-owned object (module, channel, ...) destroyed with the
  /// context, after all processes have been killed. This is the recommended
  /// way to build a design: it guarantees thread processes never outlive the
  /// state they reference.
  template <typename T, typename... Args>
  T& create(Args&&... args) {
    ContextGuard guard(*this);
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *owned;
    owned_objects_.push_back(std::move(owned));
    return ref;
  }

  /// Registers a free-standing (module-less) method process; used by
  /// sc_clock and by tests.
  sc_process& create_method(std::string name, std::function<void()> body,
                            process_kind kind = process_kind::Method);
  /// Registers a free-standing thread process.
  sc_process& create_thread(std::string name, std::function<void()> body);

  /// Registers an extension (non-owning; must outlive the context's runs).
  void register_extension(kernel_extension* extension);
  void unregister_extension(kernel_extension* extension) noexcept;

  /// Installs (or clears, with nullptr) the channel-access monitor used by
  /// the delta-cycle race detector. Non-owning; at most one at a time.
  void set_monitor(access_monitor* monitor) noexcept { monitor_ = monitor; }
  access_monitor* monitor() const noexcept { return monitor_; }

  /// iss_in / iss_out registry (paper's kernel-level port table). Traffic
  /// is routed by port name, so a port whose `requested` name was already
  /// taken (sc_object gave it another) is a LogicError.
  void register_iss_port(iss_port_base* port, std::string_view requested);
  iss_port_base* find_iss_port(std::string_view name) const noexcept;
  const std::vector<iss_port_base*>& iss_ports() const noexcept { return iss_ports_; }

  // -- run control ----------------------------------------------------------

  /// Performs elaboration checks once (idempotent; run() calls it).
  void elaborate();

  /// Advances the simulation by at most `duration`. Returns the new absolute
  /// time. May be called repeatedly to continue the same simulation.
  sc_time run(sc_time duration);

  /// Runs until event starvation (no runnable processes, no pending
  /// notifications) or sc_stop.
  sc_time run_to_starvation();

  /// Requests the current run() to return after the current delta cycle.
  void stop() noexcept { stop_requested_ = true; }
  bool stop_requested() const noexcept { return stop_requested_; }

  // -- checkpoint interface (cosim/checkpoint.hpp) ---------------------------

  /// Captures the scheduler state between run() calls. Throws LogicError
  /// when called mid-delta (runnable processes or pending updates exist):
  /// snapshots must land on delta-cycle boundaries, mirroring the wire
  /// snapshot's frame-boundary invariant.
  kernel_state save_state() const;

  /// Applies a snapshot to this context, which must be an identically
  /// rebuilt design that has not yet run (elaboration is performed here;
  /// the initialization phase is skipped — the snapshotted run already
  /// executed it). Throws RuntimeError when a named event/process cannot
  /// be resolved.
  void restore_state(const kernel_state& state);

  /// Resolves the `ordinal`-th live event named `name`, in registration
  /// order; nullptr when absent.
  sc_event* find_event(std::string_view name, std::uint32_t ordinal = 0) const noexcept;

  sc_time time_stamp() const noexcept { return now_; }
  std::uint64_t delta_count() const noexcept { return stats_.delta_cycles; }
  const kernel_stats& stats() const noexcept { return stats_; }

  // -- scheduler services (used by kernel components) ------------------------

  void make_runnable(sc_process* process);
  void request_update(sc_prim_channel* channel);
  void schedule_event_delta(sc_event* event);
  void schedule_event_timed(sc_event* event, sc_time at);
  void schedule_process_timed(sc_process* process, sc_time at);
  void cancel_event(sc_event* event) noexcept;

  // -- registry services ------------------------------------------------------

  void add_object(sc_object* object);
  void remove_object(sc_object* object) noexcept;
  void add_event(sc_event* event);
  void remove_event(sc_event* event) noexcept;
  std::string unique_name(const std::string& base);
  sc_object* find_object(std::string_view name) const noexcept;
  std::size_t object_count() const noexcept { return objects_.size(); }

  /// All live objects, in registration order (analysis passes iterate this).
  const std::vector<sc_object*>& objects() const noexcept { return objects_; }
  /// All processes registered with this context (non-owning views).
  std::vector<sc_process*> process_list() const;

  /// RAII helper making this context current on the calling thread.
  class ContextGuard {
   public:
    explicit ContextGuard(sc_simcontext& ctx);
    ~ContextGuard();

   private:
    sc_simcontext* previous_;
  };

 private:
  // Timed notifications: a binary min-heap on (time, insertion sequence) in
  // a vector that keeps its capacity, so a steady-state delta allocates
  // nothing. No two entries share a seq, so pops come out in (ps, seq)
  // order; a destroyed event erases its entries and the heap is rebuilt.
  struct TimedEntry {
    std::uint64_t ps = 0;
    std::uint64_t seq = 0;
    sc_event* event = nullptr;  // exactly one of event/process is set
    sc_process* process = nullptr;
  };
  /// Heap order: true when `a` fires after `b`.
  static bool fires_later(const TimedEntry& a, const TimedEntry& b) noexcept {
    return a.ps != b.ps ? a.ps > b.ps : a.seq > b.seq;
  }
  void push_timed(const TimedEntry& entry);

  sc_time run_until(sc_time end);
  void initialize_processes();
  void run_one_delta();
  bool advance_time(const sc_time& limit);
  bool has_pending_activity() const noexcept;

  sc_simcontext* previous_current_;

  sc_time now_;
  bool elaborated_ = false;
  bool initialized_ = false;
  bool stop_requested_ = false;
  std::uint64_t timed_seq_ = 0;

  std::vector<sc_process*> runnable_;
  std::vector<sc_prim_channel*> update_queue_;
  std::vector<sc_event*> delta_events_;
  std::vector<TimedEntry> timed_queue_;  // heap ordered by fires_later

  std::vector<sc_object*> objects_;  // non-owning registry, insertion order
  std::vector<sc_event*> events_;    // non-owning registry, insertion order
  std::map<std::string, sc_object*, std::less<>> objects_by_name_;
  std::map<std::string, int> name_counters_;
  std::vector<std::unique_ptr<sc_process>> processes_;
  std::vector<std::unique_ptr<sc_object>> owned_objects_;
  std::vector<kernel_extension*> extensions_;
  std::vector<iss_port_base*> iss_ports_;
  access_monitor* monitor_ = nullptr;

  kernel_stats stats_;
};

// -- thread-process wait API (valid only inside an executing thread body) ---

/// Suspends the calling thread process until its static sensitivity fires.
void wait();
/// Suspends until `event` is notified.
void wait(sc_event& event);
/// Suspends for `delay` of simulated time.
void wait(const sc_time& delay);

/// The process currently being dispatched on this thread (nullptr outside
/// process execution).
sc_process* current_process() noexcept;

}  // namespace nisc::sysc

// fenrir::obs — the detection event plane.
//
// The paper's output is not a matrix, it is a *stream of decisions*:
// "a new routing mode was born", "mode 3 recurred after 9 days", "the
// campaign opened a breaker on target 1412". Counters aggregate those
// moments away and logs bury them in prose; the EventBus keeps them as
// typed, queryable objects — the record a served `fenrird` alerts on
// and a TRACE-style change classifier would label.
//
//   obs::event_bus().emit(obs::Severity::kNotice, "recurrence",
//       "\"mode\":3,\"phi\":0.97,\"gap_seconds\":777600");
//
// Design:
//   * a fixed-capacity ring of Events with monotonic, gap-free
//     sequence numbers — every kept event gets seq = previous + 1, so a
//     consumer can detect what it missed (oldest_seq() tells it how far
//     the ring still reaches back);
//   * severity levels debug/info/notice/warn/alert;
//   * per-type rate-limited dedup: each type may keep at most
//     dedup_burst events per dedup_window_seconds; excess events of
//     severity < warn are *suppressed* (counted, not ringed — the count
//     rides on the next kept event of that type as "suppressed").
//     Severity ≥ warn is NEVER suppressed — an alert storm is still an
//     alert — and neither is a *record* (emit_record_with): one event
//     per unit of work, such as a campaign's per-sweep summary, that a
//     replayed log must hold in full. Suppressed events consume no
//     sequence number, which is what keeps kept seqs gap-free;
//   * pluggable sinks: JsonlEventSink appends one JSON object per line
//     through obs::Journal (torn-tail-tolerant framing shared with the
//     lineage log, so a killed process leaves a valid prefix), and
//     the ring itself backs the HTTP plane's /events endpoint;
//   * wait_for() gives the status server its long-poll primitive.
//
// Like every fenrir::obs surface, the bus observes and never steers:
// nothing may read events back into analysis decisions, and results
// are bit-identical with the bus full, empty, or storming.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/journal.h"

namespace fenrir::obs {

enum class Severity : std::uint8_t {
  kDebug = 0,
  kInfo = 1,
  kNotice = 2,
  kWarn = 3,
  kAlert = 4,
};

std::string_view severity_name(Severity severity);
std::optional<Severity> parse_severity(std::string_view name);

/// One detection event. `fields` is a pre-rendered inner JSON fragment
/// (`"mode":3,"phi":0.97` — no braces, may be empty); the emit site
/// formats, the bus only frames. Timestamps are wall-clock unix seconds
/// (observation metadata, never an analysis input).
struct Event {
  std::uint64_t seq = 0;
  double unix_time = 0.0;
  Severity severity = Severity::kInfo;
  std::string type;
  std::string fields;
  /// Same-type events the dedup limiter swallowed since the previous
  /// kept event of this type.
  std::uint64_t suppressed = 0;
};

/// {"seq":12,"ts":...,"severity":"notice","type":"recurrence",...} —
/// one line, journal-framable; `fields` is spliced in verbatim and
/// "suppressed" is emitted only when non-zero.
std::string event_json(const Event& event);

/// A consumer of kept events. consume() runs on the emitting thread
/// under the bus lock: keep it fast, never call back into the bus.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void consume(const Event& event) = 0;
  /// False once the sink has hit a write error (healthz degrades).
  virtual bool healthy() const { return true; }
};

/// JSONL file sink: event_json() lines through obs::Journal — flushed
/// per event, torn-tail tolerant on read-back, and a killed process
/// leaves a valid line prefix (the chaos tests pin this).
class JsonlEventSink : public EventSink {
 public:
  bool open(const std::string& path, bool truncate = false);
  void close();
  void consume(const Event& event) override;
  bool healthy() const override;
  std::size_t lines_written() const { return journal_.lines_written(); }

 private:
  Journal journal_;
};

class EventBus {
 public:
  struct Config {
    /// Ring slots. Old events are overwritten, never blocks the emitter.
    std::size_t capacity = 1024;
    /// Kept events a single type may emit per window before dedup
    /// starts suppressing (severity < warn only).
    std::size_t dedup_burst = 32;
    double dedup_window_seconds = 10.0;
  };

  EventBus() : EventBus(Config{}) {}
  explicit EventBus(const Config& config);

  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  /// Emits one event. Returns its sequence number, or 0 when the dedup
  /// limiter suppressed it. Thread-safe; sequence numbers over all
  /// threads are gap-free in emission order.
  std::uint64_t emit(Severity severity, std::string_view type,
                     std::string fields = "");

  /// Like emit(), but calls @p build for the fields string only when
  /// the dedup limiter keeps the event — for hot per-observation emit
  /// sites whose field rendering costs more than the dedup check.
  /// @p build runs under the bus lock and must not re-enter the bus.
  template <typename BuildFn>
  std::uint64_t emit_with(Severity severity, std::string_view type,
                          BuildFn&& build) {
    return emit_built(severity, type, /*limited=*/true, build);
  }

  /// Like emit_with(), but the dedup limiter never suppresses it, at
  /// any severity: for records a log must hold one of per unit of work
  /// (Campaign's per-sweep `sweep_completed`), however fast they come.
  template <typename BuildFn>
  std::uint64_t emit_record_with(Severity severity, std::string_view type,
                                 BuildFn&& build) {
    return emit_built(severity, type, /*limited=*/false, build);
  }

  /// Events with seq > @p after_seq that pass the filters, oldest
  /// first, at most @p max_events (0 = no cap). @p type empty matches
  /// every type. Events the ring has already overwritten are gone —
  /// compare the first returned seq against after_seq + 1 to detect the
  /// gap (oldest_seq() names the horizon).
  std::vector<Event> since(std::uint64_t after_seq,
                           std::string_view type = {},
                           Severity min_severity = Severity::kDebug,
                           std::size_t max_events = 0) const;

  /// Blocks until last_seq() > @p after_seq, @p timeout elapses, or
  /// @p cancel (optional) goes true; returns the current last_seq().
  std::uint64_t wait_for(std::uint64_t after_seq,
                         std::chrono::milliseconds timeout,
                         const std::atomic<bool>* cancel = nullptr) const;

  /// Seq of the newest kept event (0 = none yet). Also the count of all
  /// events ever kept, since seqs are gap-free from 1.
  std::uint64_t last_seq() const;
  /// Smallest seq still in the ring; 0 when the ring is empty.
  std::uint64_t oldest_seq() const;
  std::uint64_t suppressed_total() const;
  /// Ring slots overwritten (events no longer queryable).
  std::uint64_t overwritten_total() const;

  /// Sinks are borrowed, not owned; remove before destroying the sink.
  void add_sink(EventSink* sink);
  void remove_sink(EventSink* sink);
  /// False when any attached sink reports unhealthy (write errors).
  bool sinks_healthy() const;

  /// The newest @p max_events events as a JSON array (oldest first) —
  /// the /status "recent events" panel.
  std::string recent_json(std::size_t max_events) const;

  /// Drops every event, sink, dedup record and the seq counter (tests).
  void reset();

 private:
  struct DedupState {
    std::chrono::steady_clock::time_point window_start{};
    std::size_t kept_in_window = 0;
    std::uint64_t suppressed_pending = 0;
  };

  template <typename BuildFn>
  std::uint64_t emit_built(Severity severity, std::string_view type,
                           bool limited, BuildFn& build) {
    std::unique_lock<std::mutex> lock(mu_);
    std::uint64_t seq = 0;
    if (DedupState* state = admit_locked(severity, type, limited)) {
      seq = keep_locked(*state, severity, type, build());
    }
    lock.unlock();
    if (seq != 0) cv_.notify_all();
    return seq;
  }

  /// Runs the dedup limiter for (@p severity, @p type) under mu_; an
  /// event that is not @p limited is always admitted. Returns the
  /// type's dedup record when the event is to be kept, nullptr when it
  /// was suppressed (already counted).
  DedupState* admit_locked(Severity severity, std::string_view type,
                           bool limited);
  /// Assigns the next seq, fills the ring slot, and feeds the sinks.
  std::uint64_t keep_locked(DedupState& state, Severity severity,
                            std::string_view type, std::string&& fields);

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  Config config_;
  std::vector<Event> ring_;  // slot = (seq - 1) % capacity
  std::uint64_t next_seq_ = 1;
  std::uint64_t overwritten_ = 0;
  std::uint64_t suppressed_ = 0;
  std::map<std::string, DedupState, std::less<>> dedup_;
  std::vector<EventSink*> sinks_;
};

/// The process-wide bus every emit site and the status server use.
EventBus& event_bus();

}  // namespace fenrir::obs

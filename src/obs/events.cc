#include "obs/events.h"

#include <algorithm>
#include <array>
#include <sstream>

#include "obs/health.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace fenrir::obs {

namespace {

constexpr std::array<std::string_view, 5> kSeverityNames = {
    "debug", "info", "notice", "warn", "alert"};

struct EventMetrics {
  std::array<Counter*, 5> emitted{};
  Counter& suppressed;
  Counter& overwritten;
};

/// Severity-labeled counters are resolved once: emit() must not pay a
/// registry map lookup per event.
EventMetrics& event_metrics() {
  static EventMetrics m = [] {
    EventMetrics em{{}, registry().counter("fenrir_events_suppressed_total",
                                           "events swallowed by per-type dedup"),
                    registry().counter("fenrir_events_overwritten_total",
                                       "ring slots recycled before being read")};
    for (std::size_t i = 0; i < kSeverityNames.size(); ++i) {
      em.emitted[i] = &registry().counter(
          "fenrir_events_emitted_total",
          Labels{{"severity", std::string(kSeverityNames[i])}},
          "detection events kept by the bus");
    }
    return em;
  }();
  return m;
}

double unix_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string_view severity_name(Severity severity) {
  const auto i = static_cast<std::size_t>(severity);
  return i < kSeverityNames.size() ? kSeverityNames[i] : "unknown";
}

std::optional<Severity> parse_severity(std::string_view name) {
  for (std::size_t i = 0; i < kSeverityNames.size(); ++i) {
    if (name == kSeverityNames[i]) return static_cast<Severity>(i);
  }
  return std::nullopt;
}

std::string event_json(const Event& event) {
  std::ostringstream os;
  os << "{\"seq\":" << event.seq << ",\"ts\":" << render_double(event.unix_time)
     << ",\"severity\":\"" << severity_name(event.severity) << "\",\"type\":\""
     << json_escape(event.type) << '"';
  if (!event.fields.empty()) os << ',' << event.fields;
  if (event.suppressed > 0) os << ",\"suppressed\":" << event.suppressed;
  os << '}';
  return os.str();
}

// --- JsonlEventSink ---

bool JsonlEventSink::open(const std::string& path, bool truncate) {
  if (!journal_.open(path, truncate)) {
    report_degraded("event_sink", "cannot open event log " + path);
    return false;
  }
  return true;
}

void JsonlEventSink::close() { journal_.close(); }

void JsonlEventSink::consume(const Event& event) {
  journal_.append(event_json(event));
}

bool JsonlEventSink::healthy() const { return !journal_.write_failed(); }

// --- EventBus ---

EventBus::EventBus(const Config& config) : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
  ring_.resize(config_.capacity);
}

std::uint64_t EventBus::emit(Severity severity, std::string_view type,
                             std::string fields) {
  return emit_with(severity, type, [&] { return std::move(fields); });
}

EventBus::DedupState* EventBus::admit_locked(Severity severity,
                                             std::string_view type,
                                             bool limited) {
  const auto now = std::chrono::steady_clock::now();
  auto it = dedup_.find(type);
  if (it == dedup_.end()) {
    it = dedup_.emplace(std::string(type), DedupState{now, 0, 0}).first;
  }
  DedupState& state = it->second;
  const double window_age =
      std::chrono::duration<double>(now - state.window_start).count();
  if (window_age >= config_.dedup_window_seconds) {
    state.window_start = now;
    state.kept_in_window = 0;
  }
  // The limiter only ever swallows chatter: warn and alert always land,
  // and so do records.
  if (limited && severity < Severity::kWarn &&
      state.kept_in_window >= config_.dedup_burst) {
    ++state.suppressed_pending;
    ++suppressed_;
    event_metrics().suppressed.inc();
    return nullptr;
  }
  ++state.kept_in_window;
  return &state;
}

std::uint64_t EventBus::keep_locked(DedupState& state, Severity severity,
                                    std::string_view type,
                                    std::string&& fields) {
  auto& metrics = event_metrics();
  const std::uint64_t seq = next_seq_++;
  Event& slot = ring_[(seq - 1) % config_.capacity];
  if (slot.seq != 0) {
    ++overwritten_;
    metrics.overwritten.inc();
  }
  slot.seq = seq;
  slot.unix_time = unix_now();
  slot.severity = severity;
  slot.type.assign(type);
  slot.fields = std::move(fields);
  slot.suppressed = state.suppressed_pending;
  state.suppressed_pending = 0;
  metrics.emitted[static_cast<std::size_t>(severity)]->inc();

  for (EventSink* sink : sinks_) sink->consume(slot);
  return seq;
}

std::vector<Event> EventBus::since(std::uint64_t after_seq,
                                   std::string_view type,
                                   Severity min_severity,
                                   std::size_t max_events) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out;
  const std::uint64_t last = next_seq_ - 1;
  if (last == 0) return out;
  const std::uint64_t oldest =
      last >= config_.capacity ? last - config_.capacity + 1 : 1;
  for (std::uint64_t seq = std::max(after_seq + 1, oldest); seq <= last;
       ++seq) {
    const Event& e = ring_[(seq - 1) % config_.capacity];
    if (e.severity < min_severity) continue;
    if (!type.empty() && e.type != type) continue;
    out.push_back(e);
    if (max_events != 0 && out.size() >= max_events) break;
  }
  return out;
}

std::uint64_t EventBus::wait_for(std::uint64_t after_seq,
                                 std::chrono::milliseconds timeout,
                                 const std::atomic<bool>* cancel) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lock(mu_);
  while (next_seq_ - 1 <= after_seq) {
    if (cancel && cancel->load(std::memory_order_relaxed)) break;
    // Sliced waits so an external cancel (server shutdown, SIGINT) is
    // honored within a tick even though it never touches our cv.
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    const auto slice =
        std::min(std::chrono::duration_cast<std::chrono::milliseconds>(
                     deadline - now),
                 std::chrono::milliseconds(100));
    cv_.wait_for(lock, slice);
  }
  return next_seq_ - 1;
}

std::uint64_t EventBus::last_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

std::uint64_t EventBus::oldest_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t last = next_seq_ - 1;
  if (last == 0) return 0;
  return last >= config_.capacity ? last - config_.capacity + 1 : 1;
}

std::uint64_t EventBus::suppressed_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_;
}

std::uint64_t EventBus::overwritten_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overwritten_;
}

void EventBus::add_sink(EventSink* sink) {
  if (!sink) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (std::find(sinks_.begin(), sinks_.end(), sink) == sinks_.end()) {
    sinks_.push_back(sink);
  }
}

void EventBus::remove_sink(EventSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
}

bool EventBus::sinks_healthy() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const EventSink* sink : sinks_) {
    if (!sink->healthy()) return false;
  }
  return true;
}

std::string EventBus::recent_json(std::size_t max_events) const {
  std::uint64_t after = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t last = next_seq_ - 1;
    if (max_events != 0 && last > max_events) after = last - max_events;
  }
  const std::vector<Event> events = since(after);
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i) os << ',';
    os << event_json(events[i]);
  }
  os << ']';
  return os.str();
}

void EventBus::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.assign(config_.capacity, Event{});
  next_seq_ = 1;
  overwritten_ = 0;
  suppressed_ = 0;
  dedup_.clear();
  sinks_.clear();
}

EventBus& event_bus() {
  // Never destroyed: emit sites in static destructors must stay safe,
  // mirroring registry().
  static EventBus* bus = new EventBus();
  return *bus;
}

}  // namespace fenrir::obs

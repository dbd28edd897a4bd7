// Tests for the detection event plane (obs/events.h, obs/health.h,
// obs/metrics_window.h) and its HTTP surface: gap-free sequence
// numbers under concurrency, the dedup limiter's severity floor, JSONL
// sink round trips, the degraded /healthz contract, the /events query
// grammar, and the windowed rate/quantile aggregates behind
// /metrics/history.
#include "obs/events.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/health.h"
#include "obs/http_server.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/metrics_window.h"

namespace fenrir::obs {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "fenrir_events_" + name;
}

struct FileCleaner {
  explicit FileCleaner(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~FileCleaner() { std::remove(path.c_str()); }
  std::string path;
};

TEST(Events, SeverityNamesRoundTrip) {
  for (const Severity s : {Severity::kDebug, Severity::kInfo,
                           Severity::kNotice, Severity::kWarn,
                           Severity::kAlert}) {
    const auto parsed = parse_severity(severity_name(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(parse_severity("fatal").has_value());
  EXPECT_FALSE(parse_severity("").has_value());
}

TEST(Events, EventJsonFramesFieldsVerbatim) {
  Event e;
  e.seq = 12;
  e.unix_time = 1700000000.5;
  e.severity = Severity::kNotice;
  e.type = "recurrence";
  e.fields = "\"mode\":3,\"phi\":0.97";
  EXPECT_EQ(event_json(e),
            "{\"seq\":12,\"ts\":1700000000.5,\"severity\":\"notice\","
            "\"type\":\"recurrence\",\"mode\":3,\"phi\":0.97}");
  e.fields.clear();
  e.suppressed = 4;
  EXPECT_EQ(event_json(e),
            "{\"seq\":12,\"ts\":1700000000.5,\"severity\":\"notice\","
            "\"type\":\"recurrence\",\"suppressed\":4}");
}

TEST(EventBus, SequencesAreMonotonicAndGapFree) {
  EventBus bus;
  EXPECT_EQ(bus.last_seq(), 0u);
  EXPECT_EQ(bus.oldest_seq(), 0u);
  EXPECT_EQ(bus.emit(Severity::kInfo, "a"), 1u);
  EXPECT_EQ(bus.emit(Severity::kInfo, "b", "\"x\":1"), 2u);
  EXPECT_EQ(bus.emit(Severity::kWarn, "a"), 3u);
  EXPECT_EQ(bus.last_seq(), 3u);
  EXPECT_EQ(bus.oldest_seq(), 1u);
  const auto events = bus.since(0);
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1);
  }
}

TEST(EventBus, SinceFiltersByTypeSeverityAndCap) {
  EventBus bus;
  bus.emit(Severity::kDebug, "chatter");
  bus.emit(Severity::kNotice, "recurrence", "\"mode\":1");
  bus.emit(Severity::kWarn, "breaker_open");
  bus.emit(Severity::kNotice, "recurrence", "\"mode\":2");

  EXPECT_EQ(bus.since(0, "recurrence").size(), 2u);
  EXPECT_EQ(bus.since(0, {}, Severity::kWarn).size(), 1u);
  EXPECT_EQ(bus.since(0, {}, Severity::kNotice).size(), 3u);
  EXPECT_EQ(bus.since(2).size(), 2u);
  EXPECT_EQ(bus.since(0, {}, Severity::kDebug, 2).size(), 2u);
  // Filters compose: recurrences after seq 2.
  const auto tail = bus.since(2, "recurrence");
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].seq, 4u);
  EXPECT_EQ(tail[0].fields, "\"mode\":2");
}

TEST(EventBus, RingOverwritesOldestAndReportsHorizon) {
  EventBus::Config cfg;
  cfg.capacity = 4;
  cfg.dedup_burst = 1000;
  EventBus bus(cfg);
  for (int i = 0; i < 10; ++i) bus.emit(Severity::kInfo, "tick");
  EXPECT_EQ(bus.last_seq(), 10u);
  EXPECT_EQ(bus.oldest_seq(), 7u);
  EXPECT_EQ(bus.overwritten_total(), 6u);
  const auto events = bus.since(0);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 7u);
  EXPECT_EQ(events.back().seq, 10u);
}

TEST(EventBus, DedupSuppressesChatterButCountsIt) {
  EventBus::Config cfg;
  cfg.dedup_burst = 3;
  cfg.dedup_window_seconds = 3600.0;  // never rolls during the test
  EventBus bus(cfg);
  for (int i = 0; i < 10; ++i) bus.emit(Severity::kInfo, "storm");
  // 3 kept, 7 suppressed; another type is its own budget.
  EXPECT_EQ(bus.last_seq(), 3u);
  EXPECT_EQ(bus.suppressed_total(), 7u);
  EXPECT_NE(bus.emit(Severity::kInfo, "other"), 0u);
  // The pending suppressed count rides the next kept event of the
  // stormy type — which only a warn can be right now.
  const std::uint64_t seq = bus.emit(Severity::kWarn, "storm");
  ASSERT_NE(seq, 0u);
  const auto events = bus.since(seq - 1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].suppressed, 7u);
}

TEST(EventBus, WarnAndAlertAreNeverSuppressed) {
  EventBus::Config cfg;
  cfg.dedup_burst = 1;
  cfg.dedup_window_seconds = 3600.0;
  EventBus bus(cfg);
  ASSERT_NE(bus.emit(Severity::kInfo, "storm"), 0u);
  EXPECT_EQ(bus.emit(Severity::kInfo, "storm"), 0u);    // over budget
  EXPECT_EQ(bus.emit(Severity::kNotice, "storm"), 0u);  // still chatter
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(bus.emit(Severity::kWarn, "storm"), 0u);
    EXPECT_NE(bus.emit(Severity::kAlert, "storm"), 0u);
  }
}

TEST(EventBus, RecordsAreNeverSuppressed) {
  EventBus::Config cfg;
  cfg.dedup_burst = 1;
  cfg.dedup_window_seconds = 3600.0;
  EventBus bus(cfg);
  const auto fields = [] { return std::string("\"sweep\":1"); };
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(bus.emit_record_with(Severity::kInfo, "summary", fields), 0u);
  }
  // Chatter of the same type still meets the spent budget.
  EXPECT_EQ(bus.emit_with(Severity::kInfo, "summary", fields), 0u);
  EXPECT_EQ(bus.last_seq(), 50u);
  EXPECT_EQ(bus.suppressed_total(), 1u);
}

// The property the /events consumer leans on: kept sequence numbers
// are exactly 1..last_seq with no gaps, even when many threads emit
// mixed severities through an actively suppressing limiter.
TEST(EventBus, SequencesStayGapFreeUnderConcurrentEmitAndDedup) {
  EventBus::Config cfg;
  cfg.capacity = 8192;  // hold everything; this test is about seqs
  cfg.dedup_burst = 5;
  cfg.dedup_window_seconds = 3600.0;
  EventBus bus(cfg);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 400;
  std::atomic<std::uint64_t> warns{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bus, &warns, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const Severity severity =
            i % 7 == 0 ? Severity::kWarn
                       : (i % 3 == 0 ? Severity::kNotice : Severity::kInfo);
        if (severity == Severity::kWarn) warns.fetch_add(1);
        bus.emit(severity, "type_" + std::to_string((t + i) % 3));
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto events = bus.since(0);
  ASSERT_EQ(events.size(), bus.last_seq());
  std::uint64_t kept_warns = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1);  // contiguous from 1
    kept_warns += events[i].severity == Severity::kWarn;
  }
  // Every warn survived the limiter.
  EXPECT_EQ(kept_warns, warns.load());
  // Nothing vanished without being counted.
  EXPECT_EQ(bus.last_seq() + bus.suppressed_total(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(EventBus, WaitForWakesOnEmitAndHonorsCancel) {
  EventBus bus;
  // Timeout path: nothing arrives.
  EXPECT_EQ(bus.wait_for(0, std::chrono::milliseconds(10)), 0u);
  // Wake path: an emitter lands while we wait.
  std::thread emitter([&bus] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    bus.emit(Severity::kInfo, "late");
  });
  EXPECT_EQ(bus.wait_for(0, std::chrono::seconds(10)), 1u);
  emitter.join();
  // Cancel path: returns promptly well before the timeout.
  std::atomic<bool> cancel{true};
  const auto before = std::chrono::steady_clock::now();
  bus.wait_for(1, std::chrono::seconds(10), &cancel);
  EXPECT_LT(std::chrono::steady_clock::now() - before,
            std::chrono::seconds(5));
}

TEST(EventBus, RecentJsonIsAnArrayOfNewestEvents) {
  EventBus bus;
  EXPECT_EQ(bus.recent_json(5), "[]");
  for (int i = 0; i < 8; ++i) {
    bus.emit(Severity::kInfo, "tick", "\"i\":" + std::to_string(i));
  }
  const std::string json = bus.recent_json(3);
  EXPECT_EQ(json.find("\"seq\":6"), json.find("\"seq\":"));  // oldest kept
  EXPECT_NE(json.find("\"seq\":8"), std::string::npos);
  EXPECT_EQ(json.find("\"seq\":5"), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
}

TEST(JsonlSink, EventsRoundTripThroughJournalFraming) {
  FileCleaner f(temp_path("sink.jsonl"));
  EventBus bus;
  JsonlEventSink sink;
  ASSERT_TRUE(sink.open(f.path, /*truncate=*/true));
  bus.add_sink(&sink);
  bus.emit(Severity::kNotice, "mode_created", "\"mode\":0");
  bus.emit(Severity::kNotice, "recurrence", "\"mode\":0,\"phi\":0.99");
  bus.remove_sink(&sink);
  bus.emit(Severity::kInfo, "after_detach");  // must not land
  EXPECT_EQ(sink.lines_written(), 2u);
  EXPECT_TRUE(sink.healthy());
  sink.close();

  const std::vector<std::string> lines = read_journal(f.path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"type\":\"mode_created\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"seq\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"phi\":0.99"), std::string::npos);
}

TEST(JsonlSink, UnopenableFileDegradesHealth) {
  reset_health();
  JsonlEventSink sink;
  EXPECT_FALSE(sink.open(temp_path("no_such_dir/x.jsonl")));
  EXPECT_TRUE(is_degraded());
  EXPECT_NE(degraded_reason().find("event_sink"), std::string::npos);
  reset_health();
}

TEST(Health, FirstReportWinsReasonLaterOnesCount) {
  reset_health();
  EXPECT_FALSE(is_degraded());
  EXPECT_EQ(degraded_reason(), "");
  report_degraded("journal", "disk full");
  report_degraded("event_sink", "file yanked");
  EXPECT_TRUE(is_degraded());
  EXPECT_EQ(degraded_reason(), "journal: disk full");
  EXPECT_EQ(degraded_count(), 2u);
  reset_health();
  EXPECT_FALSE(is_degraded());
}

TEST(HttpPlane, HealthzAnswers503WhileDegraded) {
  reset_health();
  std::string body, type;
  int status = 0;
  ASSERT_TRUE(render_endpoint("/healthz", "", body, type, status));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);

  report_degraded("journal", "write error on /tmp/x.jsonl");
  ASSERT_TRUE(render_endpoint("/healthz", "", body, type, status));
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("\"status\":\"degraded\""), std::string::npos);
  EXPECT_NE(body.find("journal: write error"), std::string::npos);
  reset_health();
}

TEST(HttpPlane, EventsEndpointFiltersAndValidates) {
  event_bus().reset();
  event_bus().emit(Severity::kNotice, "mode_created", "\"mode\":0");
  event_bus().emit(Severity::kWarn, "breaker_open", "\"target\":7");
  event_bus().emit(Severity::kNotice, "recurrence", "\"mode\":0");

  std::string body, type;
  int status = 0;
  ASSERT_TRUE(render_endpoint("/events", "", body, type, status));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(type, "application/json");
  EXPECT_NE(body.find("\"last_seq\":3"), std::string::npos);
  EXPECT_NE(body.find("\"oldest_seq\":1"), std::string::npos);
  EXPECT_NE(body.find("\"type\":\"mode_created\""), std::string::npos);
  EXPECT_NE(body.find("\"type\":\"recurrence\""), std::string::npos);

  ASSERT_TRUE(render_endpoint("/events", "since=2", body, type, status));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body.find("mode_created"), std::string::npos);
  EXPECT_NE(body.find("recurrence"), std::string::npos);

  ASSERT_TRUE(
      render_endpoint("/events", "type=breaker_open", body, type, status));
  EXPECT_NE(body.find("\"target\":7"), std::string::npos);
  EXPECT_EQ(body.find("recurrence"), std::string::npos);

  ASSERT_TRUE(
      render_endpoint("/events", "severity=warn", body, type, status));
  EXPECT_NE(body.find("breaker_open"), std::string::npos);
  EXPECT_EQ(body.find("mode_created"), std::string::npos);

  ASSERT_TRUE(render_endpoint("/events", "max=1", body, type, status));
  EXPECT_NE(body.find("mode_created"), std::string::npos);
  EXPECT_EQ(body.find("recurrence"), std::string::npos);

  // Malformed values are a client error, not a silent default.
  for (const char* bad :
       {"since=banana", "since=-3", "severity=fatal", "wait_ms=x", "max=-1"}) {
    ASSERT_TRUE(render_endpoint("/events", bad, body, type, status)) << bad;
    EXPECT_EQ(status, 400) << bad;
    EXPECT_NE(body.find("\"error\""), std::string::npos) << bad;
  }
  event_bus().reset();
}

TEST(HttpPlane, EventsLongPollHonorsCancel) {
  event_bus().reset();
  std::atomic<bool> cancel{true};
  std::string body, type;
  int status = 0;
  const auto before = std::chrono::steady_clock::now();
  ASSERT_TRUE(render_endpoint("/events", "wait_ms=30000", body, type, status,
                              &cancel));
  EXPECT_LT(std::chrono::steady_clock::now() - before,
            std::chrono::seconds(5));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"events\":[]"), std::string::npos);
}

TEST(HttpPlane, StatusCarriesRecentEventsPanel) {
  event_bus().reset();
  event_bus().emit(Severity::kNotice, "recurrence", "\"mode\":2");
  std::string body, type;
  int status = 0;
  ASSERT_TRUE(render_endpoint("/status", "", body, type, status));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"events_recent\":["), std::string::npos);
  EXPECT_NE(body.find("\"type\":\"recurrence\""), std::string::npos);
  event_bus().reset();
}

TEST(MetricsWindow, CounterRatesAppearAfterTwoSamples) {
  MetricsHistory::Config cfg;
  cfg.min_interval_seconds = 0.0;
  cfg.ewma_windows = {10.0};
  MetricsHistory history(cfg);
  Counter& c = registry().counter("fenrir_mw_test_ticks_total");
  c.reset();
  history.track_counter("fenrir_mw_test_ticks_total");
  history.track_counter("fenrir_mw_test_ticks_total");  // dedup: no-op

  c.inc(5);
  EXPECT_TRUE(history.sample());  // primes prev
  c.inc(5);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(history.sample());
  Gauge& rate = registry().gauge("fenrir_mw_test_ticks_rate",
                                 Labels{{"window", "10s"}});
  EXPECT_GT(rate.value(), 0.0);
  EXPECT_EQ(history.snapshot_count(), 2u);

  std::ostringstream os;
  history.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"windows_seconds\":[10]"), std::string::npos);
  EXPECT_NE(json.find("\"fenrir_mw_test_ticks_rate_10s\":"),
            std::string::npos);
}

TEST(MetricsWindow, HistogramQuantileGaugesTrackTheTail) {
  MetricsHistory::Config cfg;
  cfg.min_interval_seconds = 0.0;
  MetricsHistory history(cfg);
  Histogram& h =
      registry().histogram("fenrir_mw_test_seconds", {0.001, 0.01, 0.1, 1.0});
  h.reset();
  history.track_histogram("fenrir_mw_test_seconds",
                          {0.001, 0.01, 0.1, 1.0});
  // 90 fast, 10 slow: p50 lands in the first bucket, p99 in the last —
  // reported as the slowest sample, not the bucket's 1.0 upper bound.
  for (int i = 0; i < 90; ++i) h.observe(0.0005);
  for (int i = 0; i < 10; ++i) h.observe(0.5);
  ASSERT_TRUE(history.sample());

  EXPECT_DOUBLE_EQ(registry()
                       .gauge("fenrir_mw_test_seconds_quantile",
                              Labels{{"q", "0.5"}})
                       .value(),
                   0.001);
  EXPECT_DOUBLE_EQ(registry()
                       .gauge("fenrir_mw_test_seconds_quantile",
                              Labels{{"q", "0.99"}})
                       .value(),
                   0.5);
  std::ostringstream os;
  history.write_json(os);
  EXPECT_NE(os.str().find("\"fenrir_mw_test_seconds_p99\":0.5"),
            std::string::npos);
  EXPECT_NE(os.str().find("\"fenrir_mw_test_seconds_count\":100"),
            std::string::npos);
}

TEST(MetricsWindow, RingCapacityBoundsSnapshots) {
  MetricsHistory::Config cfg;
  cfg.capacity = 3;
  cfg.min_interval_seconds = 0.0;
  MetricsHistory history(cfg);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(history.sample());
  EXPECT_EQ(history.snapshot_count(), 3u);
  // Rate limiting drops a too-soon non-forced sample.
  MetricsHistory::Config slow;
  slow.min_interval_seconds = 3600.0;
  MetricsHistory limited(slow);
  EXPECT_TRUE(limited.sample());
  EXPECT_FALSE(limited.sample());
  EXPECT_TRUE(limited.sample(/*force=*/true));
  limited.reset();
  EXPECT_EQ(limited.snapshot_count(), 0u);
}

TEST(HttpPlane, MetricsHistoryEndpointServesTheGlobalRing) {
  metrics_history().sample(/*force=*/true);
  std::string body, type;
  int status = 0;
  ASSERT_TRUE(render_endpoint("/metrics/history", "", body, type, status));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(type, "application/json");
  EXPECT_NE(body.find("\"snapshots\":["), std::string::npos);
  EXPECT_NE(body.find("\"ts\":"), std::string::npos);
}

// The satellite the exposition grammar test grew: rate and quantile
// gauge families synthesized by MetricsHistory must obey the same
// Prometheus text-format subset as hand-registered metrics.
TEST(MetricsWindow, SynthesizedGaugesMatchExpositionGrammar) {
  MetricsHistory::Config cfg;
  cfg.min_interval_seconds = 0.0;
  MetricsHistory history(cfg);
  Counter& c = registry().counter("fenrir_mw_grammar_total",
                                  Labels{{"severity", "notice"}});
  history.track_counter("fenrir_mw_grammar_total",
                        Labels{{"severity", "notice"}});
  history.track_histogram("fenrir_mw_grammar_seconds", {0.1, 1.0});
  registry().histogram("fenrir_mw_grammar_seconds", {0.1, 1.0}).observe(0.5);
  c.inc(3);
  history.sample();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  c.inc(3);
  history.sample();

  std::ostringstream out;
  registry().write_prometheus(out);
  const std::string s = out.str();
  // The synthesized families exist with both their labels.
  EXPECT_NE(s.find("fenrir_mw_grammar_rate{severity=\"notice\",window=\""),
            std::string::npos);
  EXPECT_NE(s.find("fenrir_mw_grammar_seconds_quantile{q=\"0.99\"}"),
            std::string::npos);

  const std::regex help_re(R"(^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$)");
  const std::regex type_re(
      R"(^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$)");
  const std::regex sample_re(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (\+Inf|-?[0-9.eE+-]+|nan)$)");
  std::istringstream lines(s);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const bool ok = std::regex_match(line, help_re) ||
                    std::regex_match(line, type_re) ||
                    std::regex_match(line, sample_re);
    EXPECT_TRUE(ok) << "line violates exposition grammar: " << line;
  }
}

}  // namespace
}  // namespace fenrir::obs

// fenrir::obs — process health: the honest half of /healthz.
//
// /healthz used to answer "ok" unconditionally, which made it a TCP
// liveness probe wearing a health endpoint's clothes. The degradation
// registry fixes that: components that lose their ability to *record*
// (a lineage log whose disk filled up, an event sink whose file went
// away)
// report themselves here, and /healthz turns into HTTP 503 with
// {"status":"degraded","reason":...}. The pipeline itself keeps running
// — observability failing must never stop the measurement — but the
// operator polling /healthz learns the artifacts can no longer be
// trusted to be complete.
//
// Deliberately tiny and dependency-free within obs: report_degraded()
// is called from Journal::append's error path, which can run under the
// EventBus lock (JsonlEventSink::consume). It therefore must not emit
// events or take the bus lock — a flat mutex over two strings is all
// there is.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace fenrir::obs {

/// Marks the process degraded. The first report wins the reason slot
/// (later reports still count, see degraded_count) — the first failure
/// is usually the root cause, the rest are fallout.
void report_degraded(std::string_view component, std::string_view reason);

bool is_degraded();

/// "component: reason" of the first report; empty while healthy.
std::string degraded_reason();

/// Total degradation reports (including repeats after the first).
std::uint64_t degraded_count();

/// Clears the degraded state (tests).
void reset_health();

}  // namespace fenrir::obs

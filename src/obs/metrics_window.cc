#include "obs/metrics_window.h"

#include <algorithm>
#include <cmath>
#include <ostream>

namespace fenrir::obs {

namespace {

double unix_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// "10s" / "2.5s" — the window label value.
std::string window_label(double seconds) {
  return render_double(seconds) + "s";
}

/// fenrir_phi_appends_total → fenrir_phi_appends_rate.
std::string rate_family(std::string_view counter_family) {
  std::string out(counter_family);
  constexpr std::string_view kTotal = "_total";
  if (out.size() > kTotal.size() &&
      out.compare(out.size() - kTotal.size(), kTotal.size(), kTotal) == 0) {
    out.resize(out.size() - kTotal.size());
  }
  out += "_rate";
  return out;
}

/// "{k=v,...}" snapshot-key qualifier for labeled series ("" when bare).
std::string label_suffix(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ',';
    out += labels[i].first;
    out += '=';
    out += labels[i].second;
  }
  out += '}';
  return out;
}

}  // namespace

MetricsHistory::MetricsHistory(const Config& config) : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
  if (config_.ewma_windows.empty()) config_.ewma_windows = {10.0};
}

std::vector<MetricsHistory::WindowState> MetricsHistory::make_windows(
    const std::string& rate_family_name, const Labels& labels) const {
  std::vector<WindowState> out;
  out.reserve(config_.ewma_windows.size());
  for (const double seconds : config_.ewma_windows) {
    Labels gauge_labels = labels;
    gauge_labels.emplace_back("window", window_label(seconds));
    WindowState w;
    w.seconds = seconds;
    w.gauge = &registry().gauge(rate_family_name, gauge_labels,
                                "EWMA per-second rate over the window");
    out.push_back(std::move(w));
  }
  return out;
}

void MetricsHistory::track_counter(std::string_view name,
                                   const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const TrackedCounter& t : counters_) {
    if (t.name == name && t.labels == labels) return;
  }
  TrackedCounter t;
  t.counter = labels.empty() ? &registry().counter(name)
                             : &registry().counter(name, labels);
  t.name.assign(name);
  t.labels = labels;
  t.key = rate_family(name);
  t.windows = make_windows(t.key, labels);
  counters_.push_back(std::move(t));
}

void MetricsHistory::track_histogram(std::string_view name,
                                     std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const TrackedHistogram& t : histograms_) {
    if (t.name == name) return;
  }
  TrackedHistogram t;
  t.histogram = &registry().histogram(name, std::move(upper_bounds));
  t.name.assign(name);
  const std::string family = t.name + "_quantile";
  const char* help =
      "histogram quantile estimate (bucket upper bound, at most the "
      "largest sample)";
  t.p50 = &registry().gauge(family, Labels{{"q", "0.5"}}, help);
  t.p90 = &registry().gauge(family, Labels{{"q", "0.9"}}, help);
  t.p99 = &registry().gauge(family, Labels{{"q", "0.99"}}, help);
  t.windows = make_windows(t.name + "_rate", {});
  histograms_.push_back(std::move(t));
}

void MetricsHistory::fold_rate(std::vector<WindowState>& windows, double rate,
                               double dt) const {
  for (WindowState& w : windows) {
    if (!w.seeded) {
      w.ewma = rate;
      w.seeded = true;
    } else {
      // alpha from the *actual* interval: irregular sampling cadences
      // still decay by wall time, not by sample count.
      const double alpha = 1.0 - std::exp(-dt / w.seconds);
      w.ewma += alpha * (rate - w.ewma);
    }
    w.gauge->set(w.ewma);
  }
}

bool MetricsHistory::sample(bool force) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  const double dt =
      sampled_once_
          ? std::chrono::duration<double>(now - last_sample_).count()
          : 0.0;
  if (sampled_once_ && !force && dt < config_.min_interval_seconds) {
    return false;
  }

  Snapshot snap;
  snap.unix_time = unix_now();
  const bool have_interval = sampled_once_ && dt > 0.0;

  for (TrackedCounter& t : counters_) {
    const std::uint64_t value = t.counter->value();
    if (t.primed && have_interval) {
      const double rate =
          static_cast<double>(value - std::min(value, t.prev)) / dt;
      fold_rate(t.windows, rate, dt);
      for (const WindowState& w : t.windows) {
        snap.values.emplace_back(
            t.key + "_" + window_label(w.seconds) + label_suffix(t.labels),
            w.ewma);
      }
    }
    t.prev = value;
    t.primed = true;
  }

  for (TrackedHistogram& t : histograms_) {
    const std::uint64_t count = t.histogram->count();
    const double p50 = t.histogram->quantile(0.50);
    const double p90 = t.histogram->quantile(0.90);
    const double p99 = t.histogram->quantile(0.99);
    t.p50->set(p50);
    t.p90->set(p90);
    t.p99->set(p99);
    if (count > 0) {
      snap.values.emplace_back(t.name + "_p50", p50);
      snap.values.emplace_back(t.name + "_p90", p90);
      snap.values.emplace_back(t.name + "_p99", p99);
      snap.values.emplace_back(t.name + "_count",
                               static_cast<double>(count));
    }
    if (t.primed && have_interval) {
      const double rate =
          static_cast<double>(count - std::min(count, t.prev_count)) / dt;
      fold_rate(t.windows, rate, dt);
      for (const WindowState& w : t.windows) {
        snap.values.emplace_back(
            t.name + "_rate_" + window_label(w.seconds), w.ewma);
      }
    }
    t.prev_count = count;
    t.primed = true;
  }

  ring_.push_back(std::move(snap));
  while (ring_.size() > config_.capacity) ring_.pop_front();
  last_sample_ = now;
  sampled_once_ = true;
  return true;
}

void MetricsHistory::write_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"capacity\":" << config_.capacity << ",\"windows_seconds\":[";
  for (std::size_t i = 0; i < config_.ewma_windows.size(); ++i) {
    if (i) out << ',';
    out << render_double(config_.ewma_windows[i]);
  }
  out << "],\"snapshots\":[";
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (i) out << ',';
    const Snapshot& s = ring_[i];
    out << "{\"ts\":" << render_double(s.unix_time) << ",\"values\":{";
    for (std::size_t j = 0; j < s.values.size(); ++j) {
      if (j) out << ',';
      out << '"' << s.values[j].first
          << "\":" << render_double(s.values[j].second);
    }
    out << "}}";
  }
  out << "]}";
}

std::size_t MetricsHistory::snapshot_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

void MetricsHistory::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  histograms_.clear();
  ring_.clear();
  sampled_once_ = false;
}

MetricsHistory& metrics_history() {
  static MetricsHistory* h = new MetricsHistory();  // never destroyed
  return *h;
}

}  // namespace fenrir::obs

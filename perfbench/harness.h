// perfbench — shared plumbing for the end-to-end benchmark workloads.
//
// A workload times user-visible operations by calling the same public
// library functions that fenrirctl and the paper binaries call. It
// records raw samples by metric name (run.py turns them into exact
// order statistics), generated input sizes, and one output check per
// timed operation. The whole result set is written as one JSON object.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs @p fn and returns its wall time in seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  std::forward<Fn>(fn)();
  return seconds_since(t0);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;  // offset added to each scenario's default seed
  double seconds = 10.0;   // measuring budget of the timed loop
  bool trace = false;      // layer-attributed run instead of end-to-end
  std::string workdir;     // scratch directory for CSVs and stores
};

class Results {
 public:
  /// Appends one raw sample of metric @p name.
  void sample(const std::string& name, const std::string& unit, double value);
  /// Records a generated input size (observations, networks, bytes...).
  void size(const std::string& name, double value);
  /// Counts one timed operation; a failed output check counts it failed.
  void op(bool ok, const std::string& what);
  /// Free-form identity field (build, SIMD tier, thread count...).
  void info(const std::string& key, const std::string& value);

  std::size_t attempted() const noexcept { return attempted_; }
  void write_json(std::ostream& out) const;

 private:
  struct Series {
    std::string unit;
    std::vector<double> values;
  };
  std::map<std::string, Series> metrics_;
  std::map<std::string, double> sizes_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0;
};

/// Self time of each attributed layer within one traced operation. The
/// operation's unattributed remainder is its wall time minus the sum.
class Layers {
 public:
  void add(const std::string& name, double seconds) { self_[name] += seconds; }
  template <typename Fn>
  void time(const std::string& name, Fn&& fn) {
    add(name, timed(std::forward<Fn>(fn)));
  }
  double get(const std::string& name) const;
  double attributed() const;
  /// Emits every layer plus unattributed_s and attributed_frac.
  void emit(Results& results, double wall) const;

 private:
  std::map<std::string, double> self_;
};

/// Total seconds of every profile-tree node named @p name (any depth).
double span_seconds(const std::string& name);
std::uint64_t counter_value(const char* name);

/// CPU seconds this process has used so far, summed over its threads.
double cpu_seconds();

struct Calibration {
  double wall_s;
  double cpu_s;
};

/// Wall and CPU time of a fixed single-threaded reference loop owned by
/// the benchmark (no Fenrir code runs in it), taken next to each timed
/// operation: how fast this machine runs right now.
Calibration calibrate();

/// Restarts the peak resident set size count, so that peak_rss_mb() covers
/// only what runs after the call.
void reset_peak_rss();

/// Peak resident set size of this process since the last reset_peak_rss(),
/// in MB.
double peak_rss_mb();

void run_broot_weekly(const Options& o, Results& r);
void run_google_fig5(const Options& o, Results& r);
void run_broot_watch(const Options& o, Results& r);

}  // namespace perfbench

// fenrir_perfbench — runs one benchmark workload and prints its raw result
// set as one JSON line on stdout. run.py builds this binary, invokes it and
// turns the samples into the reported metrics.
//
//   fenrir_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --workdir DIR
#include <sched.h>
#include <sys/mman.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/simd_dispatch.h"
#include "harness.h"
#include "obs/build_info.h"
#include "obs/log.h"  // json_escape
#include "obs/metrics.h"
#include "obs/span.h"

namespace perfbench {

// ---- Results ----

void Results::sample(const std::string& name, const std::string& unit,
                     double value) {
  Series& s = metrics_[name];
  s.unit = unit;
  s.values.push_back(value);
}

void Results::size(const std::string& name, double value) {
  sizes_[name] = value;
}

void Results::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) failures_.push_back(what);
}

void Results::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  out += fenrir::obs::json_escape(s);
  out += '"';
  return out;
}

}  // namespace

void Results::write_json(std::ostream& out) const {
  out << "{\"attempted\":" << attempted_
      << ",\"failed\":" << failures_.size() << ",\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out << (i ? "," : "") << json_string(failures_[i]);
  }
  out << "],\"info\":{";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    out << (i ? "," : "") << json_string(info_[i].first) << ":"
        << json_string(info_[i].second);
  }
  out << "},\"sizes\":{";
  bool first = true;
  for (const auto& [name, v] : sizes_) {
    out << (first ? "" : ",") << json_string(name) << ":" << json_number(v);
    first = false;
  }
  out << "},\"metrics\":{";
  first = true;
  for (const auto& [name, s] : metrics_) {
    out << (first ? "" : ",") << json_string(name)
        << ":{\"unit\":" << json_string(s.unit) << ",\"samples\":[";
    for (std::size_t i = 0; i < s.values.size(); ++i) {
      out << (i ? "," : "") << json_number(s.values[i]);
    }
    out << "]}";
    first = false;
  }
  out << "}}\n";
}

// ---- Layers ----

double Layers::get(const std::string& name) const {
  const auto it = self_.find(name);
  return it == self_.end() ? 0.0 : it->second;
}

double Layers::attributed() const {
  double sum = 0.0;
  for (const auto& [name, s] : self_) sum += s;
  return sum;
}

void Layers::emit(Results& results, double wall) const {
  for (const auto& [name, s] : self_) results.sample(name, "s", s);
  const double attributed_s = attributed();
  results.sample("unattributed_s", "s", std::max(0.0, wall - attributed_s));
  results.sample("attributed_frac", "ratio",
                 wall > 0 ? std::min(1.0, attributed_s / wall) : 0.0);
}

// ---- profile and registry readers ----

double span_seconds(const std::string& name) {
  double total = 0.0;
  for (const auto& e : fenrir::obs::profile_entries()) {
    if (e.name == name) total += e.total_seconds;
  }
  return total;
}

std::uint64_t counter_value(const char* name) {
  return fenrir::obs::registry().counter(name).value();
}

double cpu_seconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

namespace {

volatile std::uint64_t calibration_sink = 0;  // keeps the loop observable

}  // namespace

Calibration calibrate() {
  // The kinds of work the operations do, none of it Fenrir code: a
  // dependent random walk over 32 MiB (memory latency), a streaming pass
  // over it (bandwidth), 2000 short runs of random keys sorted (branches
  // over a cache-sized working set; make_google's EDNS-CS churn sorts per
  // query) and short strings hashed into a node map (allocation). About
  // 0.25 s on an idle machine. The sorts weigh most: on a shared host they
  // slowed with the operations while the memory-bound parts barely moved.
  // The table, which also holds the sorted keys, is mapped for each call
  // and unmapped before it returns, so it never counts toward the peak RSS
  // of a timed pass.
  const std::size_t n = std::size_t{1} << 22;
  const std::size_t bytes = n * sizeof(std::uint64_t);
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::runtime_error("calibration: mmap failed");
  std::uint64_t* table = static_cast<std::uint64_t*>(mem);
  for (std::size_t i = 0; i < n; ++i) table[i] = i * 0x9e3779b97f4a7c15ULL;

  const Clock::time_point t0 = Clock::now();
  const double c0 = cpu_seconds();
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t acc = 0;
  for (int i = 0; i < 1 << 18; ++i) {
    acc = (acc ^ table[(next() ^ acc) & (n - 1)]) * 0xbf58476d1ce4e5b9ULL;
  }
  for (int pass = 0; pass < 4; ++pass) {
    for (std::size_t i = 0; i < n; ++i) acc += table[i] ^ (acc >> 7);
  }
  // 2000 runs of 200 keys, 1.6 MB, in the table's first pages.
  std::uint32_t* keys = static_cast<std::uint32_t*>(mem);
  for (int rep = 0; rep < 9; ++rep) {
    for (std::uint32_t* run = keys; run != keys + 2000 * 200; run += 200) {
      for (int k = 0; k < 200; ++k) run[k] = static_cast<std::uint32_t>(next());
      std::sort(run, run + 200);
      acc += run[rep];
    }
  }
  munmap(mem, bytes);
  std::unordered_map<std::string, std::uint32_t> names;
  for (std::uint32_t i = 0; i < 200000u; ++i) {
    ++names[std::to_string((i * 2654435761u) % 50000)];
  }
  calibration_sink = acc + names.size();
  return {seconds_since(t0), cpu_seconds() - c0};
}

void reset_peak_rss() {
  // "5" resets the kernel's resident-set high-water mark (VmHWM).
  std::ofstream clear("/proc/self/clear_refs");
  if (!(clear << "5" << std::flush)) {
    throw std::runtime_error(
        "cannot reset the peak RSS via /proc/self/clear_refs");
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // VmHWM is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "fenrir_perfbench: " << why
            << "\nusage: fenrir_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n";
  std::exit(2);
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strcmp(fenrir::obs::build_info().sanitize, "none") != 0;
#endif
}

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = v == "1";
      } else if (a == "--workdir") {
        o.workdir = v;
      } else {
        usage("unknown option " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (o.workdir.empty() || !std::filesystem::is_directory(o.workdir)) {
    usage("--workdir must name an existing directory");
  }
  if (sanitized_build()) {
    std::cerr << "fenrir_perfbench: refusing to time a sanitizer build ("
              << fenrir::obs::build_info_string() << ")\n";
    return 3;
  }

  // The worker pool starts hardware_concurrency threads, which can exceed
  // the CPUs this process may run on under a cpuset; say so next to the
  // figures rather than time silently oversubscribed.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned cpus = affinity_cpus();
  if (cpus != 0 && hw > cpus) {
    std::cerr << "fenrir_perfbench: warning: the worker pool starts " << hw
              << " threads on " << cpus << " usable CPUs\n";
  }

  Results r;
  r.info("version", fenrir::obs::build_info_string());
  r.info("build_type", fenrir::obs::build_info().build_type);
  r.info("sanitize", fenrir::obs::build_info().sanitize);
  r.info("simd_detected",
         fenrir::core::simd::tier_name(fenrir::core::simd::detected_tier()));
  r.info("simd_dispatched",
         fenrir::core::simd::tier_name(fenrir::core::simd::active_tier()));
  r.info("nproc", std::to_string(cpus));
  r.info("threads", std::to_string(hw));
  r.info("workload", o.workload);
  r.info("seed", std::to_string(o.seed));

  try {
    if (o.workload == "broot_weekly") {
      run_broot_weekly(o, r);
    } else if (o.workload == "google_fig5") {
      run_google_fig5(o, r);
    } else if (o.workload == "broot_watch") {
      run_broot_watch(o, r);
    } else {
      usage("unknown workload " + o.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "fenrir_perfbench: " << o.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  r.write_json(std::cout);
  return 0;
}

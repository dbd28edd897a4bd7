// perfbench — the workloads. Each one times user-visible operations
// through the public calls fenrirctl and the paper binaries make, and
// checks every operation's output.
//
// End-to-end runs (--trace 0) call the operations exactly as the CLI does.
// Traced runs (--trace 1) first time the same operations untraced (the
// trace_overhead baseline), then again with profiling on, timing each
// layer call from here and reading the spans and registry counters the
// library records. What a single library call does not split (topology
// generation, the DNS wire exchange) stays a named unattributed remainder.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dataset_io.h"
#include "core/distance_matrix.h"
#include "core/events.h"
#include "core/heatmap.h"
#include "core/modebook.h"
#include "core/pipeline.h"
#include "core/time.h"
#include "harness.h"
#include "io/segment_store.h"
#include "io/table.h"
#include "obs/metrics.h"
#include "obs/metrics_window.h"
#include "obs/span.h"
#include "obs/status_board.h"
#include "scenarios/broot.h"
#include "scenarios/websites.h"
#include "stats/stats.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace fenrir;

namespace {

// Set-ups per run for the workloads whose set-up is cheap enough to
// repeat; setup_s is their median.
constexpr int kSetups = 3;

std::string report_of(const core::Dataset& d,
                      const core::AnalysisResult& result) {
  std::ostringstream os;
  core::print_report(d, result, os);
  return os.str();
}

double file_mb(const fs::path& path) {
  if (fs::is_regular_file(path)) {
    return static_cast<double>(fs::file_size(path)) / 1e6;
  }
  double mb = 0.0;
  for (const auto& e : fs::recursive_directory_iterator(path)) {
    if (e.is_regular_file()) mb += static_cast<double>(e.file_size()) / 1e6;
  }
  return mb;
}

double pairs_of(std::size_t n) {
  return static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
}

/// Runs @p op until the measuring budget is spent (at least once).
template <typename Op>
void repeat_for(double seconds, Op&& op) {
  const Clock::time_point t0 = Clock::now();
  do {
    op();
  } while (seconds_since(t0) < seconds);
}

/// Starts a traced operation: profiling on, spans and counters zeroed.
void begin_trace() {
  obs::set_profiling(true);
  obs::reset_profile();
  obs::registry().reset();
}

void end_trace() { obs::set_profiling(false); }

/// Times one set-up as setup_wall_s, after a calibration loop recorded as
/// setup_calibration_s: set-up runs apart from the passes, so it is
/// calibrated by samples taken next to it.
template <typename Fn>
void timed_setup(Results& r, Fn&& fn) {
  r.sample("setup_calibration_s", "s", calibrate().wall_s);
  r.sample("setup_wall_s", "s", timed(std::forward<Fn>(fn)));
}

/// The passes of a run, until the measuring budget is spent. @p pass runs
/// one untraced pass and returns its wall seconds; each is recorded as
/// pass_wall_s.
///
/// End-to-end (no --trace): every pass also records the CPU seconds it
/// used as pass_cpu_s and its own peak RSS as peak_rss_mb, and the
/// calibration loop, run before every pass and after the last, records
/// calibration_cpu_s (see calibrate()).
///
/// Traced: the first half of the budget runs untraced passes, the second
/// half @p traced_pass, which returns its wall seconds as traced_wall_s.
template <typename Pass, typename TracedPass>
void run_passes(const Options& o, Results& r, Pass&& pass,
                TracedPass&& traced_pass) {
  if (o.trace) {
    repeat_for(o.seconds / 2, [&] { r.sample("pass_wall_s", "s", pass()); });
    repeat_for(o.seconds / 2,
               [&] { r.sample("traced_wall_s", "s", traced_pass()); });
    return;
  }
  repeat_for(o.seconds, [&] {
    r.sample("calibration_cpu_s", "s", calibrate().cpu_s);
    reset_peak_rss();
    const double cpu0 = cpu_seconds();
    r.sample("pass_wall_s", "s", pass());
    r.sample("pass_cpu_s", "s", cpu_seconds() - cpu0);
    r.sample("peak_rss_mb", "MB", peak_rss_mb());
  });
  r.sample("calibration_cpu_s", "s", calibrate().cpu_s);
}

// ---- analyze from CSV: fenrirctl analyze FILE ----

std::string analyze_csv(const std::string& path) {
  const core::Dataset data = core::load_dataset_file(path);
  const core::AnalysisResult result = core::analyze(data, {});
  return report_of(data, result);
}

/// The same operation, one layer call at a time. analyze() over a
/// precomputed matrix runs the clustering, mode and event stages under
/// their own spans; the Φ matrix is computed here with the call analyze()
/// makes.
std::string analyze_csv_traced(const std::string& path, Layers& layers,
                               Results& r) {
  core::Dataset data;
  layers.time("core.dataset_io.load_s",
              [&] { data = core::load_dataset_file(path); });
  const double load_s = layers.get("core.dataset_io.load_s");
  const double cells = static_cast<double>(data.series.size()) *
                       static_cast<double>(data.networks.size());
  r.sample("core.dataset_io.cells", "count", cells);
  r.sample("core.dataset_io.mb_per_s", "MB/s", file_mb(path) / load_s);

  const core::AnalysisConfig cfg;
  const std::uint64_t kernel0 = counter_value("fenrir_phi_rows_kernel_total");
  const std::uint64_t delta0 = counter_value("fenrir_phi_rows_delta_total");
  const std::uint64_t jobs0 = counter_value("fenrir_parallel_jobs_total");
  std::optional<core::SimilarityMatrix> matrix;
  const double compute_s = timed([&] {
    matrix = core::SimilarityMatrix::compute(data, cfg.policy);
  });
  layers.add("core.distance_matrix.compute_s", compute_s);
  r.sample("core.distance_matrix.ns_per_pair", "ns",
           compute_s * 1e9 / pairs_of(data.series.size()));
  r.sample("core.distance_matrix.rows_kernel", "count",
           static_cast<double>(
               counter_value("fenrir_phi_rows_kernel_total") - kernel0));
  r.sample("core.distance_matrix.rows_delta", "count",
           static_cast<double>(
               counter_value("fenrir_phi_rows_delta_total") - delta0));

  const double hac0 = span_seconds("hac_clustering");
  const double modes0 = span_seconds("mode_extraction");
  const double events0 = span_seconds("event_detection");
  const core::AnalysisResult result =
      core::analyze(data, cfg, std::move(*matrix));
  layers.add("core.cluster.hac_s", span_seconds("hac_clustering") - hac0);
  layers.add("core.modes.build_s", span_seconds("mode_extraction") - modes0);
  layers.add("core.events.detect_s",
             span_seconds("event_detection") - events0);
  r.sample("core.parallel.jobs", "count",
           static_cast<double>(counter_value("fenrir_parallel_jobs_total") -
                               jobs0));

  std::string report;
  layers.time("core.pipeline.report_s",
              [&] { report = report_of(data, result); });
  return report;
}

/// The 1-thread leg of the Φ compute against the default-thread leg.
void emit_speedup(const std::string& path, double default_s, Results& r) {
  const core::Dataset data = core::load_dataset_file(path);
  const double serial_s = timed([&] {
    (void)core::SimilarityMatrix::compute(data, core::AnalysisConfig{}.policy,
                                          /*threads=*/1);
  });
  r.sample("core.distance_matrix.speedup_4t", "ratio", serial_s / default_s);
}

// ---- Figure 5: bench/fig5_google ----

struct Fig5 {
  double within = 0, across = 0, era = 0;
  std::string heatmap;
  std::size_t observations = 0, networks = 0;
};

Fig5 fig5_from(const scenarios::GoogleScenario& scenario,
               const core::SimilarityMatrix& matrix) {
  const core::Dataset& d = scenario.dataset;
  std::vector<double> within_week, across_week, across_era;
  for (std::size_t i = scenario.obs_2013; i < d.series.size(); ++i) {
    for (std::size_t j = scenario.obs_2013; j < i; ++j) {
      const std::int64_t wi = d.series[i].time / (7 * core::kDay);
      const std::int64_t wj = d.series[j].time / (7 * core::kDay);
      (wi == wj ? within_week : across_week).push_back(matrix.phi(i, j));
    }
  }
  for (std::size_t i = 0; i < scenario.obs_2013; ++i) {
    for (std::size_t j = scenario.obs_2013; j < d.series.size(); ++j) {
      across_era.push_back(matrix.phi(i, j));
    }
  }
  Fig5 f;
  f.within = stats::mean(within_week);
  f.across = stats::mean(across_week);
  f.era = stats::mean(across_era);
  f.heatmap = core::heatmap_ascii(matrix, 63);
  f.observations = d.series.size();
  f.networks = d.networks.size();
  return f;
}

bool check_fig5(const Fig5& f, bool default_seed, std::string* why) {
  *why = "fig5 within/across/era " + io::fixed(f.within, 2) + "/" +
         io::fixed(f.across, 2) + "/" + io::fixed(f.era, 2);
  if (!(f.within > f.across && f.across > f.era && f.era < 0.005)) {
    return false;
  }
  return !default_seed ||
         (io::fixed(f.within, 2) == "0.85" &&
          io::fixed(f.across, 2) == "0.25" && io::fixed(f.era, 2) == "0.00");
}

// ---- watch --store: fenrirctl watch's loop ----

std::string verdict_line(const core::RoutingVector& v,
                         const core::ModeBook::Match& match) {
  std::string line = core::format_time(v.time) + "  mode " +
                     std::to_string(match.mode) + "  phi " +
                     io::fixed(match.phi, 3);
  if (!v.valid) {
    line += "  (outage)";
  } else if (match.is_new) {
    line += "  NEW MODE";
  } else if (match.is_recurrence) {
    line += "  RECURRENCE";
  }
  return line + "\n";
}

struct WatchPass {
  std::string verdicts;
  std::vector<double> observe_ms;  // per observation, whole loop body
  std::size_t flushes = 0;
  double watch_s = 0;
  double resume_s = 0;
  double store_mb = 0;
  bool resumed_identical = false;
};

/// fenrirctl's store settings, except that the matrix appends run on the
/// calling thread (fenrirctl: every hardware thread). Each append is a
/// parallel loop of ~0.1 ms, and on a shared VM waking the pool's idle
/// vCPUs for it cost 2-5x at random while single-threaded work ran at
/// its usual speed: a pooled watch times the host's scheduler.
io::SegmentStoreConfig store_config() {
  io::SegmentStoreConfig cfg;
  cfg.threads = 1;
  return cfg;
}

bool same_matrix(const core::SimilarityMatrix& a,
                 const core::SimilarityMatrix& b) {
  if (a.size() != b.size() || a.policy() != b.policy()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.valid(i) != b.valid(i)) return false;
    for (std::size_t j = 0; j <= i; ++j) {
      const double x = a.phi(i, j), y = b.phi(i, j);
      if (std::memcmp(&x, &y, sizeof x) != 0) return false;
    }
  }
  return true;
}

bool same_book(const core::ModeBook& a, const core::ModeBook& b) {
  if (a.mode_count() != b.mode_count() || a.history() != b.history()) {
    return false;
  }
  for (std::size_t m = 0; m < a.mode_count(); ++m) {
    const core::RoutingVector& x = a.representative(m);
    const core::RoutingVector& y = b.representative(m);
    if (x.time != y.time || x.valid != y.valid ||
        x.assignment != y.assignment) {
      return false;
    }
  }
  return true;
}

/// One `watch --store DIR` session over @p data from a fresh store, then a
/// reopen and load of the store as `watch --resume` does it. With
/// @p layers, each layer call is timed into it.
WatchPass watch_pass(const core::Dataset& data, const fs::path& dir,
                     Layers* layers) {
  fs::remove_all(dir);
  WatchPass out;
  const core::ModeBook::Config book_cfg;
  core::ModeBook book(book_cfg);
  const auto time_layer = [&](const char* name, auto&& fn) {
    if (layers) {
      layers->time(name, fn);
    } else {
      fn();
    }
  };

  const Clock::time_point t0 = Clock::now();
  std::optional<core::SimilarityMatrix> matrix;
  {
    io::SegmentStore store(dir, store_config());
    store.attach(&data);
    store.configure(book_cfg.policy, data.weights);
    io::SegmentStore::Loaded loaded = store.load(&data);
    matrix = std::move(loaded.matrix);
    std::ostringstream verdicts;
    out.observe_ms.reserve(data.series.size());
    for (std::size_t i = 0; i < data.series.size(); ++i) {
      const Clock::time_point s0 = Clock::now();
      const core::RoutingVector& v = data.series[i];
      time_layer("core.distance_matrix.append_s", [&] { matrix->append(v); });
      core::ModeBook::Match match;
      time_layer("core.modebook.observe_s", [&] { match = book.observe(v); });
      if (match.is_new) {
        time_layer("core.distance_matrix.pin_s",
                   [&] { matrix->pin_anchor(i); });
      }
      time_layer("io.segment_store.spill_s", [&] { store.spill(v, *matrix); });
      if ((i + 1) % 64 == 0) {
        time_layer("io.segment_store.flush_s", [&] { store.flush(); });
        ++out.flushes;
      }
      verdicts << verdict_line(v, match);
      obs::status_board().publish("modebook", book.status_json());
      obs::metrics_history().sample(false);
      out.observe_ms.push_back(seconds_since(s0) * 1e3);
    }
    verdicts << book.mode_count() << " modes over " << book.history().size()
             << " observations\n";
    out.verdicts = verdicts.str();
    time_layer("io.segment_store.flush_s", [&] { store.flush(&book); });
    ++out.flushes;
  }
  out.watch_s = seconds_since(t0);
  out.store_mb = file_mb(dir);

  // Resume: reopen the store, load the matrix and the mode book.
  core::ModeBook resumed_book(book_cfg);
  std::optional<io::SegmentStore::Loaded> loaded;
  const Clock::time_point r0 = Clock::now();
  {
    io::SegmentStore store(dir, store_config());
    store.attach(&data);
    time_layer("io.segment_store.load_s", [&] { loaded = store.load(&data); });
    if (loaded->has_modebook) {
      resumed_book.restore(std::move(loaded->representatives),
                           std::move(loaded->history));
    }
  }
  out.resume_s = seconds_since(r0);
  out.resumed_identical = loaded->processed == data.series.size() &&
                          same_matrix(loaded->matrix, *matrix) &&
                          same_book(resumed_book, book);
  return out;
}

/// Verdicts of a store-less, matrix-free watch (plain `fenrirctl watch`).
std::string reference_verdicts(const core::Dataset& data) {
  core::ModeBook book(core::ModeBook::Config{});
  std::ostringstream os;
  for (const core::RoutingVector& v : data.series) {
    os << verdict_line(v, book.observe(v));
  }
  os << book.mode_count() << " modes over " << book.history().size()
     << " observations\n";
  return os.str();
}

/// make_broot as a set-up step. Traced, it also records the BGP route
/// computations behind the scenario's RouteCache: set-up work, so they are
/// reported on their own and stay out of the operation's attribution.
scenarios::BrootScenario make_broot_setup(const scenarios::BrootConfig& cfg,
                                          bool trace, Results& r) {
  scenarios::BrootScenario s;
  if (trace) begin_trace();
  r.sample("scenarios.make_broot_s", "s",
           timed([&] { s = scenarios::make_broot(cfg); }));
  if (!trace) return s;
  end_trace();
  r.sample("bgp.routing.compute_routes_s", "s",
           span_seconds("compute_routes"));
  r.sample(
      "bgp.routing.computations", "count",
      static_cast<double>(counter_value("fenrir_bgp_computations_total")));
  r.sample(
      "bgp.routing.worklist_pops", "count",
      static_cast<double>(counter_value("fenrir_bgp_worklist_pops_total")));
  return s;
}

/// Keeps @p count of @p d's networks, evenly spaced in NetId order, so that
/// a workload's size does not change with the seed: make_broot's /24 count
/// varies by up to 30% across seeds, and a pass's time with it.
core::Dataset keep_networks(const core::Dataset& d, std::size_t count) {
  const std::size_t n = d.networks.size();
  if (n < count) {
    throw std::runtime_error("make_broot gave " + std::to_string(n) +
                             " networks, fewer than the workload's " +
                             std::to_string(count));
  }
  std::vector<core::NetId> keep(count);
  for (std::size_t k = 0; k < count; ++k) {
    keep[k] = static_cast<core::NetId>(k * n / count);
  }
  core::Dataset out;
  out.name = d.name;
  out.sites = d.sites;
  for (const core::NetId id : keep) out.networks.intern(d.networks.key(id));
  if (!d.weights.empty()) {
    for (const core::NetId id : keep) out.weights.push_back(d.weights[id]);
  }
  out.series.reserve(d.series.size());
  for (const core::RoutingVector& v : d.series) {
    core::RoutingVector& w = out.series.emplace_back();
    w.time = v.time;
    w.valid = v.valid;
    w.assignment.reserve(count);
    for (const core::NetId id : keep) w.assignment.push_back(v.assignment[id]);
  }
  out.check_consistent();
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------

void run_broot_weekly(const Options& o, Results& r) {
  scenarios::BrootConfig cfg;
  cfg.seed += o.seed;
  const std::string csv = (fs::path(o.workdir) / "broot_weekly.csv").string();

  // Set-up: generate the weekly series, keep 40,000 of its 44.6k-48.3k
  // /24s, write its CSV, and compute the reference report from the
  // in-memory dataset. A traced run traces the last generation.
  std::string reference;
  for (int i = 0; i < kSetups; ++i) {
    timed_setup(r, [&] {
      const scenarios::BrootScenario s =
          make_broot_setup(cfg, o.trace && i == kSetups - 1, r);
      const core::Dataset data = keep_networks(s.dataset, 40000);
      core::save_dataset_file(data, csv);
      reference = report_of(data, core::analyze(data, {}));
      r.size("observations", static_cast<double>(data.series.size()));
      r.size("networks_generated",
             static_cast<double>(s.dataset.networks.size()));
      r.size("networks", static_cast<double>(data.networks.size()));
    });
  }
  r.size("csv_bytes", static_cast<double>(fs::file_size(csv)));

  const auto op = [&] {
    std::string report;
    const double s = timed([&] { report = analyze_csv(csv); });
    r.op(report == reference, "analyze report differs from the in-memory one");
    r.sample("analyze_s", "s", s);
    return s;
  };

  double compute_s = 0;
  run_passes(o, r, op, [&] {
    Layers layers;
    begin_trace();
    std::string report;
    const double wall =
        timed([&] { report = analyze_csv_traced(csv, layers, r); });
    end_trace();
    r.op(report == reference, "traced analyze report differs");
    layers.emit(r, wall);
    compute_s = layers.get("core.distance_matrix.compute_s");
    return wall;
  });
  if (o.trace) emit_speedup(csv, compute_s, r);
}

void run_google_fig5(const Options& o, Results& r) {
  scenarios::GoogleConfig cfg;
  // A quarter of the paper's 6000 prefixes keeps a pass near 5 s, so a run
  // holds several; the Figure 5 means still read 0.85/0.25/0.00 at seed 0.
  cfg.prefix_count = 1500;
  cfg.seed += o.seed;
  const bool default_seed = o.seed == 0;

  const auto check = [&](const Fig5& f) {
    std::string why;
    const bool ok = check_fig5(f, default_seed, &why);
    r.op(ok, why);
    r.size("observations", static_cast<double>(f.observations));
    r.size("networks", static_cast<double>(f.networks));
    r.size("measure.ednscs.queries", static_cast<double>(f.observations) *
                                         static_cast<double>(f.networks));
  };
  const auto fig5 = [](const scenarios::GoogleConfig& c) {
    const scenarios::GoogleScenario s = scenarios::make_google(c);
    return fig5_from(s, core::SimilarityMatrix::compute(s.dataset));
  };
  const auto op = [&] {
    Fig5 f;
    const double s = timed([&] { f = fig5(cfg); });
    check(f);
    r.sample("fig5_s", "s", s);
    return s;
  };

  // The regeneration makes its own inputs, so set-up is a warm-up: Figure
  // 5 regenerated at a tenth of the prefixes on the next seed, held to the
  // seed-independent checks.
  scenarios::GoogleConfig warm = cfg;
  warm.prefix_count /= 10;
  warm.seed += 1;
  for (int i = 0; i < kSetups; ++i) {
    Fig5 f;
    timed_setup(r, [&] { f = fig5(warm); });
    std::string why;
    r.op(check_fig5(f, /*default_seed=*/false, &why), "warm-up " + why);
  }

  run_passes(o, r, op, [&] {
    Layers layers;
    begin_trace();
    const double wall = timed([&] {
      scenarios::GoogleScenario s;
      const double make_s = timed([&] { s = scenarios::make_google(cfg); });
      // make_google has no spans yet; it is one unattributed remainder.
      r.sample("scenarios.make_google_s", "s", make_s);
      r.sample("scenarios.make_google.unattributed_s", "s", make_s);
      std::optional<core::SimilarityMatrix> m;
      layers.time("core.distance_matrix.compute_s",
                  [&] { m = core::SimilarityMatrix::compute(s.dataset); });
      check(fig5_from(s, *m));
      // One EDNS Client-Subnet A query per prefix per observation day.
      r.sample("measure.ednscs.queries", "count",
               static_cast<double>(s.dataset.series.size()) *
                   static_cast<double>(s.dataset.networks.size()));
    });
    end_trace();
    layers.emit(r, wall);
    return wall;
  });
}

void run_broot_watch(const Options& o, Results& r) {
  scenarios::BrootConfig cfg;
  cfg.cadence = core::kDay;
  cfg.topo_stubs = 300;
  cfg.seed += o.seed;
  const fs::path dir = fs::path(o.workdir) / "broot_watch.store";

  // Set-up: generate the daily series in memory, keep 5000 of its
  // 6.0k-7.8k /24s, and compute the store-less verdicts the stored watch
  // must reproduce. A traced run traces the last generation.
  core::Dataset data;
  std::string reference;
  for (int i = 0; i < kSetups; ++i) {
    timed_setup(r, [&] {
      const scenarios::BrootScenario s =
          make_broot_setup(cfg, o.trace && i == kSetups - 1, r);
      r.size("networks_generated",
             static_cast<double>(s.dataset.networks.size()));
      data = keep_networks(s.dataset, 5000);
      reference = reference_verdicts(data);
    });
  }
  r.size("observations", static_cast<double>(data.series.size()));
  r.size("networks", static_cast<double>(data.networks.size()));

  const auto check = [&](const WatchPass& p) {
    r.op(p.verdicts == reference,
         "stored watch verdicts differ from a store-less ModeBook pass");
    r.op(p.resumed_identical,
         "resumed matrix or mode book differs from the in-memory one");
  };
  const auto record = [&](const WatchPass& p) {
    r.sample("watch_s", "s", p.watch_s);
    r.sample("resume_s", "s", p.resume_s);
    r.sample("store_mb", "MB", p.store_mb);
    for (const double ms : p.observe_ms) r.sample("observe_ms", "ms", ms);
  };
  const auto op = [&] {
    const WatchPass p = watch_pass(data, dir, nullptr);
    check(p);
    record(p);
    return p.watch_s + p.resume_s;
  };

  run_passes(o, r, op, [&] {
    Layers layers;
    begin_trace();
    const WatchPass p = watch_pass(data, dir, &layers);
    end_trace();
    check(p);
    const double wall = p.watch_s + p.resume_s;
    layers.emit(r, wall);
    // Rows the appends computed with the packed kernels vs by patching an
    // anchor's cached counts.
    r.sample("core.distance_matrix.rows_kernel", "count",
             static_cast<double>(
                 counter_value("fenrir_phi_rows_kernel_total")));
    r.sample("core.distance_matrix.rows_delta", "count",
             static_cast<double>(counter_value("fenrir_phi_rows_delta_total")));
    r.sample("io.segment_store.flushes", "count",
             static_cast<double>(p.flushes));
    r.sample("io.segment_store.bytes_written", "bytes",
             static_cast<double>(
                 counter_value("fenrir_segment_tail_bytes_total")));
    r.sample("io.segment_store.sealed", "count",
             static_cast<double>(counter_value("fenrir_segment_sealed_total")));
    const obs::Histogram& scan = obs::registry().histogram(
        "fenrir_modebook_scan_length", obs::Histogram::duration_bounds());
    r.sample("core.modebook.scan_mean", "count",
             scan.count() ? scan.sum() / static_cast<double>(scan.count())
                          : 0);
    return wall;
  });
  fs::remove_all(dir);
}

}  // namespace perfbench

#include "measure/federation.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "io/csv.h"
#include "obs/events.h"
#include "obs/lineage.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/metrics_window.h"
#include "obs/span.h"
#include "obs/status_board.h"

namespace fenrir::measure {

namespace {

constexpr const char* kMagic = "#fenrir-federation-checkpoint";
constexpr const char* kVersion = "v1";

/// Sentinel for "this member never answered this target".
constexpr std::size_t kNever = static_cast<std::size_t>(-1);

struct Metrics {
  obs::Counter& epochs;
  obs::Counter& member_sweeps;
  obs::Counter& stale_served;
  obs::Counter& aged_out;
  obs::Counter& deaths;
  obs::Counter& rejoins;
  obs::Counter& disagreements;
  obs::Counter& low_coverage;
  obs::Counter& resumes;
  obs::Gauge& coverage;
  obs::Gauge& floor;
  obs::Gauge& members_healthy;
  obs::Gauge& members_dead;
};

Metrics& metrics() {
  static Metrics m{
      obs::registry().counter("fenrir_federation_epochs_total",
                              "federation epochs merged"),
      obs::registry().counter("fenrir_federation_member_sweeps_total",
                              "member sweeps folded into the federation"),
      obs::registry().counter("fenrir_federation_stale_served_total",
                              "targets served from a stale member answer"),
      obs::registry().counter("fenrir_federation_aged_out_total",
                              "targets whose only answers aged out"),
      obs::registry().counter("fenrir_federation_deaths_total",
                              "members declared dead"),
      obs::registry().counter("fenrir_federation_rejoins_total",
                              "dead members that rejoined"),
      obs::registry().counter("fenrir_federation_disagreements_total",
                              "targets where fresh member votes conflicted"),
      obs::registry().counter("fenrir_federation_low_coverage_epochs_total",
                              "epochs emitted invalid: below adaptive floor"),
      obs::registry().counter("fenrir_federation_resumes_total",
                              "federations resumed from a checkpoint"),
      obs::registry().gauge("fenrir_federation_coverage",
                            "last epoch's served/targets"),
      obs::registry().gauge("fenrir_federation_adaptive_floor",
                            "floor the next epoch will be judged against"),
      obs::registry().gauge("fenrir_federation_members_healthy",
                            "members healthy or rejoined after last epoch"),
      obs::registry().gauge("fenrir_federation_members_dead",
                            "members dead after last epoch"),
  };
  return m;
}

std::uint64_t parse_u64_field(const std::string& text, const char* what) {
  std::uint64_t out = 0;
  std::size_t pos = 0;
  try {
    out = std::stoull(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (text.empty() || pos != text.size()) {
    throw FederationError(std::string("checkpoint: bad ") + what + ": " +
                          text);
  }
  return out;
}

/// A member's view: its slice of the global target list, probed through
/// its own clock (the member schedules in local time; the world answers
/// in true time).
class SubsetProber : public TargetProber {
 public:
  SubsetProber(const TargetProber& parent, const std::vector<std::size_t>& slice,
               chaos::ClockModel clock)
      : parent_(&parent), slice_(slice), clock_(clock) {}

  std::size_t target_count() const override { return slice_.size(); }
  std::uint64_t target_key(std::size_t index) const override {
    return parent_->target_key(slice_.at(index));
  }
  ProbeReply probe(std::size_t index, core::TimePoint when) const override {
    return parent_->probe(slice_[index], clock_.to_true(when));
  }

 private:
  const TargetProber* parent_;
  const std::vector<std::size_t>& slice_;
  chaos::ClockModel clock_;
};

/// Locks the member's sweep period to the federation epoch and anchors
/// its schedule in member-local time.
CampaignConfig derive_campaign_config(const FederationConfig& fed,
                                      const MemberConfig& m) {
  CampaignConfig c = m.campaign;
  if (c.packets_per_second <= 0) {
    throw FederationError("federation member '" + m.name +
                          "': packets_per_second must be > 0");
  }
  const auto active =
      static_cast<core::TimePoint>(static_cast<double>(m.targets.size()) /
                                   c.packets_per_second) +
      1;
  if (active > fed.epoch_length) {
    throw FederationError("federation member '" + m.name +
                          "': sweep does not fit in one epoch");
  }
  c.idle_gap = fed.epoch_length - active;  // SweepSchedule period == epoch
  c.start = m.clock.to_local(fed.start + m.start_offset);
  return c;
}

}  // namespace

const char* to_string(MemberHealth h) noexcept {
  switch (h) {
    case MemberHealth::kHealthy: return "healthy";
    case MemberHealth::kLagging: return "lagging";
    case MemberHealth::kDead: return "dead";
    case MemberHealth::kRejoined: return "rejoined";
  }
  return "?";
}

struct Federation::MemberState {
  MemberState(const TargetProber& parent, const FederationConfig& fed,
              MemberConfig cfg)
      : config(std::move(cfg)),
        prober(parent, config.targets, config.clock),
        campaign({&prober}, derive_campaign_config(fed, config)) {
    campaign.set_fault_plan(config.faults);
    reset_fold_state();
  }

  /// Clears everything the merge fold derives (kept out of the member
  /// campaign, which owns its own checkpoint).
  void reset_fold_state() {
    state = MemberHealth::kHealthy;
    lag = 0;
    last_site.assign(config.targets.size(), core::kUnknownSite);
    last_epoch.assign(config.targets.size(), kNever);
    AdaptiveFloor::Config wcfg;  // defaults: alpha .25, warmup 3
    wcfg.initial = 1.0;
    weight = AdaptiveFloor(wcfg);
  }

  MemberConfig config;
  SubsetProber prober;
  Campaign campaign;

  // Health machine.
  MemberHealth state = MemberHealth::kHealthy;
  int lag = 0;

  // Freshness tables, member-local index -> last known answer.
  std::vector<core::SiteId> last_site;
  std::vector<std::size_t> last_epoch;

  /// Coverage EWMA feeding this member's voting weight.
  AdaptiveFloor weight;
};

Federation::Federation(const TargetProber& prober, FederationConfig config,
                       std::vector<MemberConfig> members)
    : config_(config) {
  if (config_.global_targets == 0) {
    throw FederationError("Federation: global_targets must be > 0");
  }
  if (prober.target_count() < config_.global_targets) {
    throw FederationError("Federation: prober smaller than target universe");
  }
  if (config_.epoch_length <= 0) {
    throw FederationError("Federation: epoch_length must be > 0");
  }
  if (config_.dead_after < 1) {
    throw FederationError("Federation: dead_after must be >= 1");
  }
  if (members.empty()) throw FederationError("Federation: no members");
  for (const MemberConfig& m : members) {
    if (m.targets.empty()) {
      throw FederationError("federation member '" + m.name + "': no targets");
    }
    for (const std::size_t g : m.targets) {
      if (g >= config_.global_targets) {
        throw FederationError("federation member '" + m.name +
                              "': target index out of range");
      }
    }
    if (m.start_offset < 0 || m.start_offset >= config_.epoch_length) {
      throw FederationError("federation member '" + m.name +
                            "': start_offset must be in [0, epoch_length)");
    }
    if (m.clock.drift_ppm <= -1'000'000) {
      throw FederationError("federation member '" + m.name +
                            "': clock runs backwards (drift_ppm <= -1e6)");
    }
  }
  members_.reserve(members.size());
  for (MemberConfig& m : members) {
    members_.push_back(
        std::make_unique<MemberState>(prober, config_, std::move(m)));
  }
  AdaptiveFloor::Config fcfg = config_.floor_tuning;
  fcfg.initial = config_.coverage_floor;
  floor_ = AdaptiveFloor(fcfg);
}

Federation::~Federation() = default;

const Campaign& Federation::member(std::size_t i) const {
  return members_.at(i)->campaign;
}

MemberHealth Federation::member_health(std::size_t i) const {
  return members_.at(i)->state;
}

double Federation::member_weight(std::size_t i) const {
  const MemberState& m = *members_.at(i);
  if (m.weight.samples() < m.weight.config().warmup) return 1.0;
  return std::clamp(m.weight.mean(), 0.05, 1.0);
}

std::size_t Federation::epoch_of(core::TimePoint t) const noexcept {
  if (t <= config_.start) return 0;
  return static_cast<std::size_t>((t - config_.start) / config_.epoch_length);
}

void Federation::update_member_health(std::size_t index, std::size_t epoch,
                                      bool fresh) {
  MemberState& m = *members_[index];
  if (fresh) {
    m.lag = 0;
    switch (m.state) {
      case MemberHealth::kDead:
        m.state = MemberHealth::kRejoined;
        if (!replaying_) {
          metrics().rejoins.inc();
          obs::event_bus().emit(
              obs::Severity::kNotice, "prober_rejoined",
              "\"epoch\":" + std::to_string(epoch) +
                  ",\"member\":" + std::to_string(index) + ",\"name\":\"" +
                  m.config.name + "\"");
        }
        break;
      case MemberHealth::kRejoined:
      case MemberHealth::kLagging:
        m.state = MemberHealth::kHealthy;
        break;
      case MemberHealth::kHealthy:
        break;
    }
    return;
  }
  if (m.state == MemberHealth::kDead) return;
  ++m.lag;
  if (m.lag >= config_.dead_after) {
    m.state = MemberHealth::kDead;
    if (!replaying_) {
      metrics().deaths.inc();
      obs::event_bus().emit(
          obs::Severity::kWarn, "prober_dead",
          "\"epoch\":" + std::to_string(epoch) +
              ",\"member\":" + std::to_string(index) + ",\"name\":\"" +
              m.config.name + "\",\"lagging_epochs\":" + std::to_string(m.lag));
    }
  } else {
    m.state = MemberHealth::kLagging;
  }
}

void Federation::fold_epoch(std::size_t epoch) {
  const std::size_t n = config_.global_targets;
  EpochReport rep;
  rep.epoch = epoch;
  rep.start = config_.start +
              static_cast<core::TimePoint>(epoch) * config_.epoch_length;
  rep.end = rep.start + config_.epoch_length;
  rep.targets = n;
  rep.floor = floor_.floor();

  // 1. Ingest each member's sweep for this epoch: align its local start
  // to true time through the member's clock model, update the freshness
  // tables from valid sweeps, and drive the health machine. Member
  // order is index order — the whole fold is deterministic.
  for (std::size_t mi = 0; mi < members_.size(); ++mi) {
    MemberState& m = *members_[mi];
    const core::RoutingVector& v = m.campaign.series().at(epoch);
    const SweepReport& sweep = m.campaign.reports().at(epoch);
    const std::size_t aligned =
        epoch_of(m.config.clock.to_true(sweep.start));
    bool fresh = false;
    if (v.valid) {
      for (std::size_t j = 0; j < m.config.targets.size(); ++j) {
        const core::SiteId s = v.assignment[j];
        if (s == core::kUnknownSite) continue;
        if (m.last_epoch[j] == kNever || aligned >= m.last_epoch[j]) {
          m.last_site[j] = s;
          m.last_epoch[j] = aligned;
        }
      }
      // A drifted clock can land a sweep in the wrong epoch: the data
      // still merges (at its aligned staleness) but the member does not
      // count as fresh — drift shows up as lag, which is exactly how a
      // merge point experiences it.
      fresh = aligned == epoch;
      m.weight.observe(sweep.coverage());
    }
    update_member_health(mi, epoch, fresh);
    if (!replaying_) {
      metrics().member_sweeps.inc();
    }
  }

  // 2. Merge: per target, coverage-weighted vote among answers within
  // the staleness bound. Ties break to the smallest SiteId; provenance
  // credits the freshest (then smallest-index) member voting for the
  // winner.
  struct Vote {
    double weight;
    std::size_t member;
    std::size_t staleness;
    core::SiteId site;
  };
  std::vector<std::vector<Vote>> votes(n);
  std::vector<char> any_aged(n, 0);
  for (std::size_t mi = 0; mi < members_.size(); ++mi) {
    const MemberState& m = *members_[mi];
    const double w = member_weight(mi);
    for (std::size_t j = 0; j < m.config.targets.size(); ++j) {
      if (m.last_epoch[j] == kNever) continue;
      const std::size_t g = m.config.targets[j];
      // A drift-ahead answer (aligned epoch beyond the current one)
      // clamps to fresh rather than going negative.
      const std::size_t staleness =
          m.last_epoch[j] >= epoch ? 0 : epoch - m.last_epoch[j];
      if (staleness > config_.staleness_bound) {
        any_aged[g] = 1;
        continue;
      }
      votes[g].push_back(Vote{w, mi, staleness, m.last_site[j]});
    }
  }

  core::RoutingVector out;
  out.time = rep.start;
  out.assignment.assign(n, core::kUnknownSite);
  std::vector<TargetProvenance> prov(n);
  for (std::size_t g = 0; g < n; ++g) {
    if (votes[g].empty()) {
      ++rep.unserved;
      if (any_aged[g]) ++rep.aged_out;
      continue;
    }
    std::map<core::SiteId, double> sums;
    for (const Vote& v : votes[g]) sums[v.site] += v.weight;
    auto best = sums.begin();
    for (auto it = sums.begin(); it != sums.end(); ++it) {
      if (it->second > best->second) best = it;  // ties keep smaller SiteId
    }
    const core::SiteId winner = best->first;
    out.assignment[g] = winner;

    const Vote* credit = nullptr;
    std::map<core::SiteId, char> fresh_sites;
    for (const Vote& v : votes[g]) {
      if (v.staleness == 0) fresh_sites[v.site] = 1;
      if (v.site != winner) continue;
      if (credit == nullptr || v.staleness < credit->staleness ||
          (v.staleness == credit->staleness && v.member < credit->member)) {
        credit = &v;
      }
    }
    prov[g].member = credit->member;
    prov[g].staleness = credit->staleness;
    prov[g].disagreed = fresh_sites.size() > 1;
    if (prov[g].disagreed) ++rep.disagreements;
    if (prov[g].staleness == 0) {
      ++rep.fresh;
    } else {
      ++rep.stale;
    }
  }

  rep.low_coverage = rep.coverage() < rep.floor;
  out.valid = !rep.low_coverage;
  for (const auto& m : members_) {
    switch (m->state) {
      case MemberHealth::kHealthy:
      case MemberHealth::kRejoined:
        ++rep.members_healthy;
        break;
      case MemberHealth::kLagging:
        ++rep.members_lagging;
        break;
      case MemberHealth::kDead:
        ++rep.members_dead;
        break;
    }
  }

  if (!replaying_) {
    metrics().epochs.inc();
    metrics().stale_served.inc(rep.stale);
    metrics().aged_out.inc(rep.aged_out);
    metrics().disagreements.inc(rep.disagreements);
    metrics().coverage.set(rep.coverage());
    if (rep.stale > 0 || rep.aged_out > 0) {
      // Aged-out answers mean the merge is actively losing ground, not
      // just coasting on cache — that earns a warning.
      obs::event_bus().emit(
          rep.aged_out > 0 ? obs::Severity::kWarn : obs::Severity::kNotice,
          "provenance_stale",
          "\"epoch\":" + std::to_string(epoch) +
              ",\"stale\":" + std::to_string(rep.stale) +
              ",\"aged_out\":" + std::to_string(rep.aged_out));
    }
    if (rep.low_coverage) {
      metrics().low_coverage.inc();
      obs::event_bus().emit(
          obs::Severity::kWarn, "federation_low_coverage",
          "\"epoch\":" + std::to_string(epoch) +
              ",\"coverage\":" + obs::render_double(rep.coverage()) +
              ",\"floor\":" + obs::render_double(rep.floor));
    }
    FENRIR_LOG(Debug)
            .field("epoch", epoch)
            .field("fresh", rep.fresh)
            .field("stale", rep.stale)
            .field("aged_out", rep.aged_out)
            .field("unserved", rep.unserved)
            .field("dead", rep.members_dead)
        << "federation epoch";
    {
      std::ostringstream os;
      os << "{\"epochs_completed\":" << (epoch + 1)
         << ",\"last_coverage\":" << obs::render_double(rep.coverage())
         << ",\"floor\":" << obs::render_double(rep.floor)
         << ",\"members_healthy\":" << rep.members_healthy
         << ",\"members_dead\":" << rep.members_dead
         << ",\"stale\":" << rep.stale << ",\"aged_out\":" << rep.aged_out
         << "}";
      obs::status_board().publish("federation", os.str());
    }
    obs::metrics_history().sample(false);
  }

  // The floor judging epoch e came from epochs < e; feed the EWMA only
  // afterwards, and never from a flagged epoch (same discipline as the
  // campaign floor — an outage must not normalize darkness).
  if (!rep.low_coverage) floor_.observe(rep.coverage());
  if (!replaying_) {
    metrics().floor.set(floor_.floor());
    metrics().members_healthy.set(static_cast<double>(rep.members_healthy));
    metrics().members_dead.set(static_cast<double>(rep.members_dead));
  }

  series_.push_back(std::move(out));
  reports_.push_back(rep);
  provenance_.push_back(std::move(prov));
}

bool Federation::step_epoch() {
  const std::size_t epoch = reports_.size();
  for (std::size_t mi = 0; mi < members_.size(); ++mi) {
    if (!members_[mi]->campaign.advance(epoch + 1)) {
      FENRIR_LOG(Warn)
              .field("epoch", epoch)
              .field("member", mi)
          << "federation member killed mid-sweep (fault plan)";
      return false;
    }
  }
  fold_epoch(epoch);
  return true;
}

FederationResult Federation::run(std::size_t epoch_count) {
  obs::Span span("federation/run");
  FederationResult out;
  while (reports_.size() < epoch_count) {
    if (!step_epoch()) {
      out.interrupted = true;
      break;
    }
  }
  out.series = series_;
  out.reports = reports_;
  out.provenance = provenance_;
  return out;
}

void Federation::save_checkpoint_dir(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw FederationError("cannot create checkpoint dir " + dir + ": " +
                          ec.message());
  }
  {
    const std::string path = dir + "/federation.csv";
    std::ofstream out(path);
    if (!out) throw FederationError("cannot open " + path + " for writing");
    io::CsvWriter csv(out);
    csv.row(kMagic, kVersion);
    csv.row("members", members_.size());
    csv.row("targets", config_.global_targets);
    csv.row("epochs", reports_.size());
    if (!out) throw FederationError("checkpoint write failed: " + path);
  }
  for (std::size_t mi = 0; mi < members_.size(); ++mi) {
    members_[mi]->campaign.save_checkpoint_file(dir + "/member_" +
                                                std::to_string(mi) + ".csv");
  }
}

void Federation::load_checkpoint_dir(const std::string& dir) {
  const std::string path = dir + "/federation.csv";
  std::ifstream in(path);
  if (!in) throw FederationError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto rows = io::parse_csv(buffer.str());
  if (rows.size() < 4 || rows[0].size() < 2 || rows[0][0] != kMagic) {
    throw FederationError("not a federation checkpoint (bad magic)");
  }
  if (rows[0][1] != kVersion) {
    throw FederationError("unsupported federation checkpoint version " +
                          rows[0][1]);
  }
  if (rows[1].size() != 2 || rows[1][0] != "members" ||
      parse_u64_field(rows[1][1], "member count") != members_.size()) {
    throw FederationError(
        "checkpoint member count does not match this federation");
  }
  if (rows[2].size() != 2 || rows[2][0] != "targets" ||
      parse_u64_field(rows[2][1], "target count") != config_.global_targets) {
    throw FederationError(
        "checkpoint target count does not match this federation");
  }
  if (rows[3].size() != 2 || rows[3][0] != "epochs") {
    throw FederationError("checkpoint: malformed epochs row");
  }
  const std::size_t epochs = parse_u64_field(rows[3][1], "epoch count");

  for (std::size_t mi = 0; mi < members_.size(); ++mi) {
    try {
      members_[mi]->campaign.load_checkpoint_file(
          dir + "/member_" + std::to_string(mi) + ".csv");
    } catch (const CampaignError& e) {
      throw FederationError("member " + std::to_string(mi) + ": " + e.what());
    }
    if (members_[mi]->campaign.series().size() < epochs) {
      throw FederationError("checkpoint: member " + std::to_string(mi) +
                            " has fewer sweeps than folded epochs");
    }
    members_[mi]->reset_fold_state();
  }

  // Rebuild the merge-side state by replaying the fold over the
  // restored member series, emission suppressed: the fold is a pure
  // function of those series, so the replay lands bit-identical to the
  // moment of the kill.
  AdaptiveFloor::Config fcfg = config_.floor_tuning;
  fcfg.initial = config_.coverage_floor;
  floor_ = AdaptiveFloor(fcfg);
  series_.clear();
  reports_.clear();
  provenance_.clear();
  replaying_ = true;
  for (std::size_t e = 0; e < epochs; ++e) fold_epoch(e);
  replaying_ = false;

  metrics().resumes.inc();
  obs::event_bus().emit(obs::Severity::kNotice, "federation_resumed",
                        "\"epochs\":" + std::to_string(epochs) +
                            ",\"members\":" + std::to_string(members_.size()));
  FENRIR_LOG(Info)
          .field("epochs", epochs)
          .field("members", members_.size())
      << "federation resumed from checkpoint";
}

ProvenanceSummary summarize_provenance(
    std::span<const TargetProvenance> epoch) {
  ProvenanceSummary out;
  std::map<std::size_t, std::size_t> served;  // member -> targets served
  for (const TargetProvenance& p : epoch) {
    if (p.disagreed) ++out.disagreements;
    if (p.member == kNoMember) continue;
    ++served[p.member];
    out.max_staleness = std::max(out.max_staleness, p.staleness);
  }
  std::size_t best = 0;
  for (const auto& [member, count] : served) {
    if (count > best) {  // strict: ties stay with the smaller index
      best = count;
      out.member = member;
    }
  }
  return out;
}

core::SimilarityMatrix fold_phi(std::span<const core::RoutingVector> series,
                                core::ModeBook& book,
                                std::span<const ProvenanceSummary> provenance,
                                core::UnknownPolicy policy,
                                std::vector<double> weights,
                                unsigned threads) {
  core::SimilarityMatrix m(policy, std::move(weights), threads);
  m.append_batch(series);
  obs::LineageStore& lin = obs::lineage();
  for (std::size_t r = 0; r < series.size(); ++r) {
    if (lin.enabled()) {
      const std::vector<std::size_t> chain = m.anchor_chain(r);
      lin.set_anchor_context(chain);
      if (r < provenance.size()) {
        const ProvenanceSummary& p = provenance[r];
        lin.set_provenance_context(p.member == kNoMember
                                       ? obs::kLineageNoMember
                                       : static_cast<std::uint64_t>(p.member),
                                   p.max_staleness, p.disagreements);
      }
    }
    book.observe(series[r]);
    // An invalid epoch never reaches record(); drop its context rather
    // than letting it ride on the next epoch's record.
    lin.clear_context();
  }
  return m;
}

}  // namespace fenrir::measure

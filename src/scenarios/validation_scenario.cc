#include "scenarios/validation_scenario.h"

#include <algorithm>
#include <functional>

#include "measure/atlas.h"
#include "netbase/ipv4.h"

namespace fenrir::scenarios {

namespace {

const char* kOperators[] = {"alice", "bob", "carol", "dave"};

struct TimelineAction {
  core::TimePoint time;
  std::function<void()> apply;
};

}  // namespace

ValidationScenario make_validation(const ValidationConfig& config) {
  ValidationScenario out;

  WorldConfig wc;
  wc.topo.seed = config.seed;
  World world = make_world(wc);
  bgp::AsGraph& graph = world.topo.graph;
  rng::Rng rng(config.seed);

  // --- Service: eight sites at major metros. ---
  const std::vector<std::string> site_names = {"LAX", "IAD", "AMS", "SIN",
                                               "NRT", "MIA", "SCL", "FRA"};
  const std::vector<geo::Coord> site_coords = {
      geo::city::LAX, geo::city::IAD, geo::city::AMS, geo::city::SIN,
      geo::city::NRT, geo::city::MIA, geo::city::SCL, {50.1, 8.7}};
  bgp::AnycastService service(*netbase::Prefix::parse("192.0.32.0/24"));
  std::vector<bgp::AsIndex> origin_of_site(site_names.size(), bgp::kNoAs);
  {
    std::vector<bgp::AsIndex> used;
    for (std::uint32_t s = 0; s < site_names.size(); ++s) {
      for (const bgp::AsIndex as :
           nearest_ases(world.topo, site_coords[s], bgp::AsTier::kStub, 10)) {
        if (std::find(used.begin(), used.end(), as) == used.end()) {
          service.add_site(s, as);
          origin_of_site[s] = as;
          used.push_back(as);
          break;
        }
      }
    }
  }

  // Third-party machinery: transit cones whose preference flips move a
  // guaranteed slice of networks between two sites, unknown to the
  // operator's log. Built before the probe so VPs can land inside them.
  const std::size_t flips_needed =
      config.third_party_free + config.internal_overlapping / 2;
  std::vector<PolicyFlip> flips;
  {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (std::uint32_t a = 0; a < site_names.size(); ++a) {
      for (std::uint32_t b = 0; b < site_names.size(); ++b) {
        if (a != b) pairs.emplace_back(a, b);
      }
    }
    rng.shuffle(pairs);
    const std::vector<bgp::Origin> verify = service.active_origins();
    std::uint32_t asn = 64700;
    for (const auto& [sa, sb] : pairs) {
      if (flips.size() >= flips_needed) break;
      // Sites homed under one provider cannot carry a cone between them
      // (add_shiftable_cone refuses the pair); try the next pair.
      if (first_provider(graph, origin_of_site[sa]) ==
          first_provider(graph, origin_of_site[sb])) {
        continue;
      }
      if (const auto cone =
              add_shiftable_cone(world, origin_of_site[sa],
                                 origin_of_site[sb], 0.045, asn++, rng,
                                 &verify)) {
        flips.push_back(cone->flip);
      }
    }
  }
  out.third_party_events = flips.size();

  // --- Probe, server, identity mapping. ---
  measure::AtlasConfig ac;
  ac.vp_count = config.vp_count;
  // Low per-query loss so detector baselines stay tight: with heavy loss,
  // rare binomial coincidences across ~5000 observations would masquerade
  // as events (real Atlas analysis smooths the same way by aggregating
  // retries).
  ac.query_loss = 0.004;
  ac.seed = rng::mix(config.seed, 0xa71a5ULL);
  const measure::AtlasProbe probe(graph, ac);

  std::vector<std::string> tokens;
  for (const auto& name : site_names) {
    std::string t = name;
    for (char& c : t) c = static_cast<char>(std::tolower(c));
    tokens.push_back(t);
  }
  const measure::AnycastDnsServer server(tokens, config.seed);
  measure::ServerIdentityMap identity_map;
  for (std::uint32_t s = 0; s < tokens.size(); ++s) {
    identity_map.add(tokens[s], s);
  }

  out.dataset.name = "B-Root/Atlas validation";
  for (std::uint32_t v = 0; v < probe.vantage_points().size(); ++v) {
    out.dataset.networks.intern(v);
  }
  const std::vector<core::SiteId> site_to_core =
      make_site_mapping(out.dataset.sites, site_names);

  // --- Which sites can be drained detectably? ---
  const bgp::RoutingTable& baseline =
      world.cache.get(graph, service.active_origins());
  std::vector<std::uint32_t> drainable;
  {
    std::vector<std::size_t> share(site_names.size(), 0);
    for (const bgp::AsIndex as : world.topo.stubs) {
      if (const auto c = baseline.catchment(as)) ++share[*c];
    }
    for (std::uint32_t s = 0; s < site_names.size(); ++s) {
      const double frac = static_cast<double>(share[s]) /
                          static_cast<double>(world.topo.stubs.size());
      if (frac >= 0.04 && frac <= 0.6) drainable.push_back(s);
    }
  }
  if (drainable.empty()) drainable.push_back(0);

  // --- Traffic-engineering knobs: (site, prepend) with a visible but
  // bounded shift. ---
  struct TeKnob {
    std::uint32_t site;
    std::uint8_t prepend;
  };
  std::vector<TeKnob> te_knobs;
  for (const std::uint32_t s : drainable) {
    if (te_knobs.size() >= config.te_groups) break;
    for (const std::uint8_t p : {std::uint8_t{2}, std::uint8_t{4},
                                 std::uint8_t{6}}) {
      service.set_prepend(s, p);
      const bgp::RoutingTable& after =
          world.cache.get(graph, service.active_origins());
      const double shift = catchment_shift_fraction(world.topo, baseline, after);
      service.set_prepend(s, 0);
      if (shift >= 0.04 && shift <= 0.4) {
        te_knobs.push_back(TeKnob{s, p});
        break;
      }
    }
  }

  // --- Schedule: 4-hour slots over the observation window, shuffled. ---
  const core::TimePoint t0 = core::from_date(2023, 3, 1);
  const core::TimePoint t_end =
      t0 + static_cast<core::TimePoint>(config.weeks) * 7 * core::kDay;
  std::vector<core::TimePoint> slots;
  for (core::TimePoint t = t0 + 8 * core::kHour; t + 2 * core::kHour < t_end;
       t += 4 * core::kHour) {
    slots.push_back(t);
  }
  rng.shuffle(slots);
  std::size_t next_slot = 0;
  const auto take_slot = [&]() -> core::TimePoint {
    if (next_slot >= slots.size()) {
      throw std::runtime_error("validation scenario: out of time slots");
    }
    return slots[next_slot++];
  };

  std::vector<TimelineAction> actions;
  std::size_t op_cursor = 0;
  const auto next_op = [&]() -> std::string {
    return kOperators[op_cursor++ % std::size(kOperators)];
  };

  // Drain groups: drain at t, restore one cadence later; 3 log entries.
  // Sites used for traffic engineering are excluded: the persistent
  // prepend empties their catchment, which would make a later drain
  // externally invisible and (correctly but confusingly) undetectable.
  std::vector<std::uint32_t> drain_sites;
  for (const std::uint32_t s : drainable) {
    bool is_te = false;
    for (const TeKnob& k : te_knobs) is_te |= (k.site == s);
    if (!is_te) drain_sites.push_back(s);
  }
  if (drain_sites.empty()) drain_sites.push_back(drainable.front());
  for (std::size_t i = 0; i < config.drain_groups; ++i) {
    const core::TimePoint t = take_slot();
    const std::uint32_t site = drain_sites[i % drain_sites.size()];
    const std::string op = next_op();
    actions.push_back(
        {t, [&service, site] { service.set_drained(site, true); }});
    actions.push_back({t + config.cadence,
                       [&service, site] { service.set_drained(site, false); }});
    out.log_entries.push_back({t, op, validation::MaintenanceKind::kSiteDrain,
                               "drain " + site_names[site]});
    out.log_entries.push_back({t + 3 * core::kMinute, op,
                               validation::MaintenanceKind::kInternal,
                               "swap router " + site_names[site]});
    out.log_entries.push_back({t + config.cadence, op,
                               validation::MaintenanceKind::kSiteDrain,
                               "restore " + site_names[site]});
  }

  // TE groups: persistent prepend changes; 2 log entries each.
  for (std::size_t i = 0; i < te_knobs.size(); ++i) {
    const core::TimePoint t = take_slot();
    const TeKnob knob = te_knobs[i];
    const std::string op = next_op();
    actions.push_back({t, [&service, knob] {
                         service.set_prepend(knob.site, knob.prepend);
                       }});
    out.log_entries.push_back({t, op,
                               validation::MaintenanceKind::kTrafficEngineering,
                               "prepend " + site_names[knob.site]});
    out.log_entries.push_back({t + 2 * core::kMinute, op,
                               validation::MaintenanceKind::kInternal,
                               "update monitoring"});
  }

  // Third-party flips. The first `internal_overlapping/2` of them get
  // internal-only log groups scheduled on both their dips (the paper's
  // "FP?" rows); the rest are entirely unlogged.
  const core::TimePoint flip_duration = 64 * core::kMinute;
  std::size_t overlap_budget = config.internal_overlapping;
  std::size_t internal_scheduled = 0;
  for (std::size_t i = 0; i < flips.size(); ++i) {
    const core::TimePoint t = take_slot();
    const PolicyFlip flip = flips[i];
    actions.push_back({t, [&graph, flip] { flip.apply(graph); }});
    actions.push_back(
        {t + flip_duration, [&graph, flip] { flip.revert(graph); }});
    out.third_party_times.push_back(t);
    out.third_party_times.push_back(t + flip_duration);
    if (i < config.internal_overlapping / 2 && overlap_budget >= 2) {
      // Two coincident internal-only groups by different operators.
      out.log_entries.push_back({t + core::kMinute, next_op(),
                                 validation::MaintenanceKind::kInternal,
                                 "replace PSU"});
      out.log_entries.push_back({t + flip_duration + core::kMinute, next_op(),
                                 validation::MaintenanceKind::kInternal,
                                 "rotate certs"});
      overlap_budget -= 2;
      internal_scheduled += 2;
    }
  }

  // Remaining internal-only groups: quiet maintenance, 1-2 entries.
  for (; internal_scheduled < config.internal_groups; ++internal_scheduled) {
    const core::TimePoint t = take_slot();
    const std::string op = next_op();
    out.log_entries.push_back(
        {t, op, validation::MaintenanceKind::kInternal, "patch host"});
    if (internal_scheduled % 2 == 0) {
      out.log_entries.push_back({t + 4 * core::kMinute, op,
                                 validation::MaintenanceKind::kInternal,
                                 "reboot host"});
    }
  }

  // --- Sweep. ---
  std::sort(actions.begin(), actions.end(),
            [](const TimelineAction& a, const TimelineAction& b) {
              return a.time < b.time;
            });
  std::size_t next_action = 0;
  for (core::TimePoint t = t0; t < t_end; t += config.cadence) {
    while (next_action < actions.size() && actions[next_action].time <= t) {
      actions[next_action].apply();
      ++next_action;
    }
    const bgp::RoutingTable& routing =
        world.cache.get(graph, service.active_origins());
    core::RoutingVector v;
    v.time = t;
    v.assignment =
        probe.measure(t, routing, server, identity_map, site_to_core);
    out.dataset.series.push_back(std::move(v));
  }
  out.dataset.check_consistent();
  return out;
}

}  // namespace fenrir::scenarios

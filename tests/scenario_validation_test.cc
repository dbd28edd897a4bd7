#include "scenarios/validation_scenario.h"

#include <gtest/gtest.h>

#include "core/events.h"
#include "validation/confusion.h"

namespace fenrir::scenarios {
namespace {

ValidationConfig test_config() {
  ValidationConfig cfg;
  cfg.vp_count = 700;
  cfg.weeks = 4;
  cfg.drain_groups = 10;
  cfg.te_groups = 2;
  cfg.internal_groups = 20;
  cfg.internal_overlapping = 4;
  cfg.third_party_free = 3;
  return cfg;
}

class ValidationScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new ValidationScenario(make_validation(test_config()));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static ValidationScenario* scenario_;
};

ValidationScenario* ValidationScenarioTest::scenario_ = nullptr;

TEST_F(ValidationScenarioTest, LogStructureMatchesConfig) {
  const auto groups = validation::group_entries(scenario_->log_entries);
  std::size_t drains = 0, te = 0, internal = 0;
  for (const auto& g : groups) {
    switch (g.kind) {
      case validation::MaintenanceKind::kSiteDrain: ++drains; break;
      case validation::MaintenanceKind::kTrafficEngineering: ++te; break;
      case validation::MaintenanceKind::kInternal: ++internal; break;
    }
  }
  EXPECT_EQ(drains, 10u);
  EXPECT_EQ(te, 2u);
  EXPECT_EQ(internal, 20u);
  // Raw entries over-fragment relative to groups.
  EXPECT_GT(scenario_->log_entries.size(), groups.size());
}

TEST_F(ValidationScenarioTest, ThirdPartyFlipsWereFound) {
  // third_party_free + internal_overlapping/2 flips requested.
  EXPECT_EQ(scenario_->third_party_events, 5u);
  EXPECT_EQ(scenario_->third_party_times.size(), 10u);
}

TEST_F(ValidationScenarioTest, Table4ShapeReproduced) {
  const auto groups = validation::group_entries(scenario_->log_entries);
  const auto events = core::detect_changes(scenario_->dataset);
  const auto result = validation::validate(groups, events);

  // The paper's headline: perfect recall — every external event found.
  EXPECT_EQ(result.confusion.fn, 0u);
  EXPECT_EQ(result.confusion.tp, 12u);  // 10 drains + 2 TE
  EXPECT_EQ(result.drains_detected, 10u);
  EXPECT_EQ(result.te_detected, 2u);
  EXPECT_DOUBLE_EQ(result.confusion.recall(), 1.0);

  // Internal groups scheduled on third-party dips become apparent FPs.
  EXPECT_EQ(result.confusion.fp, 4u);
  EXPECT_EQ(result.confusion.tn, 16u);

  // Unlogged third-party flips appear as unmatched detections: the
  // paper's "(*) external changes?" row. Each flip has two dips; allow
  // detector dedup within a dip.
  EXPECT_GE(result.third_party_candidates, 3u);
  EXPECT_LE(result.third_party_candidates, 8u);

  // Precision is degraded exactly the way the paper describes.
  EXPECT_LT(result.confusion.precision(), 1.0);
  EXPECT_GE(result.confusion.precision(), 0.6);
}

TEST_F(ValidationScenarioTest, NoSpuriousDetectionsInQuietStretches) {
  // Every detection should be attributable to a scheduled cause: a
  // logged group or a third-party flip.
  const auto groups = validation::group_entries(scenario_->log_entries);
  const auto events = core::detect_changes(scenario_->dataset);
  const core::TimePoint tol = 12 * core::kMinute;
  for (const auto& e : events) {
    bool explained = false;
    for (const auto& g : groups) {
      if (e.time >= g.start - tol && e.time <= g.end + tol) {
        explained = true;
        break;
      }
    }
    for (const auto t : scenario_->third_party_times) {
      if (e.time >= t - tol && e.time <= t + tol) {
        explained = true;
        break;
      }
    }
    EXPECT_TRUE(explained) << "unexplained detection at "
                           << core::format_time(e.time);
  }
}

// At these offsets from the default seed the shuffled site pairs reach
// two sites homed under one provider before enough cones are found.
// make_validation used to die there on add_shiftable_cone's refusal; it
// must skip the pair and still find every requested flip.
TEST(ValidationScenarioSeeds, SharedProviderPairsAreSkipped) {
  for (const std::uint64_t offset : {8, 9, 18, 20, 23, 31, 36, 39}) {
    ValidationConfig cfg = test_config();
    cfg.vp_count = 20;
    cfg.weeks = 1;
    cfg.drain_groups = 2;
    cfg.internal_groups = 4;
    cfg.seed = ValidationConfig{}.seed + offset;
    ValidationScenario s;
    ASSERT_NO_THROW(s = make_validation(cfg)) << "seed offset " << offset;
    EXPECT_EQ(s.third_party_events, 5u) << "seed offset " << offset;
    EXPECT_FALSE(s.dataset.series.empty()) << "seed offset " << offset;
  }
}

}  // namespace
}  // namespace fenrir::scenarios

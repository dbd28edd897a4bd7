#include "io/snapshot.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset_io.h"
#include "core/distance_matrix.h"
#include "core/modebook.h"
#include "io/segment_store.h"
#include "io/wire.h"
#include "obs/metrics.h"
#include "rng/rng.h"

namespace fenrir::io {
namespace {

namespace fs = std::filesystem;
using core::Dataset;
using core::DatasetIoError;
using core::kDay;
using core::kFirstRealSite;
using core::kUnknownSite;
using core::ModeBook;
using core::RoutingVector;
using core::SimilarityMatrix;
using core::SiteId;
using core::TimePoint;
using core::UnknownPolicy;

/// A per-test scratch directory under the system temp dir, removed on
/// destruction (also at the start, in case a died test left one).
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path(fs::temp_directory_path() /
             ("fenrir_snapshot_test_" + name + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  fs::path path;
};

/// Mode-alternating dataset with `site_count` sites — large counts push
/// PackedSeries to its 2- and 4-byte widths, which the snapshot stores
/// natively.
Dataset periodic_dataset(std::size_t obs, std::size_t nets,
                         std::size_t site_count, double churn,
                         std::uint64_t seed, double invalid_frac = 0.1,
                         bool weighted = false) {
  Dataset d;
  d.name = "snapshot-periodic";
  for (std::size_t n = 0; n < nets; ++n) d.networks.intern(n);
  for (std::size_t s = 0; s < site_count; ++s) {
    d.sites.intern("site" + std::to_string(s));
  }
  rng::Rng r(seed);
  const auto random_site = [&]() -> SiteId {
    return r.bernoulli(0.1) ? kUnknownSite
                            : static_cast<SiteId>(kFirstRealSite +
                                                  r.uniform(site_count));
  };
  RoutingVector modes[2];
  for (auto& m : modes) {
    m.assignment.resize(nets);
    for (auto& s : m.assignment) s = random_site();
  }
  const auto flips = static_cast<std::size_t>(churn * nets);
  for (std::size_t t = 0; t < obs; ++t) {
    RoutingVector& m = modes[(t / 5) % 2];
    m.time = static_cast<TimePoint>(t) * kDay;
    m.valid = !r.bernoulli(invalid_frac);
    d.series.push_back(m);
    for (std::size_t k = 0; k < flips; ++k) {
      m.assignment[r.uniform(nets)] = random_site();
    }
  }
  if (weighted) {
    d.weights.resize(nets);
    for (auto& w : d.weights) w = 0.1 + r.uniform01() * 2.0;
  }
  return d;
}

void expect_bit_identical(const SimilarityMatrix& got,
                          const SimilarityMatrix& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.valid(i), want.valid(i)) << label << " row " << i;
    for (std::size_t j = 0; j <= i; ++j) {
      ASSERT_EQ(got.phi(i, j), want.phi(i, j))
          << label << " phi(" << i << "," << j << ")";
    }
  }
}

/// The central property: a matrix saved mid-series, decoded, and grown
/// over the remaining observations is bit-identical to one that never
/// left memory — the snapshot preserves the anchors and packed rows
/// that make every append path deterministic.
TEST(SnapshotRoundTrip, SaveLoadAppendBitIdenticalToContinuous) {
  struct Case {
    std::size_t site_count;  // 6 → 1-byte packing, 300 → 2-byte
    bool weighted;
  };
  const Case cases[] = {{6, false}, {300, false}, {6, true}};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const Case& c : cases) {
      for (const auto policy :
           {UnknownPolicy::kPessimistic, UnknownPolicy::kKnownOnly}) {
        const Dataset d =
            periodic_dataset(30, 200, c.site_count, 0.02, seed, 0.1,
                             c.weighted);
        SimilarityMatrix continuous(policy, d.weights, 1);
        for (const RoutingVector& v : d.series) continuous.append(v);

        SimilarityMatrix partial(policy, d.weights, 1);
        for (std::size_t t = 0; t < 15; ++t) partial.append(d.series[t]);
        Snapshot out;
        out.prefix_hash = dataset_prefix_hash(d, 15);
        out.processed = 15;
        out.matrix = std::move(partial);
        const std::string bytes = encode_snapshot(out);

        Snapshot in = decode_snapshot(bytes);
        ASSERT_TRUE(in.matrix.has_value());
        ASSERT_EQ(in.processed, 15u);
        ASSERT_EQ(in.prefix_hash, out.prefix_hash);
        ASSERT_EQ(in.matrix->policy(), policy);
        for (std::size_t t = 15; t < d.series.size(); ++t) {
          in.matrix->append(d.series[t]);
        }
        expect_bit_identical(
            *in.matrix, continuous,
            "seed=" + std::to_string(seed) +
                " sites=" + std::to_string(c.site_count) +
                " weighted=" + std::to_string(c.weighted));
      }
    }
  }
}

// Site ids above 65535 force 4-byte packed rows; the snapshot stores
// them at that width and the resumed matrix still patches correctly.
TEST(SnapshotRoundTrip, FourByteWidthSurvives) {
  rng::Rng r(99);
  const std::size_t nets = 60;
  std::vector<RoutingVector> series;
  RoutingVector v;
  v.valid = true;
  v.assignment.resize(nets);
  for (auto& s : v.assignment) {
    s = static_cast<SiteId>(kFirstRealSite + r.uniform(70000));
  }
  for (std::size_t t = 0; t < 12; ++t) {
    v.time = static_cast<TimePoint>(t) * kDay;
    series.push_back(v);
    v.assignment[r.uniform(nets)] =
        static_cast<SiteId>(kFirstRealSite + r.uniform(70000));
  }

  SimilarityMatrix continuous(UnknownPolicy::kPessimistic, {}, 1);
  for (const RoutingVector& obs : series) continuous.append(obs);

  SimilarityMatrix partial(UnknownPolicy::kPessimistic, {}, 1);
  for (std::size_t t = 0; t < 6; ++t) partial.append(series[t]);
  Snapshot out;
  out.processed = 6;
  out.matrix = std::move(partial);
  Snapshot in = decode_snapshot(encode_snapshot(out));
  ASSERT_TRUE(in.matrix.has_value());
  for (std::size_t t = 6; t < series.size(); ++t) in.matrix->append(series[t]);
  expect_bit_identical(*in.matrix, continuous, "width 4");
}

/// Decodes corrupted bytes and returns the diagnostic.
std::string decode_error(std::string bytes) {
  try {
    (void)decode_snapshot(bytes);
  } catch (const DatasetIoError& e) {
    return e.what();
  }
  return "";
}

// Every corruption class gets its own actionable message (satellite 2):
// an operator seeing the error knows whether the file is foreign, from
// another build, cut short, appended to, or bit-rotted.
TEST(SnapshotCorruption, EachFailureModeIsDistinct) {
  const Dataset d = periodic_dataset(10, 80, 6, 0.05, 3);
  SimilarityMatrix m(UnknownPolicy::kPessimistic, {}, 1);
  for (const RoutingVector& v : d.series) m.append(v);
  Snapshot snap;
  snap.processed = d.series.size();
  snap.prefix_hash = dataset_prefix_hash(d, d.series.size());
  snap.matrix = std::move(m);
  const std::string good = encode_snapshot(snap);
  ASSERT_EQ(decode_error(good), "");  // sanity: the original decodes

  std::string bad = good;
  bad[0] ^= '\xff';
  EXPECT_NE(decode_error(bad).find("bad magic"), std::string::npos);

  bad = good;
  bad[8] ^= '\xff';  // version u32 little-endian LSB
  EXPECT_NE(decode_error(bad).find("version skew"), std::string::npos);

  EXPECT_NE(decode_error(good.substr(0, good.size() - 9)).find("truncated"),
            std::string::npos);

  EXPECT_NE(decode_error(good + "zz").find("trailing bytes"),
            std::string::npos);

  bad = good;
  bad[good.size() / 2] ^= 0x01;  // payload bit rot
  EXPECT_NE(decode_error(bad).find("checksum mismatch"), std::string::npos);

  EXPECT_NE(decode_error("").find("bad magic"), std::string::npos);
}

TEST(SnapshotCorruption, CorruptionsCountInMetrics) {
  auto& corrupt = obs::registry().counter("fenrir_snapshot_corrupt_total");
  const auto before = corrupt.value();
  EXPECT_NE(decode_error("not a snapshot"), "");
  EXPECT_GT(corrupt.value(), before);
}

// A watch state migrated through `segment import` must disagree loudly
// when the dataset underneath it changed: shrunk (processed runs past
// the end) or rewritten (prefix hash mismatch).
TEST(SnapshotWatchState, DatasetMismatchesAreActionable) {
  ScratchDir dir("mismatch");
  Dataset d = periodic_dataset(20, 100, 6, 0.02, 5);
  ModeBook book;
  SimilarityMatrix m(ModeBook::Config{}.policy, d.weights, 1);
  for (const RoutingVector& v : d.series) {
    book.observe(v);
    m.append(v);
  }
  Snapshot state;
  state.processed = d.series.size();
  state.prefix_hash = dataset_prefix_hash(d, d.series.size());
  state.matrix = std::move(m);
  state.has_modebook = true;
  for (std::size_t k = 0; k < book.mode_count(); ++k) {
    state.representatives.push_back(book.representative(k));
  }
  state.history = book.history();
  const fs::path path = dir.path / "state.bin";
  atomic_write_file(path, encode_snapshot(state));
  SegmentStore::import_snapshot(load_snapshot_file(path), dir.path / "store",
                                SegmentStoreConfig{});
  const SegmentStore store(dir.path / "store", SegmentStoreConfig{});
  EXPECT_EQ(store.load(&d).history, book.history());

  Dataset shrunk = d;
  shrunk.series.resize(10);
  try {
    (void)store.load(&shrunk);
    FAIL() << "shrunk dataset accepted";
  } catch (const DatasetIoError& e) {
    EXPECT_NE(std::string(e.what()).find("ahead of the dataset"),
              std::string::npos)
        << e.what();
  }

  Dataset rewritten = d;
  rewritten.series[3].assignment[7] =
      rewritten.series[3].assignment[7] == kUnknownSite
          ? kFirstRealSite
          : kUnknownSite;
  try {
    (void)store.load(&rewritten);
    FAIL() << "rewritten dataset accepted";
  } catch (const DatasetIoError& e) {
    EXPECT_NE(std::string(e.what()).find("prefix hash mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(SnapshotHash, PrefixHashIsPrefixStable) {
  Dataset d = periodic_dataset(20, 100, 6, 0.02, 13);
  const std::uint64_t h = dataset_prefix_hash(d, 12);
  Dataset grown = d;
  grown.series.push_back(d.series.back());  // growth keeps the prefix
  EXPECT_EQ(dataset_prefix_hash(grown, 12), h);
  EXPECT_NE(dataset_prefix_hash(d, 11), h);

  Dataset reweighted = d;
  reweighted.weights.assign(d.networks.size(), 1.0);
  EXPECT_NE(dataset_prefix_hash(reweighted, 12), h);
}

// A kill in the middle of an atomic write (chaos killpoint) must leave
// the previous file byte-for-byte intact — the temp-file + rename
// protocol the segment store's MANIFEST relies on never exposes a
// half-written file.
TEST(SnapshotAtomicityDeathTest, KillMidSaveLeavesOldFileIntact) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScratchDir dir("kill");
  const fs::path path = dir.path / "state.bin";

  const Dataset d = periodic_dataset(12, 100, 6, 0.02, 17);
  SimilarityMatrix m(UnknownPolicy::kPessimistic, {}, 1);
  for (const RoutingVector& v : d.series) m.append(v);
  Snapshot snap;
  snap.processed = d.series.size();
  snap.prefix_hash = dataset_prefix_hash(d, d.series.size());
  snap.matrix = std::move(m);
  const std::string bytes = encode_snapshot(snap);
  atomic_write_file(path, bytes);

  std::string before;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    before = std::move(buf).str();
  }
  ASSERT_FALSE(before.empty());

  EXPECT_EXIT(
      {
        ::setenv("FENRIR_CHAOS_KILL_SAVE", "16", 1);
        atomic_write_file(path, bytes);
      },
      ::testing::ExitedWithCode(137), "");

  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(std::move(buf).str(), before);
}


// Every FENRSEG and FENRSNAP file carries payload_checksum values, so
// the function is part of the format. These answers come from the
// build that wrote the existing files (before the tail fold's shift
// was made well-defined); a change here orphans every store on disk.
// Sizes 0–40 cover the empty input, every tail length 1–31 — the
// undefined-shift cases were tails of 9+ bytes — and one full 32-byte
// block followed by tails of 0–8.
TEST(PayloadChecksum, KnownAnswersForSizes0To40) {
  constexpr std::uint32_t kWant[] = {
      0x9C4046CDu, 0x9F80A2CDu, 0x588FC2D4u, 0x625FD4D4u,
      0x9ABACF54u, 0x1A916899u, 0x0B91D861u, 0x0279B849u,
      0xF93FCDD3u, 0xF6F12B73u, 0x72F10399u, 0x20CB5459u,
      0x18051C6Eu, 0xFE74009Bu, 0xF1793589u, 0x6A54B7EEu,
      0xC5D22E41u, 0xF259158Cu, 0x7E98B108u, 0xD7AE9C28u,
      0xD7AE9C2Fu, 0xCBB2AD96u, 0x43126F03u, 0x43126F02u,
      0xC9F85C56u, 0xF10164EFu, 0xF10164ECu, 0xF10164EDu,
      0xF10164EAu, 0xF10164EBu, 0xF10164E8u, 0xF10164E9u,
      0xD1D03F99u, 0x066DAF42u, 0x568C78D9u, 0x76915780u,
      0x9D17CC1Bu, 0x9685BB2Au, 0xC69EF82Cu, 0x5BA1C52Cu,
      0x3F4CB0E3u,
  };
  unsigned char buf[40];
  for (std::size_t i = 0; i < sizeof(buf); ++i) {
    buf[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  for (std::size_t n = 0; n <= sizeof(buf); ++n) {
    EXPECT_EQ(wire::payload_checksum(buf, n), kWant[n]) << "size " << n;
  }
}

}  // namespace
}  // namespace fenrir::io

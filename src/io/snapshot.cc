#include "io/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

#include "chaos/killpoint.h"
#include "io/wire.h"
#include "obs/events.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/status_board.h"

namespace fenrir::io {

namespace {

using core::DatasetIoError;
using wire::fnv_init;
using wire::fnv_mix;
using wire::fnv_mix_u64;
using wire::patch_u64;
using wire::payload_checksum;
using wire::put_u32;
using wire::put_u64;
using wire::put_u64_array;
using wire::put_u8;
using wire::Reader;

struct SnapMetrics {
  obs::Counter& load_total;
  obs::Counter& load_bytes;
  obs::Gauge& load_seconds;
  obs::Counter& corrupt;
};

SnapMetrics& snap_metrics() {
  static SnapMetrics m{
      obs::registry().counter("fenrir_snapshot_load_total",
                              "snapshot files loaded"),
      obs::registry().counter("fenrir_snapshot_load_bytes_total",
                              "bytes read from snapshot files"),
      obs::registry().gauge("fenrir_snapshot_load_seconds",
                            "wall time of the last snapshot load"),
      obs::registry().counter(
          "fenrir_snapshot_corrupt_total",
          "snapshot loads rejected as corrupt, truncated, or version-skewed")};
  return m;
}

}  // namespace

// SnapshotCodec is the single friend of SimilarityMatrix and
// PackedSeries: it moves their private state to and from the wire
// without widening either class's public API.
class SnapshotCodec {
 public:
  static void encode_matrix(std::string& out,
                            const core::SimilarityMatrix& m) {
    const std::size_t n = m.n_;
    put_u64(out, n);
    put_u64(out, m.packed_.networks_);
    put_u64(out, m.packed_.width_);
    put_u64(out, m.weights_.size());
    put_u64_array(out, m.weights_.data(), m.weights_.size());
    for (const char v : m.valid_) put_u8(out, v ? 1 : 0);
    // A matrix resumed from a segment store may hold its oldest rows as
    // borrowed pages — write those row by row, then the owned rest in
    // one append. A fully-owned matrix takes only the bulk append.
    const std::size_t stride = m.packed_.networks_ * m.packed_.width_;
    for (const std::byte* row : m.packed_.mapped_) {
      out.append(reinterpret_cast<const char*>(row), stride);
    }
    out.append(reinterpret_cast<const char*>(m.packed_.data_.data()),
               m.packed_.data_.size());
    const std::size_t value_count = n * (n + 1) / 2;
    put_u64(out, value_count);
    for (std::size_t r = 0; r < m.values_.mapped_rows(); ++r) {
      put_u64_array(out, m.values_.row(r), r + 1);
    }
    put_u64_array(out, m.values_.owned_data(), m.values_.owned_count());
    static_assert(sizeof(core::MatchCounts) == 16,
                  "MatchCounts must stay two packed u64s — the snapshot "
                  "codec writes anchor counts as a flat word array");
    const auto encode_anchors = [&](const auto& anchors) {
      put_u64(out, anchors.size());
      for (const auto& a : anchors) {
        put_u64(out, a.row);
        put_u64(out, a.est_delta);
        put_u64(out, a.last_used);
        put_u64_array(out, a.counts.data(), a.counts.size() * 2);
      }
    };
    encode_anchors(m.recent_);
    encode_anchors(m.representatives_);
    put_u64(out, m.append_clock_);
    put_u64(out, m.probe_cooldown_);
    put_u64(out, m.probe_failures_);
  }

  static core::SimilarityMatrix decode_matrix(Reader& r,
                                              core::UnknownPolicy policy,
                                              unsigned threads) {
    const std::size_t n = r.get_count(1);
    const std::size_t networks = static_cast<std::size_t>(r.get_u64());
    const std::size_t width = static_cast<std::size_t>(r.get_u64());
    if (width != 1 && width != 2 && width != 4) {
      throw DatasetIoError(
          "snapshot: inconsistent matrix section — packed width " +
          std::to_string(width) + " is not 1, 2, or 4");
    }
    const std::size_t weight_count = r.get_count(8);
    std::vector<double> weights(weight_count);
    r.get_u64_array(weights.data(), weight_count);

    core::SimilarityMatrix m(policy, std::move(weights), threads);
    m.n_ = n;
    m.valid_.resize(n);
    for (char& v : m.valid_) v = r.get_u8() ? 1 : 0;
    if (n > 0 && networks > 0 && width > 0 &&
        n > (r.size - r.off) / networks / width) {
      throw DatasetIoError(
          "snapshot: malformed section — a count exceeds the recorded "
          "payload");
    }
    m.packed_.networks_ = networks;
    m.packed_.rows_ = n;
    m.packed_.width_ = width;
    m.packed_.data_.resize(n * networks * width);
    r.get_bytes(m.packed_.data_.data(), m.packed_.data_.size());
    const std::size_t value_count = r.get_count(8);
    if (value_count != n * (n + 1) / 2) {
      throw DatasetIoError(
          "snapshot: inconsistent matrix section — " +
          std::to_string(value_count) + " phi values for " +
          std::to_string(n) + " observations (expected n(n+1)/2)");
    }
    m.values_.assign_owned(n);
    r.get_u64_array(m.values_.owned_data(), value_count);
    const auto decode_anchors = [&](auto& anchors) {
      const std::size_t count = r.get_count(24 + 16 * n);
      for (std::size_t k = 0; k < count; ++k) {
        core::SimilarityMatrix::AnchorRow a;
        a.row = static_cast<std::size_t>(r.get_u64());
        if (a.row >= n) {
          throw DatasetIoError(
              "snapshot: inconsistent matrix section — anchor row " +
              std::to_string(a.row) + " out of range");
        }
        a.est_delta = static_cast<std::size_t>(r.get_u64());
        a.last_used = r.get_u64();
        a.counts.resize(n);
        r.get_u64_array(a.counts.data(), n * 2);
        anchors.push_back(std::move(a));
      }
    };
    decode_anchors(m.recent_);
    decode_anchors(m.representatives_);
    m.append_clock_ = r.get_u64();
    m.probe_cooldown_ = static_cast<std::size_t>(r.get_u64());
    m.probe_failures_ = static_cast<std::size_t>(r.get_u64());
    return m;
  }
};

std::uint64_t dataset_prefix_hash(const core::Dataset& dataset,
                                  std::size_t rows) {
  if (rows > dataset.series.size()) {
    throw std::invalid_argument(
        "dataset_prefix_hash: prefix longer than the dataset");
  }
  std::uint64_t h = fnv_init();
  fnv_mix_u64(h, dataset.networks.size());
  for (core::NetId id = 0; id < dataset.networks.size(); ++id) {
    fnv_mix_u64(h, dataset.networks.key(id));
  }
  core::SiteId max_site = core::kOtherSite;  // the reserved ids always exist
  fnv_mix_u64(h, rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const core::RoutingVector& v = dataset.series[r];
    fnv_mix_u64(h, static_cast<std::uint64_t>(v.time));
    fnv_mix_u64(h, v.valid ? 1 : 0);
    fnv_mix_u64(h, v.assignment.size());
    for (const core::SiteId s : v.assignment) {
      fnv_mix_u64(h, s);
      max_site = std::max(max_site, s);
    }
  }
  // The intern order over a prefix is fixed by the prefix, so hashing
  // the names behind every referenced id ties the ids above to labels.
  fnv_mix_u64(h, static_cast<std::uint64_t>(max_site) + 1);
  for (core::SiteId s = 0; s <= max_site; ++s) {
    const std::string& name = dataset.sites.name(s);
    fnv_mix_u64(h, name.size());
    fnv_mix(h, name.data(), name.size());
  }
  fnv_mix_u64(h, dataset.weights.size());
  for (const double w : dataset.weights) {
    std::uint64_t bits;
    std::memcpy(&bits, &w, sizeof(bits));
    fnv_mix_u64(h, bits);
  }
  return h;
}

std::string encode_snapshot(const Snapshot& snapshot) {
  std::string out;
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  put_u32(out, kSnapshotVersion);
  const std::size_t length_at = out.size();
  put_u64(out, 0);  // total length, patched below
  put_u64(out, snapshot.prefix_hash);
  put_u64(out, snapshot.processed);
  put_u8(out, snapshot.matrix.has_value() ? 1 : 0);
  put_u8(out, snapshot.has_modebook ? 1 : 0);
  put_u8(out, snapshot.matrix.has_value() &&
                      snapshot.matrix->policy() ==
                          core::UnknownPolicy::kKnownOnly
                  ? 1
                  : 0);
  put_u8(out, 0);
  if (snapshot.matrix.has_value()) {
    SnapshotCodec::encode_matrix(out, *snapshot.matrix);
  }
  if (snapshot.has_modebook) {
    put_u64(out, snapshot.representatives.size());
    for (const core::RoutingVector& rep : snapshot.representatives) {
      put_u64(out, static_cast<std::uint64_t>(rep.time));
      put_u8(out, rep.valid ? 1 : 0);
      put_u64(out, rep.assignment.size());
      for (const core::SiteId s : rep.assignment) put_u32(out, s);
    }
    put_u64(out, snapshot.history.size());
    for (const std::size_t m : snapshot.history) put_u64(out, m);
  }
  patch_u64(out, length_at, out.size() + 4);  // the CRC trailer follows
  put_u32(out, payload_checksum(out.data(), out.size()));
  return out;
}

Snapshot decode_snapshot(std::string_view bytes, unsigned threads) {
  const auto corrupt = [](const std::string& what) -> DatasetIoError {
    snap_metrics().corrupt.inc();
    // Alert severity: a corrupt resume artifact means hours of watch
    // state are gone — the one event an operator must not miss.
    obs::event_bus().emit(obs::Severity::kAlert, "snapshot_corrupt",
                          "\"error\":\"" + obs::json_escape(what) + "\"");
    return DatasetIoError(what);
  };
  if (bytes.size() < sizeof(kSnapshotMagic) ||
      std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
          0) {
    throw corrupt(
        "snapshot: bad magic — not a fenrir snapshot file (expected it to "
        "start with FENRSNAP)");
  }
  if (bytes.size() < 12) {
    throw corrupt(
        "snapshot: truncated — the file ends inside the header; rebuild "
        "the state from the dataset with watch --store");
  }
  Reader header{reinterpret_cast<const unsigned char*>(bytes.data()),
                bytes.size(), sizeof(kSnapshotMagic)};
  const std::uint32_t version = header.get_u32();
  if (version != kSnapshotVersion) {
    throw corrupt("snapshot: version skew — file is v" +
                  std::to_string(version) + " but this build reads v" +
                  std::to_string(kSnapshotVersion) +
                  "; rebuild the state from the dataset with watch --store");
  }
  if (bytes.size() < 20) {
    throw corrupt(
        "snapshot: truncated — the file ends inside the header; rebuild "
        "the state from the dataset with watch --store");
  }
  const std::uint64_t recorded = header.get_u64();
  if (recorded > bytes.size()) {
    throw corrupt("snapshot: truncated — the file holds " +
                  std::to_string(bytes.size()) + " of a recorded " +
                  std::to_string(recorded) +
                  " bytes; the tail is missing (interrupted copy?)");
  }
  if (recorded < bytes.size()) {
    throw corrupt("snapshot: " + std::to_string(bytes.size() - recorded) +
                  " trailing bytes after the recorded length — the file "
                  "was appended to or mixed with another");
  }
  if (recorded < 44) {  // header + flags + CRC: the smallest valid file
    throw corrupt(
        "snapshot: malformed header — recorded length is smaller than the "
        "fixed header");
  }
  const std::uint32_t stored_crc =
      Reader{reinterpret_cast<const unsigned char*>(bytes.data()),
             bytes.size(), bytes.size() - 4}
          .get_u32();
  const std::uint32_t computed_crc = payload_checksum(bytes.data(), bytes.size() - 4);
  if (stored_crc != computed_crc) {
    std::ostringstream os;
    os << "snapshot: checksum mismatch (stored " << std::hex << stored_crc
       << ", computed " << computed_crc
       << ") — the file is corrupt; rebuild the state from the dataset with "
          "watch --store";
    throw corrupt(os.str());
  }

  Reader r{reinterpret_cast<const unsigned char*>(bytes.data()),
           bytes.size() - 4, 20};
  Snapshot snapshot;
  try {
    snapshot.prefix_hash = r.get_u64();
    snapshot.processed = static_cast<std::size_t>(r.get_u64());
    const bool has_matrix = r.get_u8() != 0;
    snapshot.has_modebook = r.get_u8() != 0;
    const core::UnknownPolicy policy = r.get_u8() != 0
                                           ? core::UnknownPolicy::kKnownOnly
                                           : core::UnknownPolicy::kPessimistic;
    r.get_u8();  // reserved
    if (has_matrix) {
      snapshot.matrix = SnapshotCodec::decode_matrix(r, policy, threads);
    }
    if (snapshot.has_modebook) {
      const std::size_t modes = r.get_count(17);
      snapshot.representatives.reserve(modes);
      for (std::size_t m = 0; m < modes; ++m) {
        core::RoutingVector rep;
        rep.time = static_cast<core::TimePoint>(r.get_i64());
        rep.valid = r.get_u8() != 0;
        rep.assignment.resize(r.get_count(4));
        for (core::SiteId& s : rep.assignment) s = r.get_u32();
        snapshot.representatives.push_back(std::move(rep));
      }
      snapshot.history.resize(r.get_count(8));
      for (std::size_t& m : snapshot.history) {
        m = static_cast<std::size_t>(r.get_u64());
        if (m >= snapshot.representatives.size()) {
          throw DatasetIoError(
              "snapshot: inconsistent modebook section — history names "
              "mode " +
              std::to_string(m) + " of " +
              std::to_string(snapshot.representatives.size()));
        }
      }
    }
    if (r.off != r.size) {
      throw DatasetIoError(
          "snapshot: malformed section — " +
          std::to_string(r.size - r.off) +
          " undeclared bytes between the sections and the checksum");
    }
  } catch (const DatasetIoError& e) {
    snap_metrics().corrupt.inc();
    obs::event_bus().emit(obs::Severity::kAlert, "snapshot_corrupt",
                          "\"error\":\"" + obs::json_escape(e.what()) + "\"");
    throw;
  }
  if (snapshot.matrix.has_value() &&
      snapshot.matrix->size() != snapshot.processed) {
    snap_metrics().corrupt.inc();
    obs::event_bus().emit(
        obs::Severity::kAlert, "snapshot_corrupt",
        "\"error\":\"inconsistent header: matrix rows vs processed\"");
    throw DatasetIoError(
        "snapshot: inconsistent header — the matrix holds " +
        std::to_string(snapshot.matrix->size()) + " rows but " +
        std::to_string(snapshot.processed) + " observations are recorded");
  }
  return snapshot;
}

void atomic_write_file(const std::filesystem::path& path,
                       std::string_view bytes) {
  const std::filesystem::path dir =
      path.has_parent_path() ? path.parent_path() : ".";
  const std::string tmp =
      path.string() + ".tmp." + std::to_string(::getpid());
  const auto fail = [&](const std::string& stage, int fd) -> DatasetIoError {
    const int err = errno;
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    return DatasetIoError("cannot " + stage + " " + tmp + ": " +
                          std::strerror(err));
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw fail("create", -1);
  chaos::maybe_kill_during_save(0);  // a 0-byte schedule kills before data
  std::size_t off = 0;
  while (off < bytes.size()) {
    const std::size_t chunk = std::min<std::size_t>(4096, bytes.size() - off);
    const ssize_t wrote = ::write(fd, bytes.data() + off, chunk);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw fail("write", fd);
    }
    off += static_cast<std::size_t>(wrote);
    chaos::maybe_kill_during_save(off);
  }
  if (::fsync(fd) != 0) throw fail("fsync", fd);
  if (::close(fd) != 0) throw fail("close", -1);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw DatasetIoError("cannot rename " + tmp + " over " + path.string() +
                         ": " + std::strerror(err));
  }
  // Make the rename durable: fsync the directory entry. Best-effort —
  // some filesystems refuse O_RDONLY directory fds.
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

Snapshot load_snapshot_file(const std::filesystem::path& path,
                            unsigned threads) {
  const auto start = std::chrono::steady_clock::now();
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw DatasetIoError("cannot open " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    throw DatasetIoError("cannot read " + path.string());
  }
  const std::string bytes = std::move(buffer).str();
  Snapshot snapshot = decode_snapshot(bytes, threads);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  SnapMetrics& m = snap_metrics();
  m.load_total.inc();
  m.load_bytes.inc(bytes.size());
  m.load_seconds.set(seconds);
  std::ostringstream os;
  os << "{\"path\":\"" << obs::json_escape(path.string())
     << "\",\"bytes\":" << bytes.size()
     << ",\"seconds\":" << obs::render_double(seconds)
     << ",\"processed\":" << snapshot.processed << ",\"has_matrix\":"
     << (snapshot.matrix.has_value() ? "true" : "false")
     << ",\"modes\":" << snapshot.representatives.size() << "}";
  obs::status_board().publish("snapshot", os.str());
  obs::event_bus().emit(obs::Severity::kDebug, "snapshot_loaded",
                        "\"path\":\"" + obs::json_escape(path.string()) +
                            "\",\"bytes\":" + std::to_string(bytes.size()) +
                            ",\"processed\":" +
                            std::to_string(snapshot.processed));
  FENRIR_LOG(Debug).field("path", path.string()).field("bytes", bytes.size())
      << "snapshot loaded";
  return snapshot;
}

}  // namespace fenrir::io

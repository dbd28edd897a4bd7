// fenrir::io — FENRSNAP v2, the single-file Φ-stack snapshot, read only
// to migrate it.
//
// No command writes these files; the FENRSEG segment store
// (io/segment_store.h) is the one live resume format. `fenrirctl
// segment import` reads a snapshot (load_snapshot_file) and converts it
// into a sealed store whose identity is the snapshot's prefix hash
// (dataset_prefix_hash). encode_snapshot is the reference encoder the
// decoder's tests round-trip against. Legacy v1 CSV watch states are
// not read.
//
// Wire format (all integers little-endian; doubles as IEEE-754 bit
// patterns in a u64):
//
//   magic   8 bytes  "FENRSNAP"
//   u32     version  (2)
//   u64     total file length in bytes, including this header and the
//            checksum trailer (truncation check)
//   u64     dataset prefix hash (dataset_prefix_hash over `processed`)
//   u64     processed — observations of the dataset this state covers
//   u8      has_matrix, u8 has_modebook, u8 policy (0 = pessimistic,
//            1 = known-only; meaningful when has_matrix), u8 reserved
//   [matrix section, iff has_matrix]
//     u64 n, u64 networks, u64 width (1|2|4)
//     u64 weight_count, weight_count × u64 double bits
//     n × u8 valid flags
//     n·networks·width bytes of packed rows (native width, row-major)
//     u64 value_count (= n(n+1)/2), value_count × u64 double bits (the
//         lower triangle incl. diagonal)
//     u64 recent anchor count, then per anchor:
//         u64 row, u64 est_delta, u64 last_used,
//         n × (u64 matches, u64 mutual_known)
//     u64 representative anchor count, same per-anchor layout
//     u64 append_clock, u64 probe_cooldown, u64 probe_failures
//   [modebook section, iff has_modebook]
//     u64 mode_count, then per representative:
//         i64 time, u8 valid, u64 size, size × u32 SiteId
//     u64 history_count, history_count × u64 mode ids
//   u32     checksum over every byte before the trailer — a 4-lane
//            multiply–rotate word hash folded to 32 bits (see
//            payload_checksum in snapshot.cc); chosen over a table CRC
//            so verifying a multi-megabyte resume costs less than the
//            decode it protects
//
// Decoding checks, in order, each with a distinct actionable
// DatasetIoError: magic → version → recorded-vs-actual length
// (truncated tail / trailing garbage) → checksum (bit rot) → section
// bounds → cross-field consistency. Site and network ids inside the
// snapshot are only meaningful against the dataset they came from; the
// prefix hash is how a loader proves it is looking at the same one.
//
// atomic_write_file is the crash-atomic write (temp file, fsync,
// rename) the segment store's MANIFEST goes through; a kill mid-save
// (chaos/killpoint.h schedules one) leaves the previous file intact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dataset_io.h"
#include "core/distance_matrix.h"
#include "core/modebook.h"
#include "core/vector.h"

namespace fenrir::io {

inline constexpr char kSnapshotMagic[8] = {'F', 'E', 'N', 'R',
                                           'S', 'N', 'A', 'P'};
inline constexpr std::uint32_t kSnapshotVersion = 2;

/// Everything a FENRSNAP file holds. `processed` counts dataset
/// observations (valid and invalid) already consumed; the matrix, when
/// present, has exactly that many rows.
struct Snapshot {
  std::uint64_t prefix_hash = 0;
  std::size_t processed = 0;
  std::optional<core::SimilarityMatrix> matrix;
  bool has_modebook = false;
  std::vector<core::RoutingVector> representatives;
  std::vector<std::size_t> history;
};

/// FNV-1a 64 over the identity of the dataset's first @p rows
/// observations: network count and keys, each row's time / validity /
/// site ids, the names behind every site id the prefix references (the
/// intern order over a prefix is determined by the prefix, so ids are
/// comparable iff the hashes are), and the weights' bit patterns.
/// Growing a dataset never changes the hash of its prefix.
std::uint64_t dataset_prefix_hash(const core::Dataset& dataset,
                                  std::size_t rows);

std::string encode_snapshot(const Snapshot& snapshot);

/// Decodes and validates; @p threads is applied to the restored matrix
/// (it is not part of the persisted state). Throws DatasetIoError with
/// a distinct message per failure mode (see the header comment).
Snapshot decode_snapshot(std::string_view bytes, unsigned threads = 1);

/// Writes @p bytes to @p path atomically: temp file in the same
/// directory, fsync, rename, fsync of the directory. Calls
/// chaos::maybe_kill_during_save() as it goes so a scheduled mid-save
/// kill lands between chunks. Throws DatasetIoError on any I/O failure.
void atomic_write_file(const std::filesystem::path& path,
                       std::string_view bytes);

/// read + decode, with fenrir_snapshot_load_* metrics and a "snapshot"
/// StatusBoard fragment. Throws DatasetIoError (unreadable file, or any
/// decode failure).
Snapshot load_snapshot_file(const std::filesystem::path& path,
                            unsigned threads = 1);

}  // namespace fenrir::io

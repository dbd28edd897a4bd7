// fenrir::obs — append-only JSONL record framing.
//
// A process that dies mid-run (chaos kill, OOM, operator Ctrl-C) should
// leave behind a truthful record of every event and decision it
// *finished*, not a corrupt half-artifact. The journal framing is the
// classic write-ahead answer: one JSON object per line, appended and
// flushed as each record is made, never rewritten. Recovery is then a
// read problem, not a repair problem:
//
//   * every fully written line is valid on its own;
//   * a process killed mid-append leaves at most one torn final line,
//     which the reader silently drops (the record it described never
//     finished reporting, so dropping it is the truth);
//   * a malformed line in the *interior* means real corruption (disk,
//     truncation, editing) and throws JournalError — silently skipping
//     would fabricate a gap the run never had.
//
// Under the repo's determinism invariant this gives the prefix
// property the chaos tests pin down: a log written by a killed
// campaign is a line prefix of the log the uninterrupted campaign
// writes (modulo wall-clock "ts" stamps).
//
// Writers: the two record logs — JsonlEventSink (--events-out, one
// event per line, obs/events.h) and the lineage log (--lineage, one
// DecisionRecord per line, obs/lineage.h); DESIGN.md §9 has the
// layout. Reader: `fenrirctl replay FILE` summarizes either log.
#pragma once

#include <cstddef>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace fenrir::obs {

/// Interior corruption in a journal file (torn final lines are not
/// errors; they are dropped).
class JournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Journal {
 public:
  Journal() = default;
  ~Journal();  // closes; never throws

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens @p path for appending (@p truncate drops prior content —
  /// fresh runs may truncate, resumed ones append). Returns false when
  /// the file cannot be opened; the journal is then inert and append()
  /// is a no-op, so callers need not guard every write.
  bool open(const std::string& path, bool truncate = false);

  /// Appends one JSON object as a line and flushes, so a kill after
  /// append() returns never loses the entry. @p json_object must be a
  /// complete single-line JSON object ("{...}", no newlines) — the
  /// caller formats, the journal only guarantees line atomicity.
  void append(std::string_view json_object);

  void close();

  bool is_open() const { return out_.is_open(); }
  const std::string& path() const { return path_; }
  std::size_t lines_written() const { return lines_; }

  /// True once any append failed to reach the stream (disk full, file
  /// yanked). The first failure reports the process degraded
  /// (health.h) so /healthz answers 503 — the run continues, but its
  /// record is no longer complete and the operator should know.
  bool write_failed() const { return write_failed_; }

 private:
  std::ofstream out_;
  std::string path_;
  std::size_t lines_ = 0;
  bool write_failed_ = false;
};

/// Reads a journal back as one string per line, in file order. Drops a
/// torn final line (unterminated or not a complete JSON object); throws
/// JournalError on an interior line that is not a complete JSON object,
/// and on an unreadable file.
std::vector<std::string> read_journal(const std::string& path);

}  // namespace fenrir::obs

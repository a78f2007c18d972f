// por/serve/job_record.hpp
//
// The wire format the RefineService journals through por::journal
// (DESIGN.md §15).  One record type per job-lifecycle transition plus
// one per refined view; the submission record carries the full request
// (tenant, model, idempotency key, deadline, views, initial
// orientations, centers) so a restarted process can re-admit the job
// from the journal alone.  Lifecycle records carry only the job id (+
// error text for failures).  Each finished view is a core::ViewRecord
// (por/core/view_record.hpp), so the journal alone restores the
// finished views of an incomplete job and the results of a done one.
//
// Encoding is little-endian, length-prefixed, and strictly bounds
// checked: decode_* throws resilience::Error{kCorrupt} on any
// truncation or overflow instead of reading past the payload — the
// journal's CRC proves the bytes are what was written, this layer
// proves what was written is a well-formed record (and is one of the
// surfaces the fuzz targets hammer).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "por/core/view_record.hpp"
#include "por/em/grid.hpp"
#include "por/em/orientation.hpp"

namespace por::serve {

/// Journal record types (the `type` field of journal::Record).
enum class JobRecordType : std::uint32_t {
  kSubmitted = 1,  ///< full request; fsync'd BEFORE the client ack
  kRunning = 2,    ///< dispatcher picked the job up
  // 3 is retired (a progress marker replay ignored); do not reuse it.
  kDone = 4,       ///< every view record of the job precedes it
  kFailed = 5,     ///< payload carries the error text
  kCancelled = 6,
  kTimedOut = 7,
  kView = core::kViewRecordType,  ///< one refined view (core::ViewRecord)
};

[[nodiscard]] const char* to_string(JobRecordType type);

/// The decoded submission record.
struct SubmittedJob {
  std::uint64_t job = 0;
  std::string tenant;
  std::string model;
  std::string idempotency_key;
  /// Deadline as a DURATION in nanoseconds (0 = none).  Stored as a
  /// duration, not an absolute stamp, so a recovered job gets a fresh
  /// full deadline from its re-admission instant — wall time spent
  /// dead is not charged to the client.
  std::uint64_t deadline_ns = 0;
  std::vector<em::Image<double>> views;
  std::vector<em::Orientation> initial;
  std::vector<std::pair<double, double>> centers;
};

/// A decoded lifecycle record (everything except kSubmitted and kView).
struct LifecycleEvent {
  std::uint64_t job = 0;
  std::string error;  ///< kFailed only
};

[[nodiscard]] std::string encode_submitted(const SubmittedJob& job);
[[nodiscard]] SubmittedJob decode_submitted(const std::string& payload);

[[nodiscard]] std::string encode_lifecycle(const LifecycleEvent& event);
[[nodiscard]] LifecycleEvent decode_lifecycle(const std::string& payload);

}  // namespace por::serve

// por/core/view_record.hpp
//
// One refined view as a por::journal record (DESIGN.md §15) — the one
// durable form of finished work.  Both drivers that persist progress
// append it as each view finishes: parallel_refine* to the journal in
// ResilienceOptions::checkpoint_path, RefineService to its write-ahead
// journal.  A restarted run replays the records and restores those
// views instead of refining them again; per-view refinement is
// deterministic, so the restored result is bitwise what an
// uninterrupted run computes.
//
// Payload (96 bytes, little-endian): u64 job | u64 view | f64 theta,
// phi, omega, center_x, center_y, final_distance | u64 matchings,
// cache_hits, center_evals | i32 window_slides | u32 quarantined.
#pragma once

#include <cstdint>
#include <string>

#include "por/core/refiner.hpp"

namespace por::journal {
class Journal;
}  // namespace por::journal

namespace por::core {

/// journal::Record::type of a view record.  serve::JobRecordType shares
/// the type space and names this value kView.
inline constexpr std::uint32_t kViewRecordType = 8;

struct ViewRecord {
  std::uint64_t job = 0;   ///< RefineService job id; 0 for parallel_refine
  std::uint64_t view = 0;  ///< view index within the job / stack
  ViewResult result;
};

[[nodiscard]] std::string encode_view_record(const ViewRecord& record);

/// Inverse of encode_view_record.  Throws resilience::Error{kCorrupt}
/// unless `payload` is exactly one encoded record.
[[nodiscard]] ViewRecord decode_view_record(const std::string& payload);

/// The drivers' durability rule for finished views: the record is
/// flushed to the kernel before this returns, so a process kill loses
/// none, and the journal is fsync'd once 8 appends are un-synced,
/// bounding what an OS crash can lose.  Callers fsync once more before
/// declaring the work done.  Thread-safe (the journal serializes
/// appends).
void append_view_record(journal::Journal& journal, const ViewRecord& record);

}  // namespace por::core

#include "por/core/view_record.hpp"

#include <cstring>
#include <type_traits>

#include "por/journal/journal.hpp"
#include "por/resilience/error.hpp"

namespace por::core {

namespace {

constexpr std::size_t kViewSyncEvery = 8;

/// The payload, written and read as raw bytes (no padding).
struct Wire {
  std::uint64_t job, view;
  double theta, phi, omega, center_x, center_y, final_distance;
  std::uint64_t matchings, cache_hits, center_evals;
  std::int32_t window_slides;
  std::uint32_t quarantined;
};
static_assert(sizeof(Wire) == 96 && std::is_trivially_copyable_v<Wire>,
              "view records are written as raw bytes");

}  // namespace

std::string encode_view_record(const ViewRecord& record) {
  const ViewResult& r = record.result;
  const Wire wire{record.job, record.view, r.orientation.theta,
                  r.orientation.phi, r.orientation.omega, r.center_x,
                  r.center_y, r.final_distance, r.matchings, r.cache_hits,
                  r.center_evals, r.window_slides, r.quarantined};
  return std::string(reinterpret_cast<const char*>(&wire), sizeof wire);
}

ViewRecord decode_view_record(const std::string& payload) {
  if (payload.size() != sizeof(Wire)) {
    throw resilience::corrupt_error(
        "view record: " + std::to_string(payload.size()) +
        " payload bytes, expected " + std::to_string(sizeof(Wire)));
  }
  Wire w;
  std::memcpy(&w, payload.data(), sizeof w);
  return ViewRecord{w.job, w.view,
                    ViewResult{{w.theta, w.phi, w.omega},
                               w.center_x, w.center_y, w.final_distance,
                               w.matchings, w.cache_hits, w.center_evals,
                               w.window_slides, w.quarantined}};
}

void append_view_record(journal::Journal& journal, const ViewRecord& record) {
  journal.append(kViewRecordType, encode_view_record(record),
                 /*durable=*/false);
  journal.sync(kViewSyncEvery);
}

}  // namespace por::core

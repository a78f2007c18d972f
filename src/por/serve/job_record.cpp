#include "por/serve/job_record.hpp"

#include <cstring>
#include <limits>

#include "por/resilience/error.hpp"

namespace por::serve {

const char* to_string(JobRecordType type) {
  switch (type) {
    case JobRecordType::kSubmitted: return "submitted";
    case JobRecordType::kRunning: return "running";
    case JobRecordType::kDone: return "done";
    case JobRecordType::kFailed: return "failed";
    case JobRecordType::kCancelled: return "cancelled";
    case JobRecordType::kTimedOut: return "timed_out";
    case JobRecordType::kView: return "view";
  }
  return "?";
}

namespace {

// ---- writer ----------------------------------------------------------------

void put_u32(std::string& out, std::uint32_t v) {
  char bytes[4];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof bytes);
}

void put_u64(std::string& out, std::uint64_t v) {
  char bytes[8];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof bytes);
}

void put_f64(std::string& out, double v) {
  char bytes[8];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof bytes);
}

void put_string(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

// ---- bounds-checked reader -------------------------------------------------

/// Cursor over an untrusted payload.  Every get_* proves the bytes
/// exist before touching them; a journal CRC pass does not make the
/// payload well formed (the fuzz targets feed arbitrary bytes here).
class Reader {
 public:
  explicit Reader(const std::string& payload) : payload_(payload) {}

  [[nodiscard]] std::uint32_t get_u32() {
    std::uint32_t v = 0;
    copy(&v, sizeof v);
    return v;
  }
  [[nodiscard]] std::uint64_t get_u64() {
    std::uint64_t v = 0;
    copy(&v, sizeof v);
    return v;
  }
  [[nodiscard]] double get_f64() {
    double v = 0.0;
    copy(&v, sizeof v);
    return v;
  }
  [[nodiscard]] std::string get_string() {
    const std::uint32_t n = get_u32();
    need(n);
    std::string s(payload_.data() + offset_, n);
    offset_ += n;
    return s;
  }
  void expect_exhausted() const {
    if (offset_ != payload_.size()) {
      throw resilience::corrupt_error("job_record: trailing bytes");
    }
  }
  void need(std::size_t bytes) const {
    if (payload_.size() - offset_ < bytes) {
      throw resilience::corrupt_error("job_record: truncated payload");
    }
  }
  [[nodiscard]] std::size_t remaining() const {
    return payload_.size() - offset_;
  }

 private:
  void copy(void* dst, std::size_t bytes) {
    need(bytes);
    std::memcpy(dst, payload_.data() + offset_, bytes);
    offset_ += bytes;
  }

  const std::string& payload_;
  std::size_t offset_ = 0;
};

constexpr std::uint32_t kSubmittedVersion = 1;

}  // namespace

std::string encode_submitted(const SubmittedJob& job) {
  std::string out;
  put_u32(out, kSubmittedVersion);
  put_u64(out, job.job);
  put_string(out, job.tenant);
  put_string(out, job.model);
  put_string(out, job.idempotency_key);
  put_u64(out, job.deadline_ns);

  put_u32(out, static_cast<std::uint32_t>(job.views.size()));
  for (const em::Image<double>& view : job.views) {
    put_u32(out, static_cast<std::uint32_t>(view.ny()));
    put_u32(out, static_cast<std::uint32_t>(view.nx()));
    out.append(reinterpret_cast<const char*>(view.data()),
               view.size() * sizeof(double));
  }
  put_u32(out, static_cast<std::uint32_t>(job.initial.size()));
  for (const em::Orientation& o : job.initial) {
    put_f64(out, o.theta);
    put_f64(out, o.phi);
    put_f64(out, o.omega);
  }
  put_u32(out, static_cast<std::uint32_t>(job.centers.size()));
  for (const auto& [cx, cy] : job.centers) {
    put_f64(out, cx);
    put_f64(out, cy);
  }
  return out;
}

SubmittedJob decode_submitted(const std::string& payload) {
  Reader in(payload);
  const std::uint32_t version = in.get_u32();
  if (version != kSubmittedVersion) {
    throw resilience::corrupt_error("job_record: unsupported version " +
                                    std::to_string(version));
  }
  SubmittedJob job;
  job.job = in.get_u64();
  job.tenant = in.get_string();
  job.model = in.get_string();
  job.idempotency_key = in.get_string();
  job.deadline_ns = in.get_u64();

  const std::uint32_t n_views = in.get_u32();
  job.views.reserve(std::min<std::size_t>(n_views, in.remaining() / 8));
  for (std::uint32_t i = 0; i < n_views; ++i) {
    const std::uint32_t ny = in.get_u32();
    const std::uint32_t nx = in.get_u32();
    // Overflow / resource guard: ny*nx doubles must actually be in the
    // payload before the vector is sized — a hostile header must not
    // become a multi-GB allocation.
    const std::uint64_t pixels =
        static_cast<std::uint64_t>(ny) * static_cast<std::uint64_t>(nx);
    if (pixels > std::numeric_limits<std::uint32_t>::max()) {
      throw resilience::corrupt_error("job_record: view dimensions overflow");
    }
    in.need(static_cast<std::size_t>(pixels) * sizeof(double));
    em::Image<double> view(ny, nx);
    for (std::size_t p = 0; p < view.size(); ++p) {
      view.data()[p] = in.get_f64();  // por-lint: allow(naked-subscript) sequential fill of a freshly sized image; in.need() above bounds the payload
    }
    job.views.push_back(std::move(view));
  }

  const std::uint32_t n_initial = in.get_u32();
  in.need(static_cast<std::size_t>(n_initial) * 3 * sizeof(double));
  job.initial.reserve(n_initial);
  for (std::uint32_t i = 0; i < n_initial; ++i) {
    em::Orientation o;
    o.theta = in.get_f64();
    o.phi = in.get_f64();
    o.omega = in.get_f64();
    job.initial.push_back(o);
  }

  const std::uint32_t n_centers = in.get_u32();
  in.need(static_cast<std::size_t>(n_centers) * 2 * sizeof(double));
  job.centers.reserve(n_centers);
  for (std::uint32_t i = 0; i < n_centers; ++i) {
    const double cx = in.get_f64();
    const double cy = in.get_f64();
    job.centers.emplace_back(cx, cy);
  }
  in.expect_exhausted();
  return job;
}

std::string encode_lifecycle(const LifecycleEvent& event) {
  std::string out;
  put_u64(out, event.job);
  put_string(out, event.error);
  return out;
}

LifecycleEvent decode_lifecycle(const std::string& payload) {
  Reader in(payload);
  LifecycleEvent event;
  event.job = in.get_u64();
  event.error = in.get_string();
  in.expect_exhausted();
  return event;
}

}  // namespace por::serve

// In-memory span recorder for the benchmark's traced pass.
//
// Spans are recorded only by the benchmark's own code, around its calls
// into each por layer; the program's internal obs counters and step.*
// spans are read separately from its metrics registry.  Recording is
// single-threaded (the driver thread makes every call it times), so
// parent links come from a plain stack.  Lane 0 is the driver thread;
// lanes >= 1 hold spans synthesized after the fact from timestamps the
// program reports (one per serving job), which overlap each other; they
// count towards coverage but not towards the self-time sums.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace porbench {

/// Nanoseconds on the steady clock shared with por::obs::now_ns().
[[nodiscard]] std::uint64_t now_ns();

class Tracer {
 public:
  struct Record {
    std::string name;
    std::string layer;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint32_t lane = 0;
    std::uint64_t run = 0;  ///< cycle index or phase
    std::uint64_t job = 0;  ///< serving job id (0 = none)
  };

  /// RAII span on lane 0; a no-op when the tracer is off.
  class Span {
   public:
    Span(Tracer& tracer, const char* name, const char* layer,
         std::uint64_t job = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    std::int32_t index_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_run(std::uint64_t run) { run_ = run; }

  /// A completed span on lane >= 1 (see file comment).
  void add_lane_span(const std::string& name, const char* layer,
                     std::uint64_t start_ns, std::uint64_t end_ns,
                     std::uint64_t job);

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  /// Seconds of [from_ns, to_ns) inside at least one layer span, on any
  /// lane.  The "cycle" and "load" spans only group a run's layer calls,
  /// so they count for nothing: time they hold outside every layer call
  /// is time no layer is charged with.
  [[nodiscard]] double covered_seconds(std::uint64_t from_ns,
                                       std::uint64_t to_ns) const;

  /// Lane-0 self time per layer: each span's duration minus the time its
  /// children cover, summed by layer, seconds.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  [[nodiscard]] std::string chrome_json(
      const std::map<std::string, std::string>& metadata) const;

 private:
  bool enabled_ = false;
  std::uint64_t run_ = 0;
  std::vector<Record> records_;
  std::vector<std::int32_t> open_;
  std::vector<std::uint64_t> lane_end_;  ///< last end per lane >= 1
};

}  // namespace porbench

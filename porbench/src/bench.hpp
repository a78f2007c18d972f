// Shared plumbing for the workload drivers: options, the metric report,
// order statistics and metrics-registry deltas.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "por/core/refiner.hpp"
#include "por/obs/registry.hpp"
#include "trace.hpp"

namespace porbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test scale: tiny inputs, same code path.
  bool toy = false;
  /// Self-test: corrupt one refined result before the correctness check,
  /// which must then fail.
  bool perturb = false;
  /// Directory for work files and the trace, inside the checkout.
  std::string out_dir = ".bench_out";
};

/// Every metric a workload measured plus the correctness verdict.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< correctness failures
  std::optional<Tracer> trace;       ///< the traced pass, when run

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void error(const std::string& why) { errors.push_back(why); }
};

/// Set-up is repeated at least kMinSetups times and for at least
/// kMinSetupSeconds in total; setup_s is the median.  Short set-ups
/// (serving) get many repeats, so their median is steady too.
constexpr int kMinSetups = 3;
constexpr double kMinSetupSeconds = 1.0;
[[nodiscard]] inline bool setup_budget_left(const std::vector<double>& done) {
  double total = 0.0;
  for (const double s : done) total += s;
  return total < kMinSetupSeconds;
}

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double ratio(double num, double den);

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();
/// CPU seconds consumed by every thread of this process so far.
[[nodiscard]] double process_cpu_seconds();

/// Counter-wise and span-wise difference `after - before`; gauges and
/// histograms are taken from `after` (histogram sums are differenced).
[[nodiscard]] por::obs::Snapshot delta(const por::obs::Snapshot& before,
                                       const por::obs::Snapshot& after);

[[nodiscard]] double counter(const por::obs::Snapshot& s,
                             const std::string& name);
[[nodiscard]] double span_seconds(const por::obs::Snapshot& s,
                                  const std::string& name);
[[nodiscard]] double gauge(const por::obs::Snapshot& s,
                           const std::string& name);
[[nodiscard]] double histogram_sum(const por::obs::Snapshot& s,
                                   const std::string& name);

/// Field-by-field equality of two refined records.
[[nodiscard]] bool identical(const por::core::ViewResult& a,
                             const por::core::ViewResult& b);

/// The per-layer metrics every workload reports from its obs deltas and
/// refined records (fft.*, core.* counts and ratios).
void set_engine_metrics(Report& report, const por::obs::Snapshot& d,
                        const std::vector<por::core::ViewResult>& results,
                        const por::core::RefinerConfig& config);

/// trace.self_s.<layer> for every traced layer.
void set_self_times(Report& report, const Tracer& tracer);

/// A physical-accuracy gate: a failure is a correctness error, except at
/// toy size, where the phantom is too small and too few views are
/// simulated for the FSC or error comparison to resolve anything; there
/// it is only printed.
void physical_gate(const Options& options, Report& report, bool ok,
                   const std::string& why);

/// Symmetry-aware orientation error median / p95 vs ground truth.
void set_accuracy(Report& report, const std::vector<double>& errors_deg);

/// Views [0, n) refined serially and by `workers` workers: the serial
/// over parallel wall-time ratio (core.speedup); records a failure if
/// the two disagree.
double refine_speedup(Report& report, const por::em::Volume<double>& map,
                      const por::core::RefinerConfig& config, int workers,
                      const std::vector<por::em::Image<double>>& views,
                      const std::vector<por::em::Orientation>& initial,
                      std::size_t n);

void run_sindbis_incore(const Options& options, Report& report);
void run_reo_outofcore(const Options& options, Report& report);
void run_serve_durable(const Options& options, Report& report);

}  // namespace porbench

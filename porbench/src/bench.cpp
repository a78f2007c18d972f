#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "por/util/timer.hpp"

namespace porbench {

using namespace por;

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

obs::Snapshot delta(const obs::Snapshot& before, const obs::Snapshot& after) {
  obs::Snapshot d = after;
  for (auto& [name, value] : d.counters) {
    const auto it = before.counters.find(name);
    if (it != before.counters.end()) value -= it->second;
  }
  for (auto& [name, span] : d.spans) {
    const auto it = before.spans.find(name);
    if (it == before.spans.end()) continue;
    span.count -= it->second.count;
    span.total_ns -= it->second.total_ns;
  }
  for (auto& [name, histogram] : d.histograms) {
    const auto it = before.histograms.find(name);
    if (it == before.histograms.end()) continue;
    histogram.count -= it->second.count;
    histogram.sum -= it->second.sum;
  }
  return d;
}

double counter(const obs::Snapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double span_seconds(const obs::Snapshot& s, const std::string& name) {
  const auto it = s.spans.find(name);
  return it == s.spans.end() ? 0.0
                             : static_cast<double>(it->second.total_ns) * 1e-9;
}

double gauge(const obs::Snapshot& s, const std::string& name) {
  const auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0.0 : it->second;
}

double histogram_sum(const obs::Snapshot& s, const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}

bool identical(const core::ViewResult& a, const core::ViewResult& b) {
  return a.orientation.theta == b.orientation.theta &&
         a.orientation.phi == b.orientation.phi &&
         a.orientation.omega == b.orientation.omega &&
         a.center_x == b.center_x && a.center_y == b.center_y &&
         a.final_distance == b.final_distance && a.matchings == b.matchings &&
         a.cache_hits == b.cache_hits && a.center_evals == b.center_evals &&
         a.window_slides == b.window_slides && a.quarantined == b.quarantined;
}

void set_engine_metrics(Report& report, const obs::Snapshot& d,
                        const std::vector<core::ViewResult>& results,
                        const core::RefinerConfig& config) {
  const double hits = counter(d, "fft.plan_cache.hits");
  const double misses = counter(d, "fft.plan_cache.misses");
  report.set("fft.points",
             counter(d, "fft.1d.points") + counter(d, "fft.nd.points"),
             "count");
  report.set("fft.plan_cache_hit_frac", ratio(hits, hits + misses), "ratio");

  double matchings = 0.0;
  for (const auto& r : results) matchings += static_cast<double>(r.matchings);
  // PAPER.md §1 cost model: w^3 candidate orientations per level.
  double model = 0.0;
  for (const auto& level : config.schedule) {
    model += std::pow(static_cast<double>(level.angular_width), 3.0);
  }
  const auto views = static_cast<double>(results.size());
  report.set("core.matchings", matchings, "count");
  report.set("core.matchings_per_view", ratio(matchings, views), "count");
  report.set("core.model_ratio", ratio(matchings, views * model), "ratio");
  const double cache_hits = counter(d, "window.cache_hits");
  report.set("core.cache_hit_frac",
             ratio(cache_hits, cache_hits + counter(d, "window.cache_misses")),
             "ratio");
  report.set("core.slides_per_search",
             ratio(counter(d, "window.slides"), counter(d, "window.searches")),
             "count");
  report.set("core.fetches_per_matching",
             ratio(counter(d, "matcher.interp_fetches"),
                   counter(d, "matcher.matchings")),
             "count");
  report.set("core.prepare_view_s", span_seconds(d, "matcher.prepare_view"),
             "s");
  report.set("core.orient_search_s",
             span_seconds(d, "step.Orientation refinement"), "s");
  report.set("core.center_search_s", span_seconds(d, "step.Center refinement"),
             "s");
}

void set_self_times(Report& report, const Tracer& tracer) {
  const auto self = tracer.self_seconds();
  for (const char* layer :
       {"cycle", "load", "fft", "core", "recon", "metrics", "stream", "serve"}) {
    const auto it = self.find(layer);
    report.set(std::string("trace.self_s.") + layer,
               it == self.end() ? 0.0 : it->second, "s");
  }
}

void physical_gate(const Options& options, Report& report, bool ok,
                   const std::string& why) {
  if (ok) return;
  if (options.toy) {
    std::printf("physical gate not applied at toy size: %s\n", why.c_str());
  } else {
    report.error(why);
  }
}

void set_accuracy(Report& report, const std::vector<double>& errors_deg) {
  report.set("orient_err_median_deg", median(errors_deg), "deg");
  report.set("orient_err_p95_deg", quantile(errors_deg, 0.95), "deg");
}

double refine_speedup(Report& report, const em::Volume<double>& map,
                      const core::RefinerConfig& config, int workers,
                      const std::vector<em::Image<double>>& views,
                      const std::vector<em::Orientation>& initial,
                      std::size_t n) {
  n = std::min(n, views.size());
  const std::vector<em::Image<double>> prefix(views.begin(),
                                              views.begin() + n);
  const std::vector<em::Orientation> prefix_initial(initial.begin(),
                                                    initial.begin() + n);
  const auto timed = [&](int w, std::vector<core::ViewResult>& out) {
    core::RefinerConfig c = config;
    c.refine_workers = w;
    const core::OrientationRefiner refiner(map, c);
    util::WallTimer timer;
    out = refiner.refine(prefix, prefix_initial);
    return timer.seconds();
  };
  std::vector<core::ViewResult> serial, parallel;
  const double t1 = timed(1, serial);
  const double tw = timed(workers, parallel);
  for (std::size_t i = 0; i < n; ++i) {
    if (!identical(serial[i], parallel[i])) {
      report.error("speedup pass: view " + std::to_string(i) +
                   " differs between 1 and " + std::to_string(workers) +
                   " workers");
      ++report.failed;
    }
  }
  return ratio(t1, tw);
}

}  // namespace porbench

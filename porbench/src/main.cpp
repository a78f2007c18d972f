// porbench — the por end-to-end benchmark driver (see ../README.md).
//
//   porbench --workload sindbis_incore|reo_outofcore|serve_durable
//            --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with every span off;
// --trace 1 runs an untraced and a traced pass in the same process and
// reports the per-layer metrics (and writes a Chrome trace under
// .bench_out/).  The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is 0
// only when every correctness check passed.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "por/simd/isa.hpp"
#include "por/util/cli.hpp"

namespace {

using porbench::Report;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; selftest.py checks that they do.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_s", "s"},
    {"views_per_s", "views/s"},
    {"orient_err_median_deg", "deg"},
    {"orient_err_p95_deg", "deg"},
    {"fsc05_px", "px"},
    {"peak_rss_mb", "MiB"},
    {"ok_frac", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"em.simulate_s", "s"},
    {"fft.dft3d_s", "s"},
    {"fft.points", "count"},
    {"fft.plan_cache_hit_frac", "ratio"},
    {"core.refine_s", "s"},
    {"core.prepare_view_s", "s"},
    {"core.orient_search_s", "s"},
    {"core.center_search_s", "s"},
    {"core.matchings", "count"},
    {"core.matchings_per_view", "count"},
    {"core.model_ratio", "ratio"},
    {"core.cache_hit_frac", "ratio"},
    {"core.slides_per_search", "count"},
    {"core.fetches_per_matching", "count"},
    {"core.matchings_per_cpu_s", "1/s"},
    {"core.worker_busy_frac", "ratio"},
    {"core.speedup", "ratio"},
    {"recon.reconstruct_s", "s"},
    {"metrics.fsc_s", "s"},
    {"vmpi.bytes", "B"},
    {"vmpi.messages", "count"},
    {"vmpi.rank_imbalance", "ratio"},
    {"stream.ingest_s", "s"},
    {"stream.ingest_gb_per_s", "GB/s"},
    {"stream.bytes_read", "B"},
    {"stream.stall_frac", "ratio"},
    {"stream.stall_s", "s"},
    {"stream.resident_mb", "MiB"},
    {"serve.rejected_frac", "ratio"},
    {"serve.steals", "count"},
    {"serve.queue_depth_max", "count"},
    {"serve.jobs_per_s", "1/s"},
    {"serve.offered_jobs_per_s", "1/s"},
    {"serve.latency_samples", "count"},
    {"serve.job_p50_s", "s"},
    {"serve.job_p90_s", "s"},
    {"serve.job_p99_s", "s"},
    {"journal.ack_p99_ms", "ms"},
    {"journal.fsyncs_per_job", "count"},
    {"journal.appends_per_job", "count"},
    {"journal.bytes_per_job", "B"},
    {"resilience.checkpoint_writes_per_job", "count"},
    {"resilience.checkpoint_bytes_per_job", "B"},
    {"load.lag_p99_ms", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"trace.self_s.cycle", "s"},
    {"trace.self_s.load", "s"},
    {"trace.self_s.fft", "s"},
    {"trace.self_s.core", "s"},
    {"trace.self_s.recon", "s"},
    {"trace.self_s.metrics", "s"},
    {"trace.self_s.stream", "s"},
    {"trace.self_s.serve", "s"},
};

std::string number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  por::util::CliParser cli(argc, argv);
  porbench::Options options;
  options.workload = cli.get("workload", "");
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  options.seconds = cli.get_double("seconds", 10.0);
  options.trace = cli.get_int("trace", 0) != 0;
  options.toy = cli.get_int("toy", 0) != 0;
  options.perturb = cli.get_int("perturb", 0) != 0;
  cli.assert_all_consumed();

  std::printf("porbench: workload=%s seed=%llu seconds=%.3g trace=%d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.toy ? " (toy size)" : "");
  // Recorded, not pinned: the dispatched matcher/FFT kernels use the
  // best ISA the host has.
  std::printf("simd isa: %s, hardware threads: %ld\n",
              por::simd::isa_name(por::simd::active_isa()),
              sysconf(_SC_NPROCESSORS_ONLN));
  std::filesystem::create_directories(options.out_dir);

  Report report;
  try {
    if (options.workload == "sindbis_incore") {
      porbench::run_sindbis_incore(options, report);
    } else if (options.workload == "reo_outofcore") {
      porbench::run_reo_outofcore(options, report);
    } else if (options.workload == "serve_durable") {
      porbench::run_serve_durable(options, report);
    } else {
      std::fprintf(stderr, "porbench: unknown --workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    report.error(std::string("exception: ") + e.what());
    ++report.failed;
  }
  report.attempted = std::max<std::uint64_t>(report.attempted, 1);
  report.set("peak_rss_mb", porbench::peak_rss_mb(), "MiB");
  report.set("ok_frac",
             1.0 - static_cast<double>(report.failed) /
                       static_cast<double>(report.attempted),
             "ratio");

  if (report.trace) {
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    std::ofstream(path) << report.trace->chrome_json(
        {{"workload", options.workload},
         {"seed", std::to_string(options.seed)},
         {"simd_isa", por::simd::isa_name(por::simd::active_isa())}});
    std::printf("trace: %s (%zu spans)\n", path.c_str(),
                report.trace->records().size());
  }

  for (const auto& [name, metric] : report.metrics) {
    std::printf("  %-40s %14.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::string json;
  std::set<std::string> missing;
  for (const MetricDef& m :
       options.trace ? std::vector<MetricDef>(std::begin(kPerLayer),
                                              std::end(kPerLayer))
                     : std::vector<MetricDef>(std::begin(kEndToEnd),
                                              std::end(kEndToEnd))) {
    auto it = report.metrics.find(m.name);
    // A per-layer metric of a layer this workload does not run is 0.
    double value = it == report.metrics.end() ? 0.0 : it->second.value;
    if (!std::isfinite(value)) {
      report.error(std::string("metric ") + m.name + " is not finite");
      value = 0.0;
    }
    if (it == report.metrics.end() && !options.trace) missing.insert(m.name);
    if (it != report.metrics.end() && it->second.unit != m.unit) {
      report.error(std::string("metric ") + m.name + " has unit " +
                   it->second.unit + ", expected " + m.unit);
    }
    json += std::string(json.empty() ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + number(value) + ", \"unit\": \"" + m.unit +
            "\"}";
  }
  for (const auto& name : missing) report.error("metric " + name + " missing");
  for (const auto& e : report.errors) {
    std::fprintf(stderr, "porbench: FAIL %s\n", e.c_str());
  }
  const bool correct = report.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

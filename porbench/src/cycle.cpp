// The two B<->C cycle workloads.
//
// sindbis_incore: in-memory refinement on one process — matching is
// the bottleneck (orientation + center search), no disk or vmpi.
// reo_outofcore: the file-driven distributed cycle — the views are
// ingested into a sharded stack, refined by parallel_refine_files on 4
// vmpi ranks under a residency budget several times smaller than the
// stack, then reconstructed by parallel_fourier_reconstruct.  Matching
// is cheap per view (one coarse level), so the slab 3D DFT, the
// Bluestein-sized FFTs (120 = 2^3*3*5), shard I/O, scatter and
// reconstruction carry the time.
//
// Every cycle starts from the same map and initial orientations, so
// all cycles of a run compute the same thing and their results must be
// bitwise equal; the reported accuracy is that of one cycle.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "inputs.hpp"
#include "por/core/parallel_refiner.hpp"
#include "por/core/pipeline.hpp"
#include "por/em/pad.hpp"
#include "por/em/projection.hpp"
#include "por/fft/parallel_fft3d.hpp"
#include "por/io/map_io.hpp"
#include "por/io/orientation_io.hpp"
#include "por/metrics/fsc.hpp"
#include "por/metrics/orientation_error.hpp"
#include "por/obs/span.hpp"
#include "por/recon/parallel_recon.hpp"
#include "por/stream/sharded_stack.hpp"
#include "por/stream/view_source.hpp"
#include "por/vmpi/runtime.hpp"

namespace porbench {

using namespace por;
namespace fs = std::filesystem;

namespace {

struct CycleSpec {
  SimSpec sim;
  core::RefinerConfig config;
  int ranks = 0;  ///< 0 = in-core on this thread; > 0 = file-driven vmpi
  std::size_t views_per_shard = 64;
  std::size_t speedup_views = 16;  ///< prefix of the core.speedup pass
  std::size_t check_views = 16;    ///< views re-refined serially
};

CycleSpec sindbis_spec(bool toy) {
  CycleSpec spec;
  spec.sim.particle = Particle::kSindbis;
  spec.sim.l = toy ? 32 : 64;
  spec.sim.views = toy ? 16 : 400;
  spec.sim.snr = 2.0;
  em::CtfParams ctf;
  ctf.pixel_size_a = 2.8;
  ctf.defocus_a = 16000.0;
  spec.sim.ctf = ctf;
  spec.sim.wiener_snr = 20.0;
  // The 3-level schedule of examples/sindbis_pipeline, centers refined.
  spec.config.schedule = {core::SearchLevel{1.0, 3, 1.0, 3},
                          core::SearchLevel{0.25, 5, 0.25, 3},
                          core::SearchLevel{0.05, 5, 0.05, 3}};
  spec.config.match.r_map = static_cast<double>(spec.sim.l) / 4.0;
  spec.config.ctf = ctf;
  spec.config.ctf_correction = em::CtfCorrection::kWiener;
  spec.config.wiener_snr = spec.sim.wiener_snr;
  spec.config.refine_workers = 4;
  spec.speedup_views = toy ? 4 : 16;
  spec.check_views = toy ? 4 : 16;
  return spec;
}

CycleSpec reo_spec(bool toy) {
  CycleSpec spec;
  spec.sim.particle = Particle::kReo;
  spec.sim.l = toy ? 32 : 60;
  spec.sim.views = toy ? 64 : 1024;
  spec.sim.snr = 2.0;
  // One coarse level, one pass, no centers (examples/reo_pipeline
  // refines without centers too).
  spec.config.schedule = {core::SearchLevel{1.0, 3, 1.0, 3}};
  spec.config.max_passes_per_level = 1;
  spec.config.refine_centers = false;
  spec.config.match.r_map = static_cast<double>(spec.sim.l) / 2.0 - 4.0;
  spec.config.stream.max_resident_mb = toy ? 1 : 8;
  spec.ranks = 4;
  spec.views_per_shard = toy ? 16 : 64;
  spec.speedup_views = toy ? 8 : 96;
  spec.check_views = toy ? 4 : 16;
  return spec;
}

struct CycleOut {
  std::vector<core::ViewResult> results;
  double cycle_s = 0.0, refine_s = 0.0, refine_cpu_s = 0.0, dft3d_s = 0.0;
  double recon_s = 0.0, fsc_s = 0.0, ingest_s = 0.0, ingest_bytes = 0.0;
  double fsc05 = 0.0;
  vmpi::RunReport traffic;  ///< the reconstructions' vmpi traffic
  obs::Snapshot obs;  ///< global-registry delta + merged rank reports
  std::vector<obs::Snapshot> per_rank;
};

double timed(Tracer& tracer, const char* name, const char* layer,
             const std::function<void()>& fn) {
  const Tracer::Span span(tracer, name, layer);
  const std::uint64_t t0 = now_ns();
  fn();
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::vector<em::Orientation> orientations_of(
    const std::vector<core::ViewResult>& results) {
  std::vector<em::Orientation> out;
  out.reserve(results.size());
  for (const auto& r : results) out.push_back(r.orientation);
  return out;
}

std::vector<std::pair<double, double>> centers_of(
    const std::vector<core::ViewResult>& results) {
  std::vector<std::pair<double, double>> out;
  out.reserve(results.size());
  for (const auto& r : results) out.emplace_back(r.center_x, r.center_y);
  return out;
}

double fsc_crossing(const Sim& sim, const std::vector<em::Orientation>& o,
                    const std::vector<std::pair<double, double>>& centers) {
  return metrics::crossing_radius(
      core::RefinementPipeline::odd_even_fsc(sim.recon_views(), o, centers, {}),
      0.5);
}

/// OrientationRefiner (3D DFT) -> refine -> fourier_reconstruct -> FSC.
CycleOut incore_cycle(const CycleSpec& spec, const Sim& sim, Tracer& tracer) {
  CycleOut out;
  const obs::Snapshot before = obs::global_registry().snapshot();
  const std::uint64_t t0 = now_ns();
  {
    const Tracer::Span cycle(tracer, "cycle", "cycle");
    std::optional<core::OrientationRefiner> refiner;
    out.dft3d_s = timed(tracer, "OrientationRefiner (3D DFT)", "fft",
                        [&] { refiner.emplace(sim.map, spec.config); });
    const double cpu0 = process_cpu_seconds();
    out.refine_s = timed(tracer, "OrientationRefiner::refine", "core", [&] {
      out.results = refiner->refine(sim.views, sim.initial);
    });
    out.refine_cpu_s = process_cpu_seconds() - cpu0;
    const auto orientations = orientations_of(out.results);
    const auto centers = centers_of(out.results);
    out.recon_s = timed(tracer, "fourier_reconstruct", "recon", [&] {
      const em::Volume<double> map =
          recon::fourier_reconstruct(sim.recon_views(), orientations, centers);
      if (map.size() == 0) throw std::runtime_error("empty reconstruction");
    });
    out.fsc_s = timed(tracer, "odd_even_fsc", "metrics", [&] {
      out.fsc05 = fsc_crossing(sim, orientations, centers);
    });
  }
  out.cycle_s = static_cast<double>(now_ns() - t0) * 1e-9;
  out.obs = delta(before, obs::global_registry().snapshot());
  return out;
}

/// parallel_fourier_reconstruct over `ranks` vmpi ranks, each reading
/// its own contiguous block of the stack.  With `halves` the even- and
/// odd-indexed views go into two maps and the FSC 0.5 crossing between
/// them is returned (the split of RefinementPipeline::odd_even_fsc);
/// otherwise the full map is built and 0 returned.
double parallel_maps(int ranks, const std::string& stack, std::size_t l,
                     const std::vector<em::Orientation>& orientations,
                     bool halves, vmpi::RunReport& traffic) {
  const std::size_t n = orientations.size();
  const auto p = static_cast<std::size_t>(ranks);
  double crossing = 0.0;
  const vmpi::RunReport t = vmpi::run(ranks, [&](vmpi::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    const auto source = stream::open_view_source(stack);
    std::vector<em::Image<double>> views[2];
    std::vector<em::Orientation> poses[2];
    for (std::size_t i = n * r / p; i < n * (r + 1) / p; ++i) {
      const std::size_t half = halves ? i % 2 : 0;
      views[half].push_back(source->fetch_image(i));
      poses[half].push_back(orientations[i]);
    }
    const em::Volume<double> first =
        recon::parallel_fourier_reconstruct(comm, l, views[0], poses[0]);
    if (!halves) return;
    const em::Volume<double> second =
        recon::parallel_fourier_reconstruct(comm, l, views[1], poses[1]);
    if (comm.is_root()) {
      crossing = metrics::crossing_radius(
          metrics::fourier_shell_correlation(second, first), 0.5);
    }
  });
  traffic.messages += t.messages;
  traffic.bytes += t.bytes;
  return crossing;
}

/// A serial refiner over the spectrum parallel_refine_files matches
/// against: the c2c slab 3D DFT (bitwise equal at any rank count), not
/// the r2c path of OrientationRefiner(map, config).
std::unique_ptr<core::OrientationRefiner> slab_refiner(
    const em::Volume<double>& map, const core::RefinerConfig& config) {
  std::unique_ptr<core::OrientationRefiner> refiner;
  vmpi::run(1, [&](vmpi::Comm& comm) {
    const std::size_t edge = map.nx() * config.match.pad;
    em::Volume<em::cdouble> raw(edge);
    raw.storage() = fft::parallel_fft3d_forward(
        comm, em::to_complex(em::pad_volume(map, config.match.pad)).storage(),
        edge);
    refiner = std::make_unique<core::OrientationRefiner>(
        core::FourierMatcher(em::centered_from_raw_fft3(std::move(raw)),
                             map.nx(), config.matcher_options()),
        config);
  });
  return refiner;
}

/// Ingest (sharded stack + map + orientation files) ->
/// parallel_refine_files -> parallel_fourier_reconstruct -> FSC.
CycleOut file_cycle(const CycleSpec& spec, const Sim& sim,
                    const std::string& dir, Tracer& tracer) {
  CycleOut out;
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string stack = dir + "/views.shards";
  const std::string map_path = dir + "/map.porm";
  const std::string orient_in = dir + "/orient_in.txt";
  const std::string orient_out = dir + "/orient_out.txt";
  const std::size_t n = sim.views.size();

  obs::RunReport report;  // the ranks' registries, then this process's delta
  const obs::Snapshot before = obs::global_registry().snapshot();
  const std::uint64_t t0 = now_ns();
  {
    const Tracer::Span cycle(tracer, "cycle", "cycle");
    out.ingest_s = timed(tracer, "ShardedStackWriter + map/orientation files",
                         "stream", [&] {
      stream::ShardedStackOptions options;
      options.views_per_shard = spec.views_per_shard;
      stream::ShardedStackWriter writer(stack, sim.l, sim.l, options);
      for (const auto& view : sim.views) writer.append(view);
      writer.finish();
      io::write_map(map_path, sim.map);
      std::vector<io::ViewOrientation> records(n);
      for (std::size_t i = 0; i < n; ++i) {
        records[i] = io::ViewOrientation{i, sim.initial[i], 0.0, 0.0};
      }
      io::write_orientations(orient_in, records);
    });
    for (const auto& entry : fs::directory_iterator(dir)) {
      out.ingest_bytes += static_cast<double>(entry.file_size());
    }

    const double cpu0 = process_cpu_seconds();
    out.refine_s = timed(tracer, "parallel_refine_files", "core", [&] {
      vmpi::run(spec.ranks, [&](vmpi::Comm& comm) {
        auto r = core::parallel_refine_files(comm, map_path, stack, orient_in,
                                             orient_out, spec.config);
        if (comm.is_root()) {
          out.results = std::move(r.results);
          report = std::move(r.obs);
        }
      });
    });
    out.refine_cpu_s = process_cpu_seconds() - cpu0;
    out.per_rank = report.per_rank;
    out.dft3d_s = 0.0;
    for (const auto& rank : report.per_rank) {
      out.dft3d_s = std::max(out.dft3d_s, span_seconds(rank, "step.3D DFT"));
    }

    const auto orientations = orientations_of(out.results);
    out.recon_s = timed(tracer, "parallel_fourier_reconstruct", "recon", [&] {
      parallel_maps(spec.ranks, stack, sim.l, orientations, false,
                    out.traffic);
    });
    out.fsc_s = timed(tracer, "odd/even parallel half maps + FSC", "metrics",
                      [&] {
      out.fsc05 = parallel_maps(spec.ranks, stack, sim.l, orientations, true,
                                out.traffic);
    });
  }
  out.cycle_s = static_cast<double>(now_ns() - t0) * 1e-9;
  report.merge_in(delta(before, obs::global_registry().snapshot()));
  out.obs = std::move(report.merged);
  return out;
}

void set_cycle_layer_metrics(Report& report, const CycleSpec& spec,
                             const std::vector<CycleOut>& traced) {
  // Per-cycle values, median over the traced cycles (counts are equal
  // in every cycle, so their median is the count itself).
  const auto med = [&](const std::function<double(const CycleOut&)>& f) {
    std::vector<double> v;
    for (const auto& c : traced) v.push_back(f(c));
    return median(v);
  };
  // Counts are per cycle and equal in every cycle.
  const CycleOut& c = traced.back();
  set_engine_metrics(report, c.obs, c.results, spec.config);

  const int workers = spec.ranks > 0 ? spec.ranks : spec.config.refine_workers;
  report.set("fft.dft3d_s", med([](const CycleOut& o) { return o.dft3d_s; }), "s");
  report.set("core.refine_s", med([](const CycleOut& o) { return o.refine_s; }), "s");
  report.set("core.matchings_per_cpu_s",
             med([](const CycleOut& o) {
               double m = 0.0;
               for (const auto& r : o.results) m += static_cast<double>(r.matchings);
               return ratio(m, o.refine_cpu_s);
             }),
             "1/s");
  report.set("core.worker_busy_frac",
             med([&](const CycleOut& o) {
               return ratio(span_seconds(o.obs, "refiner.view"),
                            workers * o.refine_s);
             }),
             "ratio");
  report.set("recon.reconstruct_s", med([](const CycleOut& o) { return o.recon_s; }), "s");
  report.set("metrics.fsc_s", med([](const CycleOut& o) { return o.fsc_s; }), "s");
  // Refinement traffic as parallel_refine_files accounts it (before its
  // run-report gather, whose JSON payload varies with the timings) plus
  // the reconstructions' traffic: both repeat exactly for one seed.
  report.set("vmpi.bytes",
             counter(c.obs, "vmpi.sent_bytes") +
                 static_cast<double>(c.traffic.bytes),
             "B");
  report.set("vmpi.messages",
             counter(c.obs, "vmpi.sent_messages") +
                 static_cast<double>(c.traffic.messages),
             "count");
  std::vector<double> busy;
  for (const auto& rank : c.per_rank) {
    const double s = span_seconds(rank, "refiner.view");
    if (s > 0.0) busy.push_back(s);
  }
  double mean_busy = 0.0;
  for (const double b : busy) mean_busy += b / static_cast<double>(busy.size());
  report.set("vmpi.rank_imbalance",
             busy.empty() ? 0.0
                          : ratio(*std::max_element(busy.begin(), busy.end()),
                                  mean_busy),
             "ratio");

  const double ingest_s = med([](const CycleOut& o) { return o.ingest_s; });
  report.set("stream.ingest_s", ingest_s, "s");
  report.set("stream.ingest_gb_per_s", ratio(c.ingest_bytes * 1e-9, ingest_s),
             "GB/s");
  // Shards come in through mmap (bytes_mapped) or read() (bytes_read).
  report.set("stream.bytes_read",
             counter(c.obs, "stream.bytes_read") +
                 counter(c.obs, "stream.bytes_mapped"),
             "B");
  const double stalls = counter(c.obs, "stream.prefetch.stalls");
  report.set("stream.stall_frac",
             ratio(stalls, stalls + counter(c.obs, "stream.prefetch.hits")),
             "ratio");
  report.set("stream.stall_s",
             histogram_sum(c.obs, "stream.prefetch.stall_seconds"), "s");
  report.set("stream.resident_mb",
             gauge(c.obs, "stream.resident_bytes") / (1024.0 * 1024.0), "MiB");
}

void run_cycle_workload(const CycleSpec& spec, const Options& options,
                        Report& report) {
  const std::string dir =
      options.out_dir + "/work-" + options.workload + "-" +
      std::to_string(options.seed);

  // ---- set-up: simulation, repeated (see bench.hpp); inputs must
  // repeat bitwise.
  std::vector<double> setups;
  std::optional<Sim> sim;
  std::uint64_t first_digest = 0;
  for (int i = 0; i < kMinSetups || setup_budget_left(setups); ++i) {
    sim.reset();
    const std::uint64_t t0 = now_ns();
    sim.emplace(simulate(spec.sim, options.seed));
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    const std::uint64_t d = digest(*sim);
    if (i == 0) first_digest = d;
    if (d != first_digest) report.error("set-up produced different inputs");
  }
  std::printf("inputs digest: %016llx (l=%zu views=%zu)\n",
              static_cast<unsigned long long>(first_digest), sim->l,
              sim->views.size());
  report.set("setup_s", median(setups), "s");
  report.set("em.simulate_s", median(setups), "s");

  // ---- measured cycles.
  Tracer tracer;
  const auto run_cycle = [&](Tracer& t) {
    return spec.ranks > 0 ? file_cycle(spec, *sim, dir, t)
                          : incore_cycle(spec, *sim, t);
  };
  const auto run_phase = [&](double seconds, bool traced,
                             std::vector<CycleOut>& cycles) {
    obs::set_enabled(traced);
    tracer.set_enabled(traced);
    const std::uint64_t start = now_ns();
    do {
      tracer.set_run(cycles.size());
      cycles.push_back(run_cycle(tracer));
    } while (static_cast<double>(now_ns() - start) * 1e-9 < seconds);
    return static_cast<double>(now_ns() - start) * 1e-9;
  };
  // One warm-up cycle first: plan caches, page cache and allocator
  // pools fill once per process, which a long-running user amortizes.
  obs::set_enabled(false);
  std::vector<CycleOut> untraced, traced, warmup{run_cycle(tracer)};
  run_phase(options.trace ? options.seconds / 2.0 : options.seconds, false,
            untraced);
  double traced_wall = 0.0;
  std::uint64_t traced_start = 0;
  if (options.trace) {
    traced_start = now_ns();
    traced_wall = run_phase(options.seconds / 2.0, true, traced);
  }
  obs::set_enabled(true);
  tracer.set_enabled(false);

  // ---- physical baselines, untimed: the 3-degree-grid initials (the
  // file cycle's FSC reads the stack the last cycle wrote).
  const auto initial_errors =
      metrics::orientation_errors_deg(sim->initial, sim->truth, sim->symmetry);
  vmpi::RunReport unused;
  const double initial_fsc05 =
      spec.ranks > 0 ? parallel_maps(spec.ranks, dir + "/views.shards", sim->l,
                                     sim->initial, true, unused)
                     : fsc_crossing(*sim, sim->initial, {});

  // ---- correctness.
  std::vector<CycleOut> all = warmup;
  all.insert(all.end(), untraced.begin(), untraced.end());
  all.insert(all.end(), traced.begin(), traced.end());
  std::vector<core::ViewResult> results = all.front().results;
  if (options.perturb && !results.empty()) {
    results.front().orientation.theta += 1e-9;
  }
  const std::size_t n = sim->views.size();
  report.attempted = n * all.size();
  for (const auto& c : all) {
    for (const auto& r : c.results) report.failed += r.quarantined != 0;
    if (c.results.size() != n) {
      report.error("a cycle returned " + std::to_string(c.results.size()) +
                   " results for " + std::to_string(n) + " views");
      report.failed += n;
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!identical(c.results[i], all.front().results[i])) {
        report.error("cycles disagree on view " + std::to_string(i));
        ++report.failed;
        break;
      }
    }
  }
  {
    core::RefinerConfig serial_config = spec.config;
    serial_config.refine_workers = 1;
    const std::unique_ptr<core::OrientationRefiner> serial =
        spec.ranks > 0
            ? slab_refiner(sim->map, serial_config)
            : std::make_unique<core::OrientationRefiner>(sim->map,
                                                         serial_config);
    const std::size_t k = std::min(spec.check_views, n);
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t i = j * n / k;
      if (!identical(serial->refine_view(sim->views[i], sim->initial[i]),
                     results[i])) {
        report.error("view " + std::to_string(i) +
                     " differs from a serial refine_view");
        ++report.failed;
      }
    }
  }
  const auto errors = metrics::orientation_errors_deg(
      orientations_of(results), sim->truth, sim->symmetry);
  set_accuracy(report, errors);
  std::printf("initial (3-degree grid): error median %.4f deg, FSC 0.5 at "
              "%.3f px\n",
              median(initial_errors), initial_fsc05);
  physical_gate(options, report, median(errors) < median(initial_errors),
                "refined median orientation error is not below the "
                "3-degree-grid initial error");
  const double fsc05 = all.front().fsc05;
  physical_gate(options, report, fsc05 >= initial_fsc05,
                "FSC 0.5 crossing fell below the initial orientations'");

  // ---- end-to-end metrics (untraced cycles).
  std::vector<double> cycle_s, refine_s;
  for (const auto& c : untraced) {
    cycle_s.push_back(c.cycle_s);
    refine_s.push_back(c.refine_s);
  }
  std::printf("untraced cycles (s):");
  for (const auto& c : untraced) {
    std::printf(" %.3f [refine %.3f]", c.cycle_s, c.refine_s);
  }
  std::printf("\n");
  report.set("latency_p50_s", median(cycle_s), "s");
  report.set("views_per_s", ratio(static_cast<double>(n), median(refine_s)),
             "views/s");
  report.set("fsc05_px", fsc05, "px");

  // ---- per-layer metrics (traced cycles).
  if (options.trace) {
    set_cycle_layer_metrics(report, spec, traced);
    std::vector<double> traced_cycle_s;
    for (const auto& c : traced) traced_cycle_s.push_back(c.cycle_s);
    report.set("trace.overhead_frac",
               median(traced_cycle_s) / median(cycle_s) - 1.0, "ratio");
    report.set("trace.coverage",
               ratio(tracer.covered_seconds(traced_start,
                                            traced_start +
                                                static_cast<std::uint64_t>(
                                                    traced_wall * 1e9)),
                     traced_wall),
               "ratio");
    set_self_times(report, tracer);
    report.set("core.speedup",
               refine_speedup(report, sim->map, spec.config, 4, sim->views,
                              sim->initial, spec.speedup_views),
               "ratio");
    report.trace = std::move(tracer);
  }
  fs::remove_all(dir);
}

}  // namespace

void run_sindbis_incore(const Options& options, Report& report) {
  run_cycle_workload(sindbis_spec(options.toy), options, report);
}

void run_reo_outofcore(const Options& options, Report& report) {
  run_cycle_workload(reo_spec(options.toy), options, report);
}

}  // namespace porbench

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "por/metrics/fsc.hpp"
#include "por/obs/registry.hpp"
#include "por/recon/fourier_recon.hpp"
#include "por/recon/parallel_recon.hpp"
#include "por/serve/scheduler.hpp"
#include "por/vmpi/runtime.hpp"
#include "test_helpers.hpp"

namespace {

using namespace por;
using namespace por::em;
using por::test::make_views;
using por::test::small_phantom;

TEST(FourierRecon, RecoversPhantomFromManyViews) {
  const std::size_t l = 24;
  const BlobModel model = small_phantom(l, 15);
  const Volume<double> truth = model.rasterize(l);
  const auto set = make_views(model, l, 50, 3);
  const Volume<double> map =
      recon::fourier_reconstruct(set.views, set.orientations);
  EXPECT_GT(metrics::volume_correlation(map, truth), 0.97);
}

TEST(FourierRecon, AmplitudeScaleIsUnity) {
  const std::size_t l = 20;
  const BlobModel model = small_phantom(l, 10);
  const Volume<double> truth = model.rasterize(l);
  const auto set = make_views(model, l, 40, 4);
  const Volume<double> map =
      recon::fourier_reconstruct(set.views, set.orientations);
  double map_mass = 0.0, truth_mass = 0.0;
  for (double v : map.storage()) map_mass += v;
  for (double v : truth.storage()) truth_mass += v;
  EXPECT_NEAR(map_mass / truth_mass, 1.0, 0.08);
}

TEST(FourierRecon, MoreViewsImproveMap) {
  const std::size_t l = 20;
  const BlobModel model = small_phantom(l, 12);
  const Volume<double> truth = model.rasterize(l);
  const auto few = make_views(model, l, 6, 5);
  const auto many = make_views(model, l, 48, 5);
  const double cc_few = metrics::volume_correlation(
      recon::fourier_reconstruct(few.views, few.orientations), truth);
  const double cc_many = metrics::volume_correlation(
      recon::fourier_reconstruct(many.views, many.orientations), truth);
  EXPECT_GT(cc_many, cc_few);
}

TEST(FourierRecon, WrongOrientationsDegradeMap) {
  const std::size_t l = 20;
  const BlobModel model = small_phantom(l, 12);
  const Volume<double> truth = model.rasterize(l);
  auto set = make_views(model, l, 30, 6);
  const double cc_right = metrics::volume_correlation(
      recon::fourier_reconstruct(set.views, set.orientations), truth);
  util::Rng rng(8);
  for (auto& o : set.orientations) {
    o.theta += rng.uniform(-10, 10);
    o.phi += rng.uniform(-10, 10);
    o.omega += rng.uniform(-10, 10);
  }
  const double cc_wrong = metrics::volume_correlation(
      recon::fourier_reconstruct(set.views, set.orientations), truth);
  EXPECT_GT(cc_right, cc_wrong + 0.05);
}

TEST(FourierRecon, CentersAreCompensated) {
  const std::size_t l = 20;
  const BlobModel model = small_phantom(l, 12);
  const Volume<double> truth = model.rasterize(l);
  util::Rng rng(9);
  std::vector<Image<double>> views;
  std::vector<Orientation> orientations;
  std::vector<std::pair<double, double>> centers;
  for (int i = 0; i < 40; ++i) {
    const Orientation o = por::test::random_orientation(rng);
    const double cx = rng.uniform(-1.5, 1.5), cy = rng.uniform(-1.5, 1.5);
    views.push_back(model.project_analytic(l, o, cx, cy));
    orientations.push_back(o);
    centers.emplace_back(cx, cy);
  }
  const double cc_with = metrics::volume_correlation(
      recon::fourier_reconstruct(views, orientations, centers), truth);
  const double cc_without = metrics::volume_correlation(
      recon::fourier_reconstruct(views, orientations), truth);
  EXPECT_GT(cc_with, cc_without + 0.02);
  EXPECT_GT(cc_with, 0.95);
}

TEST(FourierRecon, RejectsBadInputs) {
  EXPECT_THROW((void)recon::fourier_reconstruct({}, {}),
               std::invalid_argument);
  const BlobModel model = small_phantom(8, 4);
  const auto set = make_views(model, 8, 2, 1);
  EXPECT_THROW(
      (void)recon::fourier_reconstruct(set.views, {set.orientations[0]}),
      std::invalid_argument);
}

/// Views with off-center particles.  The first three orientations put
/// exact zeros in the section axes' z components, the edge cases of the
/// slab kernel's row interval: theta = 0 makes eu.z = ev.z = 0 (the
/// whole section is one z-plane); theta = 90, omega = 0 makes ev.z = 0
/// (every row is level in z); theta = 90, omega = 90 leaves
/// eu.z = -cos(pi/2), a slope of ~6e-17.
struct CenteredViews {
  std::vector<Image<double>> views;
  std::vector<Orientation> orientations;
  std::vector<std::pair<double, double>> centers;
};

CenteredViews centered_views(std::size_t l, std::size_t count,
                             std::uint64_t seed) {
  const BlobModel model = small_phantom(l, 8);
  util::Rng rng(seed);
  CenteredViews set;
  for (std::size_t i = 0; i < count; ++i) {
    const Orientation o = i == 0   ? Orientation{0.0, 30.0, 45.0}
                          : i == 1 ? Orientation{90.0, 20.0, 0.0}
                          : i == 2 ? Orientation{90.0, 0.0, 90.0}
                                   : por::test::random_orientation(rng);
    const double cx = rng.uniform(-1.5, 1.5), cy = rng.uniform(-1.5, 1.5);
    set.views.push_back(model.project_analytic(l, o, cx, cy));
    set.orientations.push_back(o);
    set.centers.emplace_back(cx, cy);
  }
  return set;
}

template <typename Raster>
bool same_bits(const Raster& a, const Raster& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     a.size() * sizeof(*a.data())) == 0;
}

std::vector<std::size_t> all_indices(std::size_t n) {
  std::vector<std::size_t> indices(n);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  return indices;
}

TEST(FourierRecon, SlabParallelInsertionIsBitwiseSerial) {
  // The edge-case orientations really produce exact zeros.
  const Mat3 level = rotation_matrix({0.0, 30.0, 45.0});
  EXPECT_EQ(level(2, 0), 0.0);
  EXPECT_EQ(level(2, 1), 0.0);
  EXPECT_EQ(rotation_matrix({90.0, 20.0, 0.0})(2, 1), 0.0);

  // Two batches, the second partial.
  const std::size_t count = recon::kInsertBatchViews + 5;
  for (const std::size_t l : {std::size_t{17}, std::size_t{32}}) {
    const CenteredViews set = centered_views(l, count, 40 + l);
    const auto indices = all_indices(count);
    for (const std::size_t pad : {std::size_t{1}, std::size_t{2}}) {
      recon::ReconOptions options;
      options.pad = pad;
      recon::FourierAccumulator serial(l, options);
      for (std::size_t i = 0; i < count; ++i) {
        serial.insert(set.views[i], set.orientations[i], set.centers[i].first,
                      set.centers[i].second);
      }
      for (const std::size_t workers : {1, 2, 3, 4, 7}) {
        serve::SchedulerOptions sched;
        sched.workers = workers;
        serve::Scheduler scheduler(sched);
        recon::FourierAccumulator batched(l, options);
        batched.insert_views(scheduler, set.views, set.orientations,
                             set.centers, indices);
        const std::string where = "l=" + std::to_string(l) +
                                  " pad=" + std::to_string(pad) +
                                  " workers=" + std::to_string(workers);
        EXPECT_EQ(batched.view_count, serial.view_count) << where;
        EXPECT_TRUE(same_bits(batched.values, serial.values)) << where;
        EXPECT_TRUE(same_bits(batched.weights, serial.weights)) << where;
        EXPECT_TRUE(same_bits(
            recon::fourier_reconstruct(scheduler, set.views, set.orientations,
                                       set.centers, indices, options),
            serial.finish()))
            << where;
      }
    }
  }
}

TEST(FourierRecon, EveryInRadiusPixelSplatsUnitWeight) {
  // Trilinear weights sum to 1 per pixel, so a view adds one unit of
  // weight per pixel inside r_max.  This checks the slab kernel's row
  // intervals against the pixel count alone, edge cases included.
  const std::size_t l = 17;
  const CenteredViews set = centered_views(l, 6, 6);
  for (const std::size_t pad : {std::size_t{1}, std::size_t{2}}) {
    recon::ReconOptions options;
    options.pad = pad;
    for (std::size_t i = 0; i < set.views.size(); ++i) {
      recon::FourierAccumulator acc(l, options);
      acc.insert(set.views[i], set.orientations[i]);
      const double c = std::floor(static_cast<double>(l * pad) / 2.0);
      double pixels = 0.0;
      for (std::size_t y = 0; y < l * pad; ++y) {
        for (std::size_t x = 0; x < l * pad; ++x) {
          const double ku = static_cast<double>(x) - c;
          const double kv = static_cast<double>(y) - c;
          if (std::sqrt(ku * ku + kv * kv) <= acc.options.r_max) pixels += 1;
        }
      }
      double mass = 0.0;
      for (const double w : acc.weights.storage()) mass += w;
      EXPECT_NEAR(mass, pixels, 1e-9 * pixels)
          << "pad " << pad << ", view " << i;
    }
  }
}

TEST(FourierRecon, IndexSubsetEqualsCopiedSubset) {
  const std::size_t l = 17;
  const CenteredViews set = centered_views(l, 9, 3);
  const std::vector<std::size_t> odd = {1, 3, 5, 7};
  recon::FourierAccumulator copied(l, {});
  for (const std::size_t i : odd) {
    copied.insert(set.views[i], set.orientations[i], set.centers[i].first,
                  set.centers[i].second);
  }
  serve::SchedulerOptions sched;
  sched.workers = 3;
  serve::Scheduler scheduler(sched);
  EXPECT_TRUE(same_bits(
      recon::fourier_reconstruct(scheduler, set.views, set.orientations,
                                 set.centers, odd),
      copied.finish()));
  const std::vector<std::size_t> out_of_range = {1, 9};
  EXPECT_THROW((void)recon::fourier_reconstruct(scheduler, set.views,
                                                set.orientations, set.centers,
                                                out_of_range),
               std::invalid_argument);
  EXPECT_THROW((void)recon::fourier_reconstruct(scheduler, set.views,
                                                set.orientations, set.centers,
                                                std::vector<std::size_t>{}),
               std::invalid_argument);
}

TEST(FourierRecon, SpansRecordOnlyWhenObsIsOn) {
  const std::size_t l = 12;
  const CenteredViews set = centered_views(l, 5, 4);
  const auto reconstruct_in = [&](obs::MetricsRegistry& registry) {
    const obs::RegistryScope scope(registry);
    (void)recon::fourier_reconstruct(set.views, set.orientations, set.centers);
    vmpi::run(1, [&](vmpi::Comm& comm) {
      const obs::RegistryScope rank_scope(registry);
      (void)recon::parallel_fourier_reconstruct(comm, l, set.views,
                                                set.orientations, set.centers);
    });
  };
  const char* const names[] = {"recon.spectra", "recon.insert",
                               "recon.finish"};

  obs::MetricsRegistry on;
  reconstruct_in(on);
  const obs::Snapshot snapshot = on.snapshot();
  for (const char* name : names) {
    const auto it = snapshot.spans.find(name);
    ASSERT_NE(it, snapshot.spans.end()) << name;
    EXPECT_GT(it->second.count, 0u) << name;
  }
  // Serial per-view insertion (the vmpi path) records one spectra and
  // one insert span per view; both paths finish once.
  EXPECT_EQ(snapshot.spans.at("recon.finish").count, 2u);
  EXPECT_GE(snapshot.spans.at("recon.spectra").count, set.views.size());

  obs::MetricsRegistry off;
  obs::set_enabled(false);
  reconstruct_in(off);
  obs::set_enabled(true);
  const obs::Snapshot quiet = off.snapshot();
  for (const char* name : names) {
    const auto it = quiet.spans.find(name);
    EXPECT_TRUE(it == quiet.spans.end() || it->second.count == 0) << name;
  }
  EXPECT_EQ(off.trace_size(), 0u);
}

class ParallelReconRanks : public ::testing::TestWithParam<int> {};

TEST_P(ParallelReconRanks, MatchesSerialReconstruction) {
  const int p = GetParam();
  const std::size_t l = 16;
  const BlobModel model = small_phantom(l, 8);
  const auto set = make_views(model, l, 12, 14);
  const Volume<double> serial =
      recon::fourier_reconstruct(set.views, set.orientations);

  std::vector<Volume<double>> per_rank(p);
  vmpi::run(p, [&](vmpi::Comm& comm) {
    // Block-partition the views by rank.
    std::vector<Image<double>> mine;
    std::vector<Orientation> mine_o;
    for (std::size_t i = 0; i < set.views.size(); ++i) {
      if (static_cast<int>(i) % p == comm.rank()) {
        mine.push_back(set.views[i]);
        mine_o.push_back(set.orientations[i]);
      }
    }
    per_rank[comm.rank()] =
        recon::parallel_fourier_reconstruct(comm, l, mine, mine_o);
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_LT(por::test::max_abs_diff(per_rank[r], serial), 1e-9)
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, ParallelReconRanks, ::testing::Values(1, 2, 4));

TEST(ParallelRecon, OneRankEqualsFourierReconstructBitwise) {
  // Rank-serial insertion and the slab-parallel path share one splat
  // kernel, and a one-rank allreduce is the identity.
  const std::size_t l = 17;
  const CenteredViews set = centered_views(l, 11, 5);
  Volume<double> ranked;
  vmpi::run(1, [&](vmpi::Comm& comm) {
    ranked = recon::parallel_fourier_reconstruct(comm, l, set.views,
                                                 set.orientations, set.centers);
  });
  EXPECT_TRUE(same_bits(ranked, recon::fourier_reconstruct(
                                    set.views, set.orientations, set.centers)));
}

TEST(ParallelRecon, RankWithNoViewsParticipates) {
  const std::size_t l = 16;
  const BlobModel model = small_phantom(l, 8);
  const auto set = make_views(model, l, 2, 15);
  // 3 ranks, 2 views: one rank contributes nothing but must still join
  // the reduction.
  std::vector<Volume<double>> maps(3);
  vmpi::run(3, [&](vmpi::Comm& comm) {
    std::vector<Image<double>> mine;
    std::vector<Orientation> mine_o;
    if (comm.rank() < 2) {
      mine.push_back(set.views[comm.rank()]);
      mine_o.push_back(set.orientations[comm.rank()]);
    }
    maps[comm.rank()] = recon::parallel_fourier_reconstruct(comm, l, mine, mine_o);
  });
  EXPECT_LT(por::test::max_abs_diff(maps[0], maps[2]), 1e-12);
}

TEST(ParallelRecon, RejectsMismatchedCenters) {
  // A non-empty centers list must cover every view; a short one would
  // be read past its end.
  const std::size_t l = 16;
  const CenteredViews set = centered_views(l, 4, 5);
  const std::vector<std::pair<double, double>> short_centers(
      set.centers.begin(), set.centers.begin() + 2);
  vmpi::run(1, [&](vmpi::Comm& comm) {
    EXPECT_THROW((void)recon::parallel_fourier_reconstruct(
                     comm, l, set.views, set.orientations, short_centers),
                 std::invalid_argument);
  });
}

}  // namespace

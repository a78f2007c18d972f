#include <gtest/gtest.h>

#include <cstring>

#include "por/core/pipeline.hpp"
#include "por/em/noise.hpp"
#include "test_helpers.hpp"

namespace {

using namespace por;
using namespace por::em;
using namespace por::core;
using por::test::small_phantom;

PipelineConfig fast_pipeline() {
  PipelineConfig config;
  config.cycles = 2;
  config.refiner.schedule = {SearchLevel{1.0, 3, 1.0, 3},
                             SearchLevel{0.25, 5, 0.25, 3}};
  config.refiner.refine_centers = false;
  config.initial_r_map = 6.0;
  return config;
}

struct PipelineWorkload {
  std::size_t l = 20;
  BlobModel model = small_phantom(20, 14);
  std::vector<Image<double>> views;
  std::vector<Orientation> truths;
  std::vector<Orientation> initials;

  explicit PipelineWorkload(int m = 24, double perturb = 2.0,
                            double snr = 0.0) {
    util::Rng rng(61);
    for (int i = 0; i < m; ++i) {
      const Orientation truth = por::test::random_orientation(rng);
      Image<double> view = model.project_analytic(l, truth);
      if (snr > 0.0) add_gaussian_noise(view, snr, rng);
      views.push_back(std::move(view));
      truths.push_back(truth);
      initials.push_back({truth.theta + rng.uniform(-perturb, perturb),
                          truth.phi + rng.uniform(-perturb, perturb),
                          truth.omega + rng.uniform(-perturb, perturb)});
    }
  }
};

TEST(Pipeline, ProducesCycleReports) {
  PipelineWorkload w;
  const RefinementPipeline pipeline(fast_pipeline());
  GroundTruth truth;
  truth.orientations = w.truths;
  const PipelineResult result =
      pipeline.run(w.views, w.initials, std::nullopt, truth);
  ASSERT_EQ(result.cycles.size(), 2u);
  for (const auto& cycle : result.cycles) {
    EXPECT_GT(cycle.fsc_radius, 0.0);
    EXPECT_GT(cycle.resolution_a, 0.0);
    EXPECT_GT(cycle.matchings, 0u);
    EXPECT_GT(cycle.orientation_error.count, 0u);
  }
  EXPECT_EQ(result.orientations.size(), w.views.size());
  EXPECT_EQ(result.map.nx(), w.l);
}

TEST(Pipeline, ImprovesOrientationsOverInitialGuess) {
  PipelineWorkload w(24, 2.5);
  const RefinementPipeline pipeline(fast_pipeline());
  GroundTruth truth;
  truth.orientations = w.truths;
  const PipelineResult result =
      pipeline.run(w.views, w.initials, std::nullopt, truth);
  const auto init_stats =
      metrics::orientation_error_stats(w.initials, w.truths, truth.symmetry);
  const auto final_error = result.cycles.back().orientation_error;
  EXPECT_LT(final_error.mean, init_stats.mean);
}

TEST(Pipeline, FinalFscBeatsInitialMapFsc) {
  PipelineWorkload w(24, 3.0);
  const PipelineConfig config = fast_pipeline();
  const RefinementPipeline pipeline(config);

  // FSC of the half-maps built from the INITIAL (perturbed)
  // orientations.
  const auto initial_curve = RefinementPipeline::odd_even_fsc(
      w.views, w.initials, {}, config.recon);
  const double initial_crossing = metrics::crossing_radius(initial_curve, 0.5);

  const PipelineResult result = pipeline.run(w.views, w.initials);
  EXPECT_GE(result.cycles.back().fsc_radius, initial_crossing);
}

TEST(Pipeline, AcceptsExternalInitialMap) {
  PipelineWorkload w(16, 1.0);
  const RefinementPipeline pipeline(fast_pipeline());
  const Volume<double> truth_map = w.model.rasterize(w.l);
  const PipelineResult result = pipeline.run(w.views, w.initials, truth_map);
  ASSERT_EQ(result.cycles.size(), 2u);
  // Against the true map the first cycle already refines well.
  GroundTruth truth;
  truth.orientations = w.truths;
  const auto errors = metrics::orientation_error_stats(
      result.orientations, w.truths, truth.symmetry);
  EXPECT_LT(errors.mean, 1.0);
}

TEST(Pipeline, TracksCenterErrorWhenTruthGiven) {
  PipelineWorkload w(12, 1.0);
  PipelineConfig config = fast_pipeline();
  config.refiner.refine_centers = true;
  const RefinementPipeline pipeline(config);
  GroundTruth truth;
  truth.orientations = w.truths;
  truth.centers.assign(w.views.size(), {0.0, 0.0});
  const PipelineResult result =
      pipeline.run(w.views, w.initials, std::nullopt, truth);
  // True centers are zero; the refiner should stay near them.
  EXPECT_LT(result.cycles.back().mean_center_error_px, 0.75);
}

TEST(Pipeline, RejectsBadConfig) {
  PipelineConfig config = fast_pipeline();
  config.cycles = 0;
  EXPECT_THROW((void)RefinementPipeline(config), std::invalid_argument);
  config = fast_pipeline();
  config.r_map_growth = 0.5;
  EXPECT_THROW((void)RefinementPipeline(config), std::invalid_argument);
}

TEST(Pipeline, RejectsBadInputs) {
  const RefinementPipeline pipeline(fast_pipeline());
  EXPECT_THROW((void)pipeline.run({}, {}), std::invalid_argument);
}

TEST(OddEvenFsc, SplitsViewsInHalf) {
  PipelineWorkload w(20, 0.0);
  const auto curve = RefinementPipeline::odd_even_fsc(
      w.views, w.truths, {}, recon::ReconOptions{});
  ASSERT_FALSE(curve.correlation.empty());
  // With exact orientations both halves reconstruct the same particle:
  // correlation near 1 at low shells.
  EXPECT_GT(curve.correlation[1], 0.9);
  EXPECT_GT(curve.correlation[2], 0.9);
}

/// The odd/even curve as the copy-based split computed it: each half's
/// views, orientations and centers copied out, then inserted one view
/// at a time.
metrics::FscCurve copied_halves_fsc(
    const std::vector<Image<double>>& views,
    const std::vector<Orientation>& orientations,
    const std::vector<std::pair<double, double>>& centers) {
  const std::size_t l = views.front().nx();
  recon::FourierAccumulator halves[2] = {{l, {}}, {l, {}}};
  for (std::size_t i = 0; i < views.size(); ++i) {
    const Image<double> view = views[i];
    const Orientation o = orientations[i];
    const auto c = centers.empty() ? std::pair{0.0, 0.0} : centers[i];
    halves[i % 2].insert(view, o, c.first, c.second);
  }
  return metrics::fourier_shell_correlation(halves[1].finish(),
                                            halves[0].finish());
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(OddEvenFsc, IsBitwiseTheCopiedSplit) {
  for (const int count : {13, 14}) {
    PipelineWorkload w(count, 2.0);
    util::Rng rng(5);
    std::vector<std::pair<double, double>> centers;
    for (int i = 0; i < count; ++i) {
      centers.emplace_back(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    }
    for (const auto& c : {std::vector<std::pair<double, double>>{}, centers}) {
      const auto curve = RefinementPipeline::odd_even_fsc(
          w.views, w.initials, c, recon::ReconOptions{});
      const auto reference = copied_halves_fsc(w.views, w.initials, c);
      EXPECT_TRUE(same_bits(curve.correlation, reference.correlation))
          << count << " views, centers " << !c.empty();
      EXPECT_TRUE(same_bits(curve.shell_radius, reference.shell_radius));
    }
  }
  PipelineWorkload one(1, 0.0);
  EXPECT_THROW((void)RefinementPipeline::odd_even_fsc(
                   one.views, one.truths, {}, recon::ReconOptions{}),
               std::invalid_argument);
}

}  // namespace

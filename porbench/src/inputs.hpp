// Seeded input generation for the benchmark workloads.  The program
// under test only ever sees what these functions return; the seed is the
// driver's --seed argument, so the same seed gives bitwise-identical
// inputs and digest() proves it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "por/em/ctf.hpp"
#include "por/em/grid.hpp"
#include "por/em/orientation.hpp"
#include "por/em/symmetry.hpp"

namespace porbench {

enum class Particle { kSindbis, kReo, kAsymmetric };

struct SimSpec {
  Particle particle = Particle::kSindbis;
  std::size_t l = 64;
  std::size_t views = 100;
  double snr = 2.0;
  /// Simulated microscope CTF; the refiner Wiener-corrects with the
  /// same parameters and reconstruction uses corrected copies.
  std::optional<por::em::CtfParams> ctf;
  double wiener_snr = 20.0;
};

struct Sim {
  std::size_t l = 0;
  por::em::Volume<double> map;                  ///< reference map (phantom)
  std::vector<por::em::Image<double>> views;    ///< what the refiner gets
  /// CTF-corrected copies for reconstruction/FSC; empty = use `views`.
  std::vector<por::em::Image<double>> corrected;
  std::vector<por::em::Orientation> truth;
  std::vector<por::em::Orientation> initial;    ///< truth on a 3-degree grid
  por::em::SymmetryGroup symmetry = por::em::SymmetryGroup::identity();

  [[nodiscard]] const std::vector<por::em::Image<double>>& recon_views() const {
    return corrected.empty() ? views : corrected;
  }
};

/// Threads simulate() makes the views on.
constexpr int kSimThreads = 4;

/// Simulate `spec.views` projections of the particle at random
/// orientations drawn from `seed`, with noise at `spec.snr`.
[[nodiscard]] Sim simulate(const SimSpec& spec, std::uint64_t seed);

/// FNV-1a over every generated number (map, views, orientations).
[[nodiscard]] std::uint64_t digest(const Sim& sim);

}  // namespace porbench

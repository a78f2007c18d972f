// por/recon/fourier_recon.hpp
//
// 3D reconstruction of the electron density in Cartesian coordinates
// (the paper's step C; companion algorithm of refs [18], [20]): every
// view's centered 2D spectrum is inserted as a central section into an
// oversampled 3D Fourier accumulation grid by trilinear splatting,
// the grid is weight-normalized, and an inverse 3D DFT followed by a
// crop returns the density map.  Works for any orientation set — no
// symmetry is assumed, matching the paper's "reconstruction in
// Cartesian coordinates for objects without symmetry".
//
// Insertion runs on a serve::Scheduler (DESIGN.md §16): each batch of
// views first computes its padded spectra in parallel, then splits the
// padded grid into z-slabs whose tasks each walk the whole batch in
// view order and splat only into their own planes.  Every voxel thus
// sees exactly the serial sequence of additions, so the map is
// bitwise identical to the one-view-at-a-time loop at any worker count.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "por/em/grid.hpp"
#include "por/em/orientation.hpp"
#include "por/em/pad.hpp"

namespace por::serve {
class Scheduler;
}  // namespace por::serve

namespace por::recon {

/// Views per batch of the scheduled insertion.  A batch's padded spectra
/// are held at once (2 MiB at l=64, pad 2); batches of 8 to 64 views ran
/// equally fast, and 8 kept the most memory free (DESIGN.md §16).  Tests
/// use it to span a partial batch.
inline constexpr std::size_t kInsertBatchViews = 8;

struct ReconOptions {
  std::size_t pad = em::kDefaultPad;  ///< oversampling factor
  double r_max = 0.0;     ///< insertion radius in padded Fourier px (0 = auto)
  double weight_floor = 1e-3;  ///< voxels with less accumulated weight stay 0
};

/// Accumulation grids for incremental insertion; exposed so the
/// distributed driver can reduce partial sums across ranks.
struct FourierAccumulator {
  FourierAccumulator(std::size_t l, const ReconOptions& options);

  /// Insert one view: image `view` (l x l) whose particle center sits
  /// at floor(l/2) + (center_x, center_y) and whose projection
  /// orientation is `o`.
  void insert(const em::Image<double>& view, const em::Orientation& o,
              double center_x = 0.0, double center_y = 0.0);

  /// Insert views[i] (with orientations[i] and, when `centers` is not
  /// empty, centers[i]) for every i in `indices`, in that order, on
  /// `scheduler`.  Bitwise identical to calling insert() for each
  /// index in turn, at any worker count.  Blocks on the scheduler, so
  /// never call it from one of that scheduler's own tasks.
  void insert_views(serve::Scheduler& scheduler,
                    const std::vector<em::Image<double>>& views,
                    const std::vector<em::Orientation>& orientations,
                    const std::vector<std::pair<double, double>>& centers,
                    std::span<const std::size_t> indices);

  /// Normalize, inverse-transform and crop to the original edge l.
  [[nodiscard]] em::Volume<double> finish() const;

  std::size_t l;                       ///< original (cropped) edge
  ReconOptions options;
  em::Volume<em::cdouble> values;      ///< padded sum of splatted samples
  em::Volume<double> weights;          ///< padded sum of splat weights
  std::size_t view_count = 0;
};

/// One-call reconstruction from views + orientations (+ optional
/// per-view centers, which may be empty), inserted on a scheduler with
/// the default worker count.  The view edge sets the map edge.
[[nodiscard]] em::Volume<double> fourier_reconstruct(
    const std::vector<em::Image<double>>& views,
    const std::vector<em::Orientation>& orientations,
    const std::vector<std::pair<double, double>>& centers = {},
    const ReconOptions& options = {});

/// Reconstruction from the subset views[i], i in `indices` (inserted in
/// that order), on the caller's `scheduler`.
[[nodiscard]] em::Volume<double> fourier_reconstruct(
    serve::Scheduler& scheduler, const std::vector<em::Image<double>>& views,
    const std::vector<em::Orientation>& orientations,
    const std::vector<std::pair<double, double>>& centers,
    std::span<const std::size_t> indices, const ReconOptions& options = {});

}  // namespace por::recon

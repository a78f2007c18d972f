#include "por/recon/fourier_recon.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "por/em/projection.hpp"
#include "por/obs/span.hpp"
#include "por/serve/scheduler.hpp"

namespace por::recon {

namespace {

// z-slabs per batch: four tasks per worker on a 4-core host, enough to
// balance the denser middle planes of a central section (DESIGN.md §16).
constexpr std::size_t kInsertSlabs = 16;

// A slab task skips the pixels whose pz cannot reach its planes.  The
// row interval is solved from the same affine pz(x) the pixel loop
// evaluates, so the two differ by rounding (~1e-13); the margin, in
// grid units, keeps every pixel that can reach the slab inside it.
constexpr double kRowMargin = 1e-6;

/// floor(v) as an integer without a libm call: truncation, stepped down
/// for negative non-integers.  Equal to static_cast<long>(std::floor(v))
/// for every v a grid coordinate can take.
long floor_index(double v) {
  const long i = static_cast<long>(v);
  return static_cast<double>(i) > v ? i - 1 : i;
}

struct Section {
  em::Vec3 eu, ev;  ///< image x / y axes in the 3D frequency grid
};

Section section_axes(const em::Orientation& o) {
  const em::Mat3 r = em::rotation_matrix(o);
  return {r * em::Vec3{1, 0, 0}, r * em::Vec3{0, 1, 0}};
}

/// The one splat kernel: trilinear insertion of `spectrum` as the
/// central section `s`, restricted to the padded z-planes
/// [z_begin, z_end).  Pixels run in row-major order, so any voxel
/// receives its additions from this view in the order of the full-grid
/// walk; disjoint slabs touch disjoint voxels.
void splat(em::Volume<em::cdouble>& values, em::Volume<double>& weights,
           double r_max, const em::Image<em::cdouble>& spectrum,
           const Section& s, long z_begin, long z_end) {
  const std::size_t big = values.nx();
  const em::Vec3& eu = s.eu;
  const em::Vec3& ev = s.ev;
  const double c = std::floor(static_cast<double>(big) / 2.0);
  const long nbig = static_cast<long>(big);
  em::cdouble* const value_data = values.data();
  double* const weight_data = weights.data();
  // A corner lands in [z_begin, z_end) only when floor(pz) lies in
  // [z_begin - 1, z_end - 1], i.e. pz in [z_begin - 1, z_end).
  const double pz_lo = static_cast<double>(z_begin) - 1.0 - kRowMargin;
  const double pz_hi = static_cast<double>(z_end) + kRowMargin;
  const double last = static_cast<double>(big - 1);

  for (std::size_t y = 0; y < big; ++y) {
    const double kv = static_cast<double>(y) - c;
    // Along the row pz(x) = (x - c) * eu.z + pz_row.
    const double pz_row = kv * ev.z + c;
    double x_lo = 0.0, x_hi = last;
    // por-lint: allow(float-eq) an exactly level row has constant pz
    if (eu.z == 0.0) {
      if (pz_row < pz_lo || pz_row > pz_hi) continue;
    } else {
      const double a = c + (pz_lo - pz_row) / eu.z;
      const double b = c + (pz_hi - pz_row) / eu.z;
      // Clamped in double, so huge or infinite bounds never reach an
      // integer conversion.
      x_lo = std::max(x_lo, std::floor(std::min(a, b)));
      x_hi = std::min(x_hi, std::ceil(std::max(a, b)));
      if (x_lo > x_hi) continue;
    }
    const auto x_end = static_cast<std::size_t>(x_hi) + 1;
    for (auto x = static_cast<std::size_t>(x_lo); x < x_end; ++x) {
      const double ku = static_cast<double>(x) - c;
      if (std::sqrt(ku * ku + kv * kv) > r_max) continue;
      const em::cdouble sample = spectrum(y, x);
      const em::Vec3 q = ku * eu + kv * ev;
      const double pz = q.z + c, py = q.y + c, px = q.x + c;
      const long iz = floor_index(pz);
      const long iy = floor_index(py);
      const long ix = floor_index(px);
      const double tz = pz - static_cast<double>(iz);
      const double ty = py - static_cast<double>(iy);
      const double tx = px - static_cast<double>(ix);
      for (int dz = 0; dz < 2; ++dz) {
        const long zz = iz + dz;
        if (zz < z_begin || zz >= z_end) continue;
        const double wz = dz ? tz : 1.0 - tz;
        for (int dy = 0; dy < 2; ++dy) {
          const long yy = iy + dy;
          if (yy < 0 || yy >= nbig) continue;
          const double wy = dy ? ty : 1.0 - ty;
          const std::size_t row = (static_cast<std::size_t>(zz) * big +
                                   static_cast<std::size_t>(yy)) * big;
          for (int dx = 0; dx < 2; ++dx) {
            const long xx = ix + dx;
            if (xx < 0 || xx >= nbig) continue;
            const double w = wz * wy * (dx ? tx : 1.0 - tx);
            // por-lint: allow(float-eq) exact-zero weight skip
            if (w == 0.0) continue;
            const std::size_t at = row + static_cast<std::size_t>(xx);
            value_data[at] += w * sample;
            weight_data[at] += w;
          }
        }
      }
    }
  }
}

/// Centered padded spectrum of `view`, re-centered by (-cx, -cy).
em::Image<em::cdouble> view_spectrum(const em::Image<double>& view,
                                     std::size_t pad, double center_x,
                                     double center_y) {
  em::Image<em::cdouble> spectrum = em::centered_fft2(em::pad_image(view, pad));
  // por-lint: allow(float-eq) exact-zero center skips the phase ramp
  // entirely (bit-identical fast path for centered particles).
  if (center_x != 0.0 || center_y != 0.0) {
    // The particle sits at +(cx, cy) off the box center; translating
    // the image by (-cx, -cy) re-centers it.
    em::apply_translation_phase(spectrum, -center_x, -center_y);
  }
  return spectrum;
}

}  // namespace

FourierAccumulator::FourierAccumulator(std::size_t edge,
                                       const ReconOptions& opts)
    : l(edge), options(opts) {
  if (options.pad < 1) {
    throw std::invalid_argument("FourierAccumulator: pad must be >= 1");
  }
  const std::size_t big = l * options.pad;
  values = em::Volume<em::cdouble>(big, em::cdouble{0.0, 0.0});
  weights = em::Volume<double>(big, 0.0);
  if (options.r_max <= 0.0) {
    options.r_max = static_cast<double>(big) / 2.0 - 1.0;
  }
}

void FourierAccumulator::insert(const em::Image<double>& view,
                                const em::Orientation& o, double center_x,
                                double center_y) {
  if (view.nx() != l || view.ny() != l) {
    throw std::invalid_argument("FourierAccumulator::insert: view size");
  }
  em::Image<em::cdouble> spectrum;
  {
    const obs::ScopedSpan span("recon.spectra");
    spectrum = view_spectrum(view, options.pad, center_x, center_y);
  }
  const obs::ScopedSpan span("recon.insert");
  const long big = static_cast<long>(values.nx());
  splat(values, weights, options.r_max, spectrum, section_axes(o), 0, big);
  ++view_count;
}

void FourierAccumulator::insert_views(
    serve::Scheduler& scheduler, const std::vector<em::Image<double>>& views,
    const std::vector<em::Orientation>& orientations,
    const std::vector<std::pair<double, double>>& centers,
    std::span<const std::size_t> indices) {
  if (views.size() != orientations.size()) {
    throw std::invalid_argument("insert_views: views/orientations");
  }
  if (!centers.empty() && centers.size() != views.size()) {
    throw std::invalid_argument("insert_views: centers size");
  }
  for (const std::size_t i : indices) {
    if (i >= views.size()) {
      throw std::invalid_argument("insert_views: index out of range");
    }
    if (views[i].nx() != l || views[i].ny() != l) {
      throw std::invalid_argument("insert_views: view size");
    }
  }
  const long big = static_cast<long>(values.nx());
  std::vector<em::Image<em::cdouble>> spectra(
      std::min(kInsertBatchViews, indices.size()));
  std::vector<Section> sections(spectra.size());
  for (std::size_t first = 0; first < indices.size();
       first += kInsertBatchViews) {
    const std::size_t n = std::min(kInsertBatchViews, indices.size() - first);
    {
      const obs::ScopedSpan span("recon.spectra");
      scheduler.run(n, [&](std::size_t k) {
        const std::size_t i = indices[first + k];
        const double cx = centers.empty() ? 0.0 : centers[i].first;
        const double cy = centers.empty() ? 0.0 : centers[i].second;
        spectra[k] = view_spectrum(views[i], options.pad, cx, cy);
        sections[k] = section_axes(orientations[i]);
      });
    }
    // Owner computes: slab t alone writes planes [z_t, z_t+1), walking
    // the batch in view order, so each voxel's sum is formed in the
    // serial order.
    const obs::ScopedSpan span("recon.insert");
    const long slabs = std::min(static_cast<long>(kInsertSlabs), big);
    scheduler.run(static_cast<std::size_t>(slabs), [&](std::size_t t) {
      const long z_begin = big * static_cast<long>(t) / slabs;
      const long z_end = big * (static_cast<long>(t) + 1) / slabs;
      for (std::size_t k = 0; k < n; ++k) {
        splat(values, weights, options.r_max, spectra[k], sections[k],
              z_begin, z_end);
      }
    });
  }
  view_count += indices.size();
}

em::Volume<double> FourierAccumulator::finish() const {
  const obs::ScopedSpan span("recon.finish");
  const std::size_t big = values.nx();
  em::Volume<em::cdouble> normalized(big, em::cdouble{0.0, 0.0});
  for (std::size_t i = 0; i < normalized.size(); ++i) {
    const double w = weights.storage()[i];
    if (w >= options.weight_floor) {
      normalized.storage()[i] = values.storage()[i] / w;
    }
  }
  const em::Volume<double> padded =
      em::centered_ifft3(normalized);
  // No extra scale: by the discrete projection-slice theorem the 2D
  // DFT of a projection equals the corresponding central section of
  // the 3D DFT sample-for-sample, so the weight-normalized grid IS an
  // estimate of the volume's DFT and the inverse transform restores
  // density units directly (verified against rasterized phantoms in
  // tests/test_recon.cpp).
  return em::crop_volume(padded, l);
}

em::Volume<double> fourier_reconstruct(
    const std::vector<em::Image<double>>& views,
    const std::vector<em::Orientation>& orientations,
    const std::vector<std::pair<double, double>>& centers,
    const ReconOptions& options) {
  std::vector<std::size_t> all(views.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  serve::Scheduler scheduler;
  return fourier_reconstruct(scheduler, views, orientations, centers, all,
                             options);
}

em::Volume<double> fourier_reconstruct(
    serve::Scheduler& scheduler, const std::vector<em::Image<double>>& views,
    const std::vector<em::Orientation>& orientations,
    const std::vector<std::pair<double, double>>& centers,
    std::span<const std::size_t> indices, const ReconOptions& options) {
  if (indices.empty()) {
    throw std::invalid_argument("fourier_reconstruct: no views");
  }
  if (indices.front() >= views.size()) {
    throw std::invalid_argument("fourier_reconstruct: index out of range");
  }
  // insert_views checks the rest before it touches the grids.
  FourierAccumulator acc(views[indices.front()].nx(), options);
  acc.insert_views(scheduler, views, orientations, centers, indices);
  return acc.finish();
}

}  // namespace por::recon

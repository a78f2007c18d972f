#include "por/recon/parallel_recon.hpp"

#include <cstring>
#include <stdexcept>

namespace por::recon {

em::Volume<double> parallel_fourier_reconstruct(
    vmpi::Comm& comm, std::size_t l,
    const std::vector<em::Image<double>>& my_views,
    const std::vector<em::Orientation>& my_orientations,
    const std::vector<std::pair<double, double>>& my_centers,
    const ReconOptions& options) {
  if (my_views.size() != my_orientations.size()) {
    throw std::invalid_argument(
        "parallel_fourier_reconstruct: views/orientations");
  }
  if (!my_centers.empty() && my_centers.size() != my_views.size()) {
    throw std::invalid_argument("parallel_fourier_reconstruct: centers size");
  }
  FourierAccumulator acc(l, options);
  for (std::size_t i = 0; i < my_views.size(); ++i) {
    const double cx = my_centers.empty() ? 0.0 : my_centers[i].first;
    const double cy = my_centers.empty() ? 0.0 : my_centers[i].second;
    acc.insert(my_views[i], my_orientations[i], cx, cy);
  }
  // Element-wise sum of every rank's grids; complex values reduce as
  // interleaved doubles.
  static_assert(sizeof(em::cdouble) == 2 * sizeof(double));
  std::vector<double> flat(acc.values.size() * 2 + acc.weights.size());
  for (std::size_t i = 0; i < acc.values.size(); ++i) {
    flat[2 * i] = acc.values.storage()[i].real();
    flat[2 * i + 1] = acc.values.storage()[i].imag();
  }
  std::copy(acc.weights.storage().begin(), acc.weights.storage().end(),
            flat.begin() + static_cast<std::ptrdiff_t>(acc.values.size() * 2));
  flat = comm.allreduce(flat, vmpi::ReduceOp::kSum);
  for (std::size_t i = 0; i < acc.values.size(); ++i) {
    acc.values.storage()[i] = em::cdouble(flat[2 * i], flat[2 * i + 1]);
  }
  std::copy(flat.begin() + static_cast<std::ptrdiff_t>(acc.values.size() * 2),
            flat.end(), acc.weights.storage().begin());
  return acc.finish();
}

}  // namespace por::recon

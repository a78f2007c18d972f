#include "inputs.hpp"

#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <thread>

#include "por/em/noise.hpp"
#include "por/em/phantom.hpp"
#include "por/em/projection.hpp"
#include "por/util/rng.hpp"

namespace porbench {

using namespace por;

namespace {

em::BlobModel make_particle(Particle particle, std::size_t l) {
  em::PhantomSpec spec;
  spec.l = l;
  switch (particle) {
    case Particle::kSindbis:
      return em::make_sindbis_like(spec);
    case Particle::kReo:
      return em::make_reo_like(spec);
    case Particle::kAsymmetric:
      break;
  }
  return em::make_asymmetric(spec, 30);
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void orientations(const std::vector<em::Orientation>& os) {
    for (const auto& o : os) {
      const double v[3] = {o.theta, o.phi, o.omega};
      bytes(v, sizeof(v));
    }
  }
};

}  // namespace

Sim simulate(const SimSpec& spec, std::uint64_t seed) {
  Sim sim;
  sim.l = spec.l;
  const em::BlobModel particle = make_particle(spec.particle, spec.l);
  sim.map = particle.rasterize(spec.l);
  if (spec.particle != Particle::kAsymmetric) {
    sim.symmetry = em::SymmetryGroup::icosahedral();
  }

  // Each view draws from its own generator, seeded in order from `seed`,
  // so the views can be made on several threads and still come out the
  // same whatever thread makes which.
  const std::size_t n = spec.views;
  std::vector<std::uint64_t> view_seeds(n);
  util::Rng seeder(seed);
  for (auto& s : view_seeds) s = seeder();
  sim.views.resize(n);
  sim.truth.resize(n);
  sim.initial.resize(n);
  if (spec.ctf) sim.corrected.resize(n);
  const auto quantize = [](double deg) { return 3.0 * std::round(deg / 3.0); };
  const auto make_view = [&](std::size_t i) {
    util::Rng rng(view_seeds[i]);
    double theta = 0.0, phi = 0.0;
    rng.sphere_point(theta, phi);
    const em::Orientation o{em::rad2deg(theta), em::rad2deg(phi),
                            rng.uniform(0.0, 360.0)};
    em::Image<double> view = particle.project_analytic(spec.l, o);
    if (spec.ctf) {
      em::Image<em::cdouble> spectrum = em::centered_fft2(view);
      em::apply_ctf(spectrum, *spec.ctf);
      view = em::centered_ifft2(spectrum);
    }
    em::add_gaussian_noise(view, spec.snr, rng);
    if (spec.ctf) {
      em::Image<em::cdouble> corrected = em::centered_fft2(view);
      em::correct_ctf(corrected, *spec.ctf, em::CtfCorrection::kWiener,
                      spec.wiener_snr);
      sim.corrected[i] = em::centered_ifft2(corrected);
    }
    sim.views[i] = std::move(view);
    sim.truth[i] = o;
    sim.initial[i] =
        em::Orientation{quantize(o.theta), quantize(o.phi), quantize(o.omega)};
  };
  // Spread over kSimThreads threads: a single thread's speed on a shared
  // VM wanders far more from run to run than that of several.
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(kSimThreads);
  const auto worker = [&](int t) {
    try {
      for (std::size_t i = next++; i < n; i = next++) make_view(i);
    } catch (...) {
      errors[static_cast<std::size_t>(t)] = std::current_exception();
      next = n;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < kSimThreads; ++t) threads.emplace_back(worker, t);
  worker(0);
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return sim;
}

std::uint64_t digest(const Sim& sim) {
  Fnv f;
  f.bytes(sim.map.data(), sim.map.size() * sizeof(double));
  for (const auto& v : sim.views) f.bytes(v.data(), v.size() * sizeof(double));
  for (const auto& v : sim.corrected) {
    f.bytes(v.data(), v.size() * sizeof(double));
  }
  f.orientations(sim.truth);
  f.orientations(sim.initial);
  return f.h;
}

}  // namespace porbench

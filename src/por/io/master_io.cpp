#include "por/io/master_io.hpp"

namespace por::io {

namespace {

constexpr vmpi::Tag kRefinedTag = 103;

}  // namespace

std::size_t block_share(std::size_t m, int nranks, int rank) {
  const std::size_t base = m / static_cast<std::size_t>(nranks);
  const std::size_t rem = m % static_cast<std::size_t>(nranks);
  return base + (static_cast<std::size_t>(rank) < rem ? 1 : 0);
}

std::size_t block_begin(std::size_t m, int nranks, int rank) {
  std::size_t begin = 0;
  for (int r = 0; r < rank; ++r) begin += block_share(m, nranks, r);
  return begin;
}

std::vector<ViewOrientation> master_read_orientations(
    vmpi::Comm& comm, const std::string& orient_path) {
  if (comm.is_root()) {
    auto all = read_orientations(orient_path);
    std::vector<std::vector<ViewOrientation>> chunks(comm.size());
    std::size_t cursor = 0;
    for (int r = 0; r < comm.size(); ++r) {
      const std::size_t share = block_share(all.size(), comm.size(), r);
      chunks[r].assign(all.begin() + cursor, all.begin() + cursor + share);
      cursor += share;
    }
    return comm.scatterv(0, chunks);
  }
  return comm.scatterv(0, std::vector<std::vector<ViewOrientation>>{});
}

void master_write_orientations(vmpi::Comm& comm, const std::string& path,
                               const std::vector<ViewOrientation>& mine,
                               const std::string& comment) {
  if (comm.is_root()) {
    std::vector<ViewOrientation> all = mine;
    for (int r = 1; r < comm.size(); ++r) {
      auto piece = comm.recv<ViewOrientation>(r, kRefinedTag);
      all.insert(all.end(), piece.begin(), piece.end());
    }
    write_orientations(path, all, comment);
  } else {
    comm.send(0, kRefinedTag, mine);
  }
}

}  // namespace por::io

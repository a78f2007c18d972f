// por/io/master_io.hpp
//
// Master-node distributed I/O (paper §3: "Parallel I/O could reduce
// the I/O time but in our algorithm we do not assume the existence of
// a parallel file system.  To avoid contention, a master node
// typically reads an entire data file and distributes data segments to
// the nodes as needed").
//
// Every function here is an SPMD collective: all ranks call it; rank 0
// touches the filesystem; the others receive their share by message.
#pragma once

#include <string>
#include <vector>

#include "por/io/orientation_io.hpp"
#include "por/vmpi/comm.hpp"

namespace por::io {

/// Rank 0 reads the orientation file and deals records by block: rank
/// r receives records [block_begin(m, P, r), +block_share(m, P, r)).
/// The view pixels follow the same partition through the refinement
/// drivers' ViewSource (paper step c keeps a view and its orientation
/// on the same node).
[[nodiscard]] std::vector<ViewOrientation> master_read_orientations(
    vmpi::Comm& comm, const std::string& orient_path);

/// Rank 0 gathers every rank's refined records (in rank order, which
/// restores global view order under the block partition) and writes
/// the orientation file (paper step o).
void master_write_orientations(vmpi::Comm& comm, const std::string& path,
                               const std::vector<ViewOrientation>& mine,
                               const std::string& comment = "");

/// Block partition helper: number of items rank r owns out of m.
[[nodiscard]] std::size_t block_share(std::size_t m, int nranks, int rank);

/// Global index of the first item rank r owns.
[[nodiscard]] std::size_t block_begin(std::size_t m, int nranks, int rank);

}  // namespace por::io

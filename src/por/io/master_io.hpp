// por/io/master_io.hpp
//
// Master-node distributed I/O (paper §3: "Parallel I/O could reduce
// the I/O time but in our algorithm we do not assume the existence of
// a parallel file system.  To avoid contention, a master node
// typically reads an entire data file and distributes data segments to
// the nodes as needed").
//
// The master I/O itself runs inside the refinement drivers
// (core/parallel_refiner): rank 0 reads the orientation file and the
// view stack, deals each rank its block and writes the refined file.
// This header holds the block partition they deal by.  The helpers
// are plain arithmetic, not collectives: any rank may call them.
#pragma once

#include <cstddef>

namespace por::io {

/// Block partition helper: number of items rank r owns out of m.
/// Rank r owns items [block_begin(m, P, r), +block_share(m, P, r)), so
/// a view and its orientation stay on the same node (paper step c).
[[nodiscard]] std::size_t block_share(std::size_t m, int nranks, int rank);

/// Global index of the first item rank r owns.
[[nodiscard]] std::size_t block_begin(std::size_t m, int nranks, int rank);

}  // namespace por::io

// por/stream/view_cursor.hpp
//
// ViewCursor — sequential consumption of a ViewSource range with
// double-buffered background prefetch (DESIGN.md §14).
//
// The cursor carves [first, first + count) into chunks of
// `batch_views` views and keeps a ring of `depth` slots.  Each slot
// owns a private util::Arena whose one array holds a whole chunk of
// pixels (rule 2 of the arena discipline: a buffer outliving
// interleaved frames owns its own arena), filled by a batch on the
// cursor's own single-worker serve::Scheduler while the consumer chews
// the previous chunk.  The fill calls ViewSource::will_need first, so
// on a mmap-backed source the kernel is paging the next window in
// while the current one is being matched.
//
// Consumption is strictly ordered and zero-copy into the compute: the
// pointer next() returns aims into the slot's arena block and stays
// valid until the next next() call.  Steady state allocates nothing on
// the consumer path (arena blocks are reused verbatim; the per-chunk
// refill submit costs one scheduler control block, amortized over
// batch_views views).
//
// Determinism: views arrive in index order whatever `depth` — the
// background batches only *fill* slots; the consumer drains them in
// chunk order.  bench_stream gates bitwise identity against the
// in-core path at several depths.
//
// Obs: "stream.prefetch.hits" (chunk ready on arrival) vs
// "stream.prefetch.stalls" (consumer blocked), stall latency in the
// "stream.prefetch.stall_seconds" log histogram.  The first chunk of a
// cursor is a cold start, not a pipeline failure — it counts toward
// neither, and lands in "stream.prefetch.cold_starts" instead.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "por/serve/scheduler.hpp"
#include "por/stream/view_source.hpp"
#include "por/util/arena.hpp"

namespace por::stream {

struct PrefetchOptions {
  /// Chunks in flight (1 = synchronous double-buffer degenerate case:
  /// fetch-then-consume, still bitwise identical).
  std::size_t depth = 2;
  /// Views per chunk.
  std::size_t batch_views = 32;
};

class ViewCursor {
 public:
  /// Stream views [first, first + count) of `source`, which must
  /// outlive the cursor.  Prefetch of the first `depth` chunks starts
  /// immediately.
  ViewCursor(ViewSource& source, std::uint64_t first, std::uint64_t count,
             const PrefetchOptions& options = {});
  ~ViewCursor();
  ViewCursor(const ViewCursor&) = delete;
  ViewCursor& operator=(const ViewCursor&) = delete;

  /// Pixels of the next view in index order (ny*nx doubles), or
  /// nullptr when the range is exhausted.  The pointer stays valid
  /// until the next call.  Rethrows any fill-side error (corrupt
  /// shard without quarantine, dead scheduler) on the consumer thread.
  [[nodiscard]] const double* next();

  /// Index of the view most recently returned by next().
  [[nodiscard]] std::uint64_t current_index() const {
    return next_index_ - 1;
  }
  [[nodiscard]] std::uint64_t remaining() const {
    return first_ + count_ - next_index_;
  }

  struct Stats {
    std::uint64_t hits = 0;    ///< chunks ready when the consumer arrived
    std::uint64_t stalls = 0;  ///< chunks the consumer had to wait for
    double stall_seconds = 0;  ///< total blocked time (excl. cold start)
    double cold_start_seconds = 0;  ///< first-chunk wait
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Slot {
    util::Arena arena;
    double* pixels = nullptr;        ///< capacity batch_views * view_px
    std::uint64_t chunk = 0;         ///< chunk ordinal this slot holds
    std::size_t views = 0;           ///< views filled for that chunk
    std::shared_ptr<serve::Batch> batch;  ///< fill in flight (or done)
  };

  [[nodiscard]] std::uint64_t chunk_count() const;
  void submit_fill(std::size_t slot_id, std::uint64_t chunk);
  void await_chunk(std::uint64_t chunk);

  ViewSource& source_;
  std::uint64_t first_ = 0;
  std::uint64_t count_ = 0;
  std::size_t view_px_ = 0;
  PrefetchOptions options_;
  serve::Scheduler scheduler_;  ///< one fill worker, owned
  std::mutex source_mutex_;  ///< fills serialize their source access

  std::vector<Slot> slots_;
  std::uint64_t next_index_ = 0;    ///< next view to hand out
  std::uint64_t current_chunk_ = 0;
  std::size_t consumed_in_chunk_ = 0;
  bool started_ = false;
  Stats stats_;
};

}  // namespace por::stream

#include "por/stream/view_cursor.hpp"

#include <chrono>

#include "por/obs/registry.hpp"
#include "por/util/contracts.hpp"

namespace por::stream {

namespace {

[[nodiscard]] double seconds_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

[[nodiscard]] serve::SchedulerOptions one_fill_worker() {
  serve::SchedulerOptions options;
  options.workers = 1;
  return options;
}

}  // namespace

ViewCursor::ViewCursor(ViewSource& source, std::uint64_t first,
                       std::uint64_t count, const PrefetchOptions& options)
    : source_(source),
      first_(first),
      count_(count),
      view_px_(source.view_pixels()),
      options_(options),
      scheduler_(one_fill_worker()),
      next_index_(first) {
  POR_EXPECT(first_ + count_ <= source_.count(),
             "ViewCursor range beyond source");
  if (options_.depth == 0) options_.depth = 1;
  if (options_.batch_views == 0) options_.batch_views = 1;
  const std::size_t chunk_doubles = options_.batch_views * view_px_;
  slots_.resize(std::min<std::uint64_t>(options_.depth, chunk_count()));
  for (auto& slot : slots_) {
    // Rule 2: the slot buffer outlives every frame-arena scope the
    // consumer opens between next() calls, so it owns a private arena.
    slot.arena = util::Arena(chunk_doubles * sizeof(double) + 256);
    slot.pixels = slot.arena.alloc_array<double>(chunk_doubles);
  }
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    submit_fill(s, s);
  }
}

ViewCursor::~ViewCursor() {
  // In-flight fills write into the slot arenas; they must land before
  // the arenas die (the scheduler, declared earlier, is destroyed
  // after them).
  for (auto& slot : slots_) {
    if (slot.batch) {
      try {
        slot.batch->wait();
      } catch (...) {
        // Fill errors surface through next(); destruction swallows.
      }
    }
  }
}

std::uint64_t ViewCursor::chunk_count() const {
  return (count_ + options_.batch_views - 1) / options_.batch_views;
}

void ViewCursor::submit_fill(std::size_t slot_id, std::uint64_t chunk) {
  Slot& slot = slots_[slot_id];
  const std::uint64_t chunk_first = first_ + chunk * options_.batch_views;
  const std::size_t views = static_cast<std::size_t>(
      std::min<std::uint64_t>(options_.batch_views,
                              first_ + count_ - chunk_first));
  slot.chunk = chunk;
  slot.views = views;
  slot.batch = scheduler_.submit(1, [this, &slot, chunk_first,
                                      views](std::size_t) {
    // One fill at a time: sources are internally locked but keeping
    // fills serial preserves sequential I/O order on spinning storage
    // and makes the will_need window honest.
    std::lock_guard<std::mutex> lock(source_mutex_);
    source_.will_need(chunk_first, views);
    for (std::size_t i = 0; i < views; ++i) {
      source_.fetch(chunk_first + i, slot.pixels + i * view_px_);
    }
  });
}

void ViewCursor::await_chunk(std::uint64_t chunk) {
  Slot& slot = slots_[static_cast<std::size_t>(chunk % slots_.size())];
  POR_EXPECT(slot.chunk == chunk, "ViewCursor slot/chunk mismatch");
  obs::MetricsRegistry& registry = obs::current_registry();
  if (chunk == 0) {
    // Cold start: nothing could have hidden this wait.
    const auto start = std::chrono::steady_clock::now();
    slot.batch->wait();
    stats_.cold_start_seconds = seconds_since(start);
    registry.counter("stream.prefetch.cold_starts").add();
    return;
  }
  if (slot.batch->done()) {
    slot.batch->wait();  // reap (and rethrow a failed fill)
    ++stats_.hits;
    registry.counter("stream.prefetch.hits").add();
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  slot.batch->wait();
  const double waited = seconds_since(start);
  ++stats_.stalls;
  stats_.stall_seconds += waited;
  registry.counter("stream.prefetch.stalls").add();
  registry.log_histogram("stream.prefetch.stall_seconds", 1e-6, 10.0, 4)
      .observe(waited);
}

const double* ViewCursor::next() {
  if (next_index_ == first_ + count_) return nullptr;
  if (!started_) {
    await_chunk(0);
    started_ = true;
  } else if (consumed_in_chunk_ ==
             slots_[static_cast<std::size_t>(current_chunk_ % slots_.size())]
                 .views) {
    // Hand the freed slot to the chunk `depth` ahead before blocking on
    // the next one, so the pipeline never drains below depth.
    const std::uint64_t freed = current_chunk_;
    ++current_chunk_;
    if (freed + slots_.size() < chunk_count()) {
      submit_fill(static_cast<std::size_t>(freed % slots_.size()),
                  freed + slots_.size());
    }
    await_chunk(current_chunk_);
    consumed_in_chunk_ = 0;
  }
  const Slot& slot =
      slots_[static_cast<std::size_t>(current_chunk_ % slots_.size())];
  const double* pixels = slot.pixels + consumed_in_chunk_ * view_px_;
  ++consumed_in_chunk_;
  ++next_index_;
  return pixels;
}

}  // namespace por::stream

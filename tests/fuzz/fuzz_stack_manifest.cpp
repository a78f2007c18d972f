// Fuzz target: the sharded-stack manifest parser (por/stream/
// sharded_stack, the "PORM" file at a stack's base path).
//
// The harness builds one small valid stack per process (3 views of
// 6x5, 2 views per shard), then replaces its MANIFEST with the fuzz
// input and opens the stack twice: once with the bytes as given (the
// magic/version/CRC gates), once with the field CRC re-sealed so that
// mutated counts, sizes and shard counts reach the plausibility checks
// behind the CRC — the hostile-but-checksummed manifest is the case
// that matters.  Every opened stack reads its first views and its last
// one in throwing and in quarantine mode: typed rejection is fine,
// a crash or an unbounded allocation is not.
#include <algorithm>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzz_common.hpp"
#include "por/em/grid.hpp"
#include "por/resilience/crc32.hpp"
#include "por/stream/sharded_stack.hpp"

namespace {

constexpr std::size_t kManifestBytes = 60;  ///< magic..fields..crc
constexpr std::size_t kCrcAt = 56;

/// Base path of the scratch stack; its shard files stay valid forever.
const std::string& stack_base() {
  static const std::string base = [] {
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(por::fuzz::scratch_path("manifest")).parent_path();
    const std::string root = (dir / "stack").string();
    std::vector<por::em::Image<double>> views;
    for (std::size_t v = 0; v < 3; ++v) {
      por::em::Image<double> view(6, 5, 0.0);
      for (std::size_t i = 0; i < view.size(); ++i) {
        view.data()[i] = static_cast<double>(v * 100 + i);
      }
      views.push_back(std::move(view));
    }
    por::stream::ShardedStackOptions options;
    options.views_per_shard = 2;
    por::stream::write_sharded_stack(root, views, options);
    return root;
  }();
  return base;
}

void open_and_read(const por::stream::ShardedStackOptions& options) {
  try {
    por::stream::ShardedStack stack(stack_base(), options);
    std::vector<double> view(stack.view_pixels());
    const std::uint64_t head = std::min<std::uint64_t>(stack.count(), 4);
    for (std::uint64_t index = 0; index < head; ++index) {
      (void)stack.read_view(index, view.data());
    }
    if (stack.count() > head) {
      (void)stack.read_view(stack.count() - 1, view.data());
    }
  } catch (const std::exception&) {
    // Typed rejection is the expected outcome for malformed input.
  }
}

void open_both_ways() {
  por::stream::ShardedStackOptions strict;
  open_and_read(strict);
  por::stream::ShardedStackOptions tolerant;
  tolerant.quarantine_corrupt = true;
  open_and_read(tolerant);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  por::fuzz::write_scratch(stack_base(), data, size);
  open_both_ways();

  if (size >= kManifestBytes) {
    std::vector<std::uint8_t> sealed(data, data + size);
    const std::uint32_t crc =
        por::resilience::crc32(sealed.data() + 8, kCrcAt - 8);
    std::memcpy(sealed.data() + kCrcAt, &crc, 4);
    por::fuzz::write_scratch(stack_base(), sealed.data(), sealed.size());
    open_both_ways();
  }
  return 0;
}

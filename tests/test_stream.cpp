// por::stream suite (DESIGN.md §14): shard round trips (mmap ==
// read(), one shard == many shards == memory), the corrupt-shard
// torture corpus (truncated / torn / bit-flipped bytes, set reserved
// fields and hostile manifests with valid CRCs are detected and either
// throw kCorrupt or quarantine under the resilience taxonomy of
// DESIGN.md §10), cursor prefetch determinism at several depths,
// and end-to-end bitwise identity of the streamed refinement drivers
// against their in-core equivalents — including resume-from-
// checkpoint over shards.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "por/core/parallel_refiner.hpp"
#include "por/core/refiner.hpp"
#include "por/core/view_record.hpp"
#include "por/io/map_io.hpp"
#include "por/io/orientation_io.hpp"
#include "por/journal/journal.hpp"
#include "por/resilience/crc32.hpp"
#include "por/resilience/error.hpp"
#include "por/stream/shard_mapping.hpp"
#include "por/stream/sharded_stack.hpp"
#include "por/stream/view_cursor.hpp"
#include "por/stream/view_source.hpp"
#include "por/util/rng.hpp"
#include "por/vmpi/runtime.hpp"
#include "test_helpers.hpp"

namespace {

using namespace por;
using namespace por::core;
using namespace por::em;
using namespace por::stream;
namespace fs = std::filesystem;
using por::test::small_phantom;

fs::path test_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("por_stream_" + std::to_string(::getpid())) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spew(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<Image<double>> random_views(std::size_t count, std::size_t l,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Image<double>> views;
  views.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Image<double> view(l, l);
    for (auto& p : view.storage()) p = rng.uniform(-1.0, 1.0);
    views.push_back(std::move(view));
  }
  return views;
}

bool images_bitwise_equal(const Image<double>& a, const Image<double>& b) {
  return a.ny() == b.ny() && a.nx() == b.nx() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---- ShardMapping ----------------------------------------------------------

TEST(ShardMapping, MmapAndReadPathsAreBitwiseIdentical) {
  const fs::path dir = test_dir("mapping");
  util::Rng rng(3);
  std::string payload(10000, '\0');
  for (auto& c : payload) c = static_cast<char>(rng.uniform(0, 256));
  spew(dir / "blob.bin", payload);

  ShardMapping via_mmap((dir / "blob.bin").string(), /*prefer_mmap=*/true);
  ShardMapping via_read((dir / "blob.bin").string(), /*prefer_mmap=*/false);
  ASSERT_EQ(via_mmap.size(), payload.size());
  ASSERT_EQ(via_read.size(), payload.size());
  EXPECT_FALSE(via_read.mapped());
  EXPECT_EQ(std::memcmp(via_mmap.data(), payload.data(), payload.size()), 0);
  EXPECT_EQ(std::memcmp(via_read.data(), payload.data(), payload.size()), 0);
  // Advisory calls never fail, whatever the backing.
  via_mmap.will_need(0, payload.size());
  via_mmap.dont_need(0, payload.size());
  via_read.will_need(4096, 100);
}

TEST(ShardMapping, MissingFileIsTransientEmptyFileIsCorrupt) {
  const fs::path dir = test_dir("mapping_err");
  try {
    ShardMapping missing((dir / "absent.bin").string());
    FAIL() << "expected transient error";
  } catch (const resilience::Error& error) {
    EXPECT_EQ(error.kind(), resilience::ErrorKind::kTransient);
  }
  spew(dir / "empty.bin", "");
  try {
    ShardMapping empty((dir / "empty.bin").string());
    FAIL() << "expected corrupt error";
  } catch (const resilience::Error& error) {
    EXPECT_EQ(error.kind(), resilience::ErrorKind::kCorrupt);
  }
}

// ---- sharded stack round trips ---------------------------------------------

class ShardRoundTrip : public ::testing::TestWithParam<bool> {};

TEST_P(ShardRoundTrip, BitwiseEqualToSourceViews) {
  const bool use_mmap = GetParam();
  const fs::path dir =
      test_dir(std::string("roundtrip_") + (use_mmap ? "m" : "h"));
  const auto views = random_views(23, 12, 17);

  ShardedStackOptions options;
  options.views_per_shard = 5;
  options.use_mmap = use_mmap;
  const std::string base = (dir / "views.shards").string();
  write_sharded_stack(base, views, options);

  ShardedStack stack(base, options);
  ASSERT_EQ(stack.count(), views.size());
  ASSERT_EQ(stack.ny(), 12u);
  ASSERT_EQ(stack.nx(), 12u);
  EXPECT_EQ(stack.shard_count(), 5u);  // ceil(23 / 5)

  std::vector<double> pixels(stack.view_pixels());
  for (std::uint64_t i = 0; i < stack.count(); ++i) {
    ASSERT_TRUE(stack.read_view(i, pixels.data()));
    EXPECT_EQ(std::memcmp(pixels.data(), views[i].data(),
                          pixels.size() * sizeof(double)),
              0)
        << "view " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ShardRoundTrip, ::testing::Bool(),
                         [](const auto& param_info) {
                           return std::string(param_info.param ? "Mmap"
                                                               : "Heap");
                         });

TEST(ShardedStack, WriterRejectsMixedViewSizes) {
  const fs::path dir = test_dir("mixed_sizes");
  const std::string base = (dir / "v").string();
  ShardedStackWriter writer(base, 8, 8);
  writer.append(random_views(1, 8, 31).front());
  try {
    writer.append(Image<double>(8, 9));
    FAIL() << "expected fatal error";
  } catch (const resilience::Error& error) {
    EXPECT_EQ(error.kind(), resilience::ErrorKind::kFatal);
  }
  EXPECT_THROW(write_sharded_stack(base, {Image<double>(4, 4),
                                          Image<double>(5, 4)}),
               resilience::Error);
}

TEST(ShardedStack, ResidencyBudgetEvictsButStaysCorrect) {
  const fs::path dir = test_dir("budget");
  const std::size_t l = 16;
  const auto views = random_views(32, l, 41);
  ShardedStackOptions options;
  options.views_per_shard = 4;  // 8 shards of 4 * 16 * 16 * 8 = 8 KiB pixels
  const std::string base = (dir / "views.shards").string();
  write_sharded_stack(base, views, options);

  // Budget of ~2 shards; strided access pattern forces constant
  // eviction and re-mapping.
  options.max_resident_bytes = 2 * fs::file_size(shard_path(base, 0));
  ShardedStack stack(base, options);
  std::vector<double> pixels(stack.view_pixels());
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t i = 0; i < stack.count(); i += 7) {
      ASSERT_TRUE(stack.read_view(i, pixels.data()));
      EXPECT_EQ(std::memcmp(pixels.data(), views[i].data(),
                            pixels.size() * sizeof(double)),
                0);
      EXPECT_LE(stack.resident_bytes(), options.max_resident_bytes);
    }
  }
  EXPECT_LE(stack.resident_shards(), 2u);
}

TEST(ShardedStack, ReadRangeAndSubsetAndBounds) {
  const fs::path dir = test_dir("ranges");
  const auto views = random_views(13, 8, 53);
  const std::string base = (dir / "v").string();
  write_sharded_stack(base, views, {});
  ShardedStack stack(base);

  const auto middle = stack.read_range(4, 6);
  ASSERT_EQ(middle.size(), 6u);
  for (std::size_t i = 0; i < middle.size(); ++i) {
    EXPECT_TRUE(images_bitwise_equal(middle[i], views[4 + i]));
  }
  const auto subset = stack.read_views({12, 0, 7});
  ASSERT_EQ(subset.size(), 3u);
  EXPECT_TRUE(images_bitwise_equal(subset[0], views[12]));
  EXPECT_TRUE(images_bitwise_equal(subset[1], views[0]));
  EXPECT_TRUE(images_bitwise_equal(subset[2], views[7]));

  std::vector<double> scratch(stack.view_pixels());
  EXPECT_THROW((void)stack.read_view(13, scratch.data()), std::out_of_range);
  EXPECT_THROW((void)stack.read_range(10, 4), std::out_of_range);
}

// ---- corruption torture ----------------------------------------------------

struct TortureStack {
  fs::path dir;
  std::vector<Image<double>> views;
  std::string base;

  explicit TortureStack(const std::string& name)
      : dir(test_dir(name)), views(random_views(12, 8, 67)) {
    ShardedStackOptions options;
    options.views_per_shard = 4;
    base = (dir / "v").string();
    write_sharded_stack(base, views, options);
  }
};

void flip_byte(const fs::path& path, std::size_t offset_from_end) {
  std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), offset_from_end);
  bytes[bytes.size() - 1 - offset_from_end] ^= 0x40;
  spew(path, bytes);
}

TEST(ShardTorture, BitFlippedPayloadThrowsCorruptByDefault) {
  TortureStack t("flip_throw");
  // Last byte of shard 1's file is inside view 7's payload.
  flip_byte(shard_path(t.base, 1), 0);
  ShardedStack stack(t.base);
  std::vector<double> pixels(stack.view_pixels());
  ASSERT_TRUE(stack.read_view(0, pixels.data()));  // shard 0 untouched
  try {
    (void)stack.read_view(7, pixels.data());
    FAIL() << "expected corrupt error";
  } catch (const resilience::Error& error) {
    EXPECT_EQ(error.kind(), resilience::ErrorKind::kCorrupt);
  }
}

TEST(ShardTorture, BitFlippedPayloadQuarantinesJustThatView) {
  TortureStack t("flip_quarantine");
  flip_byte(shard_path(t.base, 1), 0);
  ShardedStackOptions options;
  options.quarantine_corrupt = true;
  ShardedStack stack(t.base, options);
  std::vector<double> pixels(stack.view_pixels());

  // The flipped view NaN-fills and reports failure...
  EXPECT_FALSE(stack.read_view(7, pixels.data()));
  for (const double p : pixels) EXPECT_TRUE(std::isnan(p));
  EXPECT_EQ(stack.quarantined_views(), 1u);
  // ...its shard-mates and every other shard still read bitwise clean.
  for (const std::uint64_t i : {0ull, 4ull, 5ull, 6ull, 11ull}) {
    ASSERT_TRUE(stack.read_view(i, pixels.data())) << "view " << i;
    EXPECT_EQ(std::memcmp(pixels.data(), t.views[i].data(),
                          pixels.size() * sizeof(double)),
              0);
  }
  EXPECT_EQ(stack.quarantined_shards(), 0u);
}

TEST(ShardTorture, TruncatedShardQuarantinesTheWholeShard) {
  TortureStack t("truncated");
  const fs::path victim = shard_path(t.base, 2);
  std::string bytes = slurp(victim);
  spew(victim, bytes.substr(0, bytes.size() / 2));

  ShardedStackOptions options;
  options.quarantine_corrupt = true;
  ShardedStack stack(t.base, options);
  std::vector<double> pixels(stack.view_pixels());
  for (std::uint64_t i = 8; i < 12; ++i) {
    EXPECT_FALSE(stack.read_view(i, pixels.data())) << "view " << i;
    for (const double p : pixels) EXPECT_TRUE(std::isnan(p));
  }
  EXPECT_EQ(stack.quarantined_shards(), 1u);
  EXPECT_EQ(stack.quarantined_views(), 4u);
  // Healthy shards unaffected.
  ASSERT_TRUE(stack.read_view(0, pixels.data()));
  EXPECT_EQ(std::memcmp(pixels.data(), t.views[0].data(),
                        pixels.size() * sizeof(double)),
            0);
}

TEST(ShardTorture, TornShardHeaderThrowsWithoutQuarantine) {
  TortureStack t("torn_header");
  // Flip a byte inside the shard header's index region.
  std::string bytes = slurp(shard_path(t.base, 0));
  bytes[60] ^= 0x01;  // within index[0], covered by the header CRC
  spew(shard_path(t.base, 0), bytes);

  ShardedStack stack(t.base);
  std::vector<double> pixels(stack.view_pixels());
  try {
    (void)stack.read_view(0, pixels.data());
    FAIL() << "expected corrupt error";
  } catch (const resilience::Error& error) {
    EXPECT_EQ(error.kind(), resilience::ErrorKind::kCorrupt);
  }
}

TEST(ShardTorture, MissingShardFileQuarantinesOrThrowsTransient) {
  TortureStack t("missing_shard");
  fs::remove(shard_path(t.base, 1));

  // Default: the open failure propagates as transient (an NFS flap
  // and a deleted file are indistinguishable at open time).
  ShardedStack strict(t.base);
  std::vector<double> pixels(strict.view_pixels());
  try {
    (void)strict.read_view(5, pixels.data());
    FAIL() << "expected transient error";
  } catch (const resilience::Error& error) {
    EXPECT_EQ(error.kind(), resilience::ErrorKind::kTransient);
  }

  // Quarantine mode: the run survives minus that shard.
  ShardedStackOptions options;
  options.quarantine_corrupt = true;
  ShardedStack forgiving(t.base, options);
  EXPECT_FALSE(forgiving.read_view(5, pixels.data()));
  EXPECT_EQ(forgiving.quarantined_shards(), 1u);
}

TEST(ShardTorture, CorruptManifestNeverOpens) {
  TortureStack t("bad_manifest");
  std::string bytes = slurp(t.base);
  bytes[12] ^= 0x10;  // inside the CRC-covered field block
  spew(t.base, bytes);
  try {
    ShardedStack stack(t.base);
    FAIL() << "expected corrupt error";
  } catch (const resilience::Error& error) {
    EXPECT_EQ(error.kind(), resilience::ErrorKind::kCorrupt);
  }
}

void expect_corrupt(const std::function<void()>& action) {
  try {
    action();
    FAIL() << "expected corrupt error";
  } catch (const resilience::Error& error) {
    EXPECT_EQ(error.kind(), resilience::ErrorKind::kCorrupt);
  }
}

void put_field(std::string& bytes, std::size_t offset, std::uint64_t value,
               std::size_t width) {
  std::memcpy(bytes.data() + offset, &value, width);
}

/// Edit a file's CRC-covered bytes [8, crc_at) and re-seal the CRC at
/// `crc_at`, so the edit reaches the plausibility checks behind it.
void edit_and_reseal(const std::string& path, std::size_t crc_at,
                     const std::function<void(std::string&)>& edit) {
  std::string bytes = slurp(path);
  edit(bytes);
  put_field(bytes, crc_at, resilience::crc32(bytes.data() + 8, crc_at - 8),
            4);
  spew(path, bytes);
}

constexpr std::size_t kManifestCrcAt = 56;
constexpr std::size_t kShardCrcAt = 48 + 4 * 24;  // 4 views per shard

TEST(ShardTorture, WrappingManifestCountIsCorrupt) {
  // count = 2^64 - 1 with 2 views per shard claims 2^63 shards; a
  // shard count computed as (count + vps - 1) / vps wraps to 0 and
  // would agree with shard_count = 0, leaving read_view(0) to index an
  // empty shard table.
  TortureStack t("wrapping_manifest");
  edit_and_reseal(t.base, kManifestCrcAt, [](std::string& m) {
    put_field(m, 8, ~std::uint64_t{0}, 8);  // count
    put_field(m, 32, 2, 8);                 // views_per_shard
    put_field(m, 40, 0, 8);                 // shard_count
  });
  expect_corrupt([&] { ShardedStack stack(t.base); });
}

TEST(ShardTorture, ResealedManifestsWithBadFieldsAreCorrupt) {
  TortureStack t("bad_manifest_fields");
  const std::string pristine = slurp(t.base);
  const auto rejects = [&](const std::function<void(std::string&)>& edit) {
    spew(t.base, pristine);
    edit_and_reseal(t.base, kManifestCrcAt, edit);
    expect_corrupt([&] { ShardedStack stack(t.base); });
  };
  rejects([](std::string& m) { put_field(m, 40, 4, 8); });   // 12 / 4 != 4
  rejects([](std::string& m) { put_field(m, 32, 0, 8); });   // no views/shard
  rejects([](std::string& m) { put_field(m, 16, 0, 8); });   // ny = 0
  rejects([](std::string& m) { m[48] = 1; });                 // reserved
  rejects([](std::string& m) {  // consistent, but 2^32 shard files
    put_field(m, 8, std::uint64_t{1} << 32, 8);
    put_field(m, 32, 1, 8);
    put_field(m, 40, std::uint64_t{1} << 32, 8);
  });
}

TEST(ShardTorture, ResealedShardsWithBadFieldsAreCorrupt) {
  TortureStack t("bad_shard_fields");
  const std::string shard = shard_path(t.base, 0);
  const std::string pristine = slurp(shard);
  const std::size_t view_bytes = 8 * 8 * sizeof(double);
  const auto rejects = [&](const std::function<void(std::string&)>& edit) {
    spew(shard, pristine);
    edit_and_reseal(shard, kShardCrcAt, edit);
    ShardedStack strict(t.base);
    std::vector<double> pixels(strict.view_pixels());
    expect_corrupt([&] { (void)strict.read_view(0, pixels.data()); });
    // Quarantine degrades the whole shard; its neighbours stay clean.
    ShardedStackOptions options;
    options.quarantine_corrupt = true;
    ShardedStack forgiving(t.base, options);
    EXPECT_FALSE(forgiving.read_view(0, pixels.data()));
    EXPECT_EQ(forgiving.quarantined_shards(), 1u);
    ASSERT_TRUE(forgiving.read_view(4, pixels.data()));
  };
  rejects([](std::string& h) { h[40] = 1; });  // shard reserved byte
  rejects([](std::string& h) { put_field(h, 48 + 20, 1, 4); });  // index word
  rejects([&](std::string& h) {  // stored size below ny*nx*8
    put_field(h, 48 + 8, view_bytes - 8, 8);
  });
  rejects([&](std::string& h) {  // payload offset past the file end
    put_field(h, 48, std::uint64_t{1} << 62, 8);
  });
}

TEST(ShardedStack, WriterBytesArePinned) {
  // The on-disk bytes of a fixed stack, pinned by CRC-32: any change to
  // what the writer emits (layout, reserved bytes, alignment) breaks
  // every stack already on disk and must show up here.
  const fs::path dir = test_dir("pinned");
  std::vector<Image<double>> views;
  for (int v = 0; v < 5; ++v) {
    Image<double> view(3, 2);
    for (std::size_t i = 0; i < view.size(); ++i) {
      view.data()[i] = 0.25 * v - 1.5 * static_cast<double>(i);
    }
    views.push_back(view);
  }
  ShardedStackOptions options;
  options.views_per_shard = 2;
  const std::string base = (dir / "g").string();
  write_sharded_stack(base, views, options);
  const auto crc_of = [](const std::string& path) {
    const std::string bytes = slurp(path);
    return resilience::crc32(bytes.data(), bytes.size());
  };
  EXPECT_EQ(fs::file_size(base), 60u);
  EXPECT_EQ(crc_of(base), 0xf4222ef4u);
  EXPECT_EQ(crc_of(shard_path(base, 0)), 0x8fda237eu);
  EXPECT_EQ(crc_of(shard_path(base, 1)), 0x57c25e74u);
  EXPECT_EQ(crc_of(shard_path(base, 2)), 0xda071d75u);
}

TEST(ShardTorture, AbandonedWriterLeavesNoManifest) {
  const fs::path dir = test_dir("abandoned");
  const auto views = random_views(6, 8, 71);
  const std::string base = (dir / "v").string();
  {
    ShardedStackWriter writer(base, 8, 8);
    for (const auto& view : views) writer.append(view);
    // No finish(): simulates a crash mid-conversion.
  }
  EXPECT_FALSE(fs::exists(base));  // no manifest => readers never trust it
}

// ---- view sources ----------------------------------------------------------

TEST(ViewSource, AllBackingsProduceIdenticalPixels) {
  const fs::path dir = test_dir("sources");
  const auto views = random_views(9, 10, 79);
  const std::string one_base = (dir / "one").string();
  const std::string many_base = (dir / "many").string();
  write_sharded_stack(one_base, views);  // 64 views per shard: one shard
  ShardedStackOptions options;
  options.views_per_shard = 4;
  write_sharded_stack(many_base, views, options);
  EXPECT_EQ(ShardedStack(one_base).shard_count(), 1u);
  EXPECT_EQ(ShardedStack(many_base).shard_count(), 3u);

  MemoryViewSource memory(views);
  const auto one = open_view_source(one_base);
  const auto many = open_view_source(many_base);
  ASSERT_EQ(one->count(), views.size());
  ASSERT_EQ(many->count(), views.size());

  std::vector<double> a(memory.view_pixels()), b(a.size()), c(a.size());
  for (std::uint64_t i = 0; i < memory.count(); ++i) {
    memory.fetch(i, a.data());
    one->fetch(i, b.data());
    many->fetch(i, c.data());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(a.data(), c.data(), a.size() * sizeof(double)), 0);
  }
}

// ---- cursor ----------------------------------------------------------------

class CursorDepths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CursorDepths, StreamsEveryViewInOrderBitwise) {
  const std::size_t depth = GetParam();
  const auto views = random_views(29, 8, 83);
  MemoryViewSource source(views);

  PrefetchOptions options;
  options.depth = depth;
  options.batch_views = 5;
  ViewCursor cursor(source, 3, 24, options);
  for (std::uint64_t i = 3; i < 27; ++i) {
    const double* pixels = cursor.next();
    ASSERT_NE(pixels, nullptr) << "view " << i;
    EXPECT_EQ(cursor.current_index(), i);
    EXPECT_EQ(std::memcmp(pixels, views[i].data(),
                          source.view_pixels() * sizeof(double)),
              0)
        << "view " << i;
  }
  EXPECT_EQ(cursor.next(), nullptr);
  EXPECT_EQ(cursor.next(), nullptr);  // exhausted stays exhausted
  // Every non-cold chunk was either a hit or a stall: ceil(24/5) = 5
  // chunks, chunk 0 is the cold start.
  EXPECT_EQ(cursor.stats().hits + cursor.stats().stalls, 4u);
}

INSTANTIATE_TEST_SUITE_P(Depths, CursorDepths,
                         ::testing::Values(1, 2, 4, 16),
                         [](const auto& param_info) {
                           return "depth" + std::to_string(param_info.param);
                         });

TEST(ViewCursor, ShardedSourceStaysOrdered) {
  const fs::path dir = test_dir("cursor_sharded");
  const auto views = random_views(21, 8, 89);
  const std::string base = (dir / "v").string();
  ShardedStackOptions stack_options;
  stack_options.views_per_shard = 4;
  write_sharded_stack(base, views, stack_options);
  ShardedViewSource source(base, stack_options);

  PrefetchOptions options;
  options.depth = 3;
  options.batch_views = 4;
  ViewCursor cursor(source, 0, views.size(), options);
  for (std::uint64_t i = 0; i < views.size(); ++i) {
    const double* pixels = cursor.next();
    ASSERT_NE(pixels, nullptr);
    EXPECT_EQ(std::memcmp(pixels, views[i].data(),
                          source.view_pixels() * sizeof(double)),
              0)
        << "view " << i;
  }
  EXPECT_EQ(cursor.next(), nullptr);
}

TEST(ViewCursor, FillErrorSurfacesOnTheConsumerThread) {
  TortureStack t("cursor_error");
  flip_byte(shard_path(t.base, 1), 0);  // view 7's payload
  ShardedViewSource source(t.base);
  PrefetchOptions options;
  options.batch_views = 4;
  ViewCursor cursor(source, 0, 12, options);
  for (int i = 0; i < 4; ++i) EXPECT_NE(cursor.next(), nullptr);
  EXPECT_THROW(
      {
        for (int i = 0; i < 8; ++i) (void)cursor.next();
      },
      resilience::Error);
}

// ---- streamed refinement == in-core refinement -----------------------------

RefinerConfig fast_config() {
  RefinerConfig config;
  config.schedule = {SearchLevel{1.0, 3, 1.0, 3},
                     SearchLevel{0.25, 5, 0.25, 3}};
  config.match.r_map = 8.0;
  config.refine_centers = false;
  return config;
}

struct Workload {
  std::size_t l = 16;
  BlobModel model = small_phantom(16, 10);
  Volume<double> map;
  std::vector<Image<double>> views;
  std::vector<Orientation> initials;
  std::vector<std::pair<double, double>> centers;

  explicit Workload(int m = 10) : map(model.rasterize(16)) {
    util::Rng rng(41);
    for (int i = 0; i < m; ++i) {
      const Orientation truth = por::test::random_orientation(rng);
      views.push_back(model.project_analytic(l, truth));
      initials.push_back({truth.theta + rng.uniform(-1, 1),
                          truth.phi + rng.uniform(-1, 1),
                          truth.omega + rng.uniform(-1, 1)});
      centers.emplace_back(0.0, 0.0);
    }
  }
};

void expect_identical_results(const std::vector<ViewResult>& a,
                              const std::vector<ViewResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].orientation, b[i].orientation) << "view " << i;
    EXPECT_EQ(a[i].center_x, b[i].center_x) << "view " << i;
    EXPECT_EQ(a[i].center_y, b[i].center_y) << "view " << i;
    EXPECT_EQ(a[i].final_distance, b[i].final_distance) << "view " << i;
  }
}

TEST(RefineStream, BitwiseIdenticalToInCoreRefine) {
  const Workload w(6);
  RefinerConfig config = fast_config();
  config.stream.batch_views = 2;
  const OrientationRefiner refiner(w.map, config);
  const auto in_core = refiner.refine(w.views, w.initials, w.centers);

  const fs::path dir = test_dir("refine_stream");
  const std::string base = (dir / "v").string();
  ShardedStackOptions stack_options;
  stack_options.views_per_shard = 2;
  write_sharded_stack(base, w.views, stack_options);
  ShardedViewSource source(base, stack_options);
  const auto streamed =
      refiner.refine_stream(source, 0, w.views.size(), w.initials, w.centers);
  expect_identical_results(in_core, streamed);
}

class StreamedDrivers : public ::testing::TestWithParam<int> {};

TEST_P(StreamedDrivers, ShardedMonolithicAndInMemoryAgreeBitwise) {
  const int p = GetParam();
  const fs::path dir = test_dir("drivers_p" + std::to_string(p));
  const Workload w(8);
  RefinerConfig config = fast_config();
  config.stream.batch_views = 3;
  config.stream.max_resident_mb = 1;

  // The "monolithic" side is a one-shard stack (the default 64 views
  // per shard hold all 8), the sharded side 3 views per shard.
  const std::string map_path = (dir / "map.porm").string();
  const std::string stack_path = (dir / "v.one").string();
  const std::string base = (dir / "v.shards").string();
  const std::string orient_in = (dir / "in.txt").string();
  io::write_map(map_path, w.map);
  write_sharded_stack(stack_path, w.views);
  ShardedStackOptions stack_options;
  stack_options.views_per_shard = 3;
  write_sharded_stack(base, w.views, stack_options);
  std::vector<io::ViewOrientation> records;
  for (std::size_t i = 0; i < w.views.size(); ++i) {
    records.push_back(io::ViewOrientation{i, w.initials[i], 0.0, 0.0});
  }
  io::write_orientations(orient_in, records, "initial");

  // The orientation text file keeps 10 digits, so feed the in-memory
  // run the same post-round-trip initials the file drivers will read —
  // the bitwise comparison is then about the shard layouts only.
  std::vector<Orientation> initials;
  std::vector<std::pair<double, double>> centers;
  for (const auto& record : io::read_orientations(orient_in)) {
    initials.push_back(record.orientation);
    centers.emplace_back(record.center_x, record.center_y);
  }

  std::vector<ViewResult> in_memory;
  vmpi::run(p, [&](vmpi::Comm& comm) {
    auto report = parallel_refine(comm, w.map, w.l, w.views, initials,
                                  centers, config);
    if (comm.is_root()) in_memory = report.results;
  });

  const std::string out_mono = (dir / "out_mono.txt").string();
  std::vector<ViewResult> monolithic;
  vmpi::run(p, [&](vmpi::Comm& comm) {
    auto report = parallel_refine_files(comm, map_path, stack_path, orient_in,
                                        out_mono, config);
    if (comm.is_root()) monolithic = report.results;
  });

  const std::string out_shard = (dir / "out_shard.txt").string();
  std::vector<ViewResult> sharded;
  vmpi::run(p, [&](vmpi::Comm& comm) {
    auto report = parallel_refine_files(comm, map_path, base, orient_in,
                                        out_shard, config);
    if (comm.is_root()) sharded = report.results;
  });

  expect_identical_results(in_memory, monolithic);
  expect_identical_results(in_memory, sharded);
  // The written orientation files are the acceptance artifact: byte
  // identical across shard layouts.
  EXPECT_EQ(slurp(out_mono), slurp(out_shard));
}

INSTANTIATE_TEST_SUITE_P(Ranks, StreamedDrivers, ::testing::Values(1, 4));

TEST(StreamedDrivers, ResumeFromCheckpointOverShardsIsIdentical) {
  const fs::path dir = test_dir("shard_resume");
  const Workload w(8);
  RefinerConfig config = fast_config();
  config.stream.batch_views = 3;

  const std::string map_path = (dir / "map.porm").string();
  const std::string base = (dir / "v.shards").string();
  const std::string orient_in = (dir / "in.txt").string();
  io::write_map(map_path, w.map);
  ShardedStackOptions stack_options;
  stack_options.views_per_shard = 3;
  write_sharded_stack(base, w.views, stack_options);
  std::vector<io::ViewOrientation> records;
  for (std::size_t i = 0; i < w.views.size(); ++i) {
    records.push_back(io::ViewOrientation{i, w.initials[i], 0.0, 0.0});
  }
  io::write_orientations(orient_in, records, "initial");

  // Full run over shards, checkpointing as it goes.
  config.resilience.checkpoint_path = (dir / "full").string();
  const std::string out_full = (dir / "out_full.txt").string();
  std::vector<ViewResult> full;
  vmpi::run(2, [&](vmpi::Comm& comm) {
    auto report = parallel_refine_files(comm, map_path, base, orient_in,
                                        out_full, config);
    if (comm.is_root()) full = report.results;
  });
  const auto all_records =
      journal::Journal::replay_dir(config.resilience.checkpoint_path).records;
  ASSERT_EQ(all_records.size(), w.views.size());

  // Interrupt simulation: keep only the first half, resume over the
  // same shards.
  const std::string partial = (dir / "partial").string();
  {
    journal::Journal checkpoint(partial);
    for (std::size_t i = 0; i < all_records.size() / 2; ++i) {
      checkpoint.append(kViewRecordType, all_records[i].payload,
                        /*durable=*/false);
    }
  }
  config.resilience.checkpoint_path = partial;
  config.resilience.resume = true;
  const std::string out_resumed = (dir / "out_resumed.txt").string();
  std::vector<ViewResult> resumed;
  std::uint64_t restored = 0;
  vmpi::run(2, [&](vmpi::Comm& comm) {
    auto report = parallel_refine_files(comm, map_path, base, orient_in,
                                        out_resumed, config);
    if (comm.is_root()) {
      resumed = report.results;
      restored = report.restored_views;
    }
  });
  EXPECT_EQ(restored, all_records.size() / 2);
  expect_identical_results(full, resumed);
  EXPECT_EQ(slurp(out_full), slurp(out_resumed));
}

}  // namespace

// Seed-corpus generator: writes one known-good artifact per fuzz
// target into the given directory (default tests/fuzz/corpus), using
// the project's own writers so the seeds track the formats by
// construction.  Usage: fuzz_make_corpus [corpus-root]
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "por/em/grid.hpp"
#include "por/io/map_io.hpp"
#include "por/io/stack_io.hpp"
#include "por/core/view_record.hpp"
#include "por/journal/journal.hpp"
#include "por/serve/job_record.hpp"
#include "por/stream/sharded_stack.hpp"
#include "por/stream/slz4.hpp"

namespace fs = std::filesystem;

namespace {

std::vector<por::em::Image<double>> sample_views() {
  std::vector<por::em::Image<double>> views;
  for (std::size_t v = 0; v < 3; ++v) {
    por::em::Image<double> view(6, 5, 0.0);
    for (std::size_t i = 0; i < view.size(); ++i) {
      view.data()[i] = static_cast<double>(v) * 0.5 + static_cast<double>(i);
    }
    views.push_back(std::move(view));
  }
  return views;
}

void copy_into(const fs::path& src, const fs::path& dst) {
  fs::create_directories(dst.parent_path());
  fs::copy_file(src, dst, fs::copy_options::overwrite_existing);
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path root = argc > 1 ? fs::path(argv[1]) : fs::path("corpus");
  const fs::path scratch =
      fs::temp_directory_path() / ("por_fuzz_corpus_" + std::to_string(::getpid()));
  fs::create_directories(scratch);

  // fuzz_pors: a 3-view stack.
  por::io::write_stack((scratch / "seed.pors").string(), sample_views());
  copy_into(scratch / "seed.pors", root / "fuzz_pors" / "seed.pors");

  // fuzz_porm: a small volume.
  por::em::Volume<double> volume(4, 3, 3, 0.0);
  for (std::size_t i = 0; i < volume.size(); ++i) {
    volume.data()[i] = static_cast<double>(i) * 0.25;
  }
  por::io::write_map((scratch / "seed.porm").string(), volume);
  copy_into(scratch / "seed.porm", root / "fuzz_porm" / "seed.porm");

  // fuzz_porh: shard 0 of a compressed sharded stack (the harness
  // supplies its own manifest; the seed is the shard bytes).
  {
    por::stream::ShardedStackOptions options;
    options.views_per_shard = 8;
    options.compress = true;
    const std::string base = (scratch / "stack").string();
    por::stream::write_sharded_stack(base, sample_views(), options);
    copy_into(por::stream::shard_path(base, 0),
              root / "fuzz_porh" / "seed.porh");
  }

  // fuzz_journal: a segment holding one submitted job, its view record
  // and its terminal record.
  {
    const fs::path dir = scratch / "journal";
    por::journal::Journal journal(dir.string());
    por::serve::SubmittedJob job;
    job.job = 1;
    job.tenant = "seed";
    job.model = "phantom";
    job.idempotency_key = "seed-key";
    job.views = {sample_views()[0]};
    job.initial = {por::em::Orientation{10.0, 20.0, 30.0}};
    journal.append(
        static_cast<std::uint32_t>(por::serve::JobRecordType::kSubmitted),
        por::serve::encode_submitted(job));
    por::core::ViewRecord view;
    view.job = 1;
    view.result.orientation = por::em::Orientation{10.5, 20.0, 30.0};
    view.result.center_x = 0.5;
    view.result.center_y = -0.5;
    view.result.final_distance = 0.125;
    view.result.matchings = 7;
    journal.append(
        static_cast<std::uint32_t>(por::serve::JobRecordType::kView),
        por::core::encode_view_record(view), /*durable=*/false);
    por::serve::LifecycleEvent done;
    done.job = 1;
    journal.append(
        static_cast<std::uint32_t>(por::serve::JobRecordType::kDone),
        por::serve::encode_lifecycle(done), /*durable=*/false);
    journal.sync();
    copy_into(dir / "wal-00000001.porj",
              root / "fuzz_journal" / "seed.porj");
  }

  // fuzz_slz4: one round-trip seed (mode byte 1) and one decode seed
  // (mode byte 0 + claimed size + a genuine compressed block).
  {
    std::string text;
    for (int i = 0; i < 16; ++i) text += "the quick brown fox ";
    std::vector<std::uint8_t> round_trip;
    round_trip.push_back(1);
    round_trip.insert(round_trip.end(), text.begin(), text.end());
    fs::create_directories(root / "fuzz_slz4");
    std::ofstream(root / "fuzz_slz4" / "seed_roundtrip.bin",
                  std::ios::binary)
        .write(reinterpret_cast<const char*>(round_trip.data()),
               static_cast<std::streamsize>(round_trip.size()));

    std::vector<std::uint8_t> packed(
        por::stream::slz4_max_compressed_size(text.size()));
    const std::size_t packed_bytes = por::stream::slz4_compress(
        text.data(), text.size(), packed.data(), packed.size());
    std::vector<std::uint8_t> decode;
    decode.push_back(0);
    decode.push_back(static_cast<std::uint8_t>(text.size() & 0xff));
    decode.push_back(static_cast<std::uint8_t>((text.size() >> 8) & 0xf));
    decode.insert(decode.end(), packed.begin(),
                  packed.begin() + static_cast<std::ptrdiff_t>(packed_bytes));
    std::ofstream(root / "fuzz_slz4" / "seed_decode.bin", std::ios::binary)
        .write(reinterpret_cast<const char*>(decode.data()),
               static_cast<std::streamsize>(decode.size()));
  }

  fs::remove_all(scratch);
  std::printf("corpus written under %s\n", root.string().c_str());
  return 0;
}

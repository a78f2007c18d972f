// Fuzz target: the journal segment parser (por/journal) and the
// record codecs layered on it (por/serve/job_record,
// por/core/view_record).
//
// The input plays the role of a final WAL segment left by a dead
// process: replay_dir must either read it (healing a torn tail) or
// throw typed kCorrupt — and every payload that replays is pushed
// through the decoder of its record type (SubmittedJob, ViewRecord,
// LifecycleEvent), which recovery trusts for allocation sizes.  Opening a Journal on the directory
// afterwards exercises the self-healing rewrite on the same bytes.
#include <exception>
#include <filesystem>
#include <string>

#include "fuzz_common.hpp"
#include "por/core/view_record.hpp"
#include "por/journal/journal.hpp"
#include "por/serve/job_record.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(por::fuzz::scratch_path("journal")).parent_path();
  const std::string segment = (dir / "wal-00000001.porj").string();
  por::fuzz::write_scratch(segment, data, size);

  try {
    const auto replay = por::journal::Journal::replay_dir(dir.string());
    for (const auto& record : replay.records) {
      try {
        switch (static_cast<por::serve::JobRecordType>(record.type)) {
          case por::serve::JobRecordType::kSubmitted:
            (void)por::serve::decode_submitted(record.payload);
            break;
          case por::serve::JobRecordType::kView:
            (void)por::core::decode_view_record(record.payload);
            break;
          default:
            (void)por::serve::decode_lifecycle(record.payload);
            break;
        }
      } catch (const std::exception&) {
      }
    }
  } catch (const std::exception&) {
    // Typed rejection is the expected outcome for malformed input.
  }

  try {
    // Opening for append heals whatever replay tolerated; the healed
    // directory must then be clean to reopen.
    { por::journal::Journal journal(dir.string()); }
    { por::journal::Journal journal(dir.string()); }
  } catch (const std::exception&) {
  }
  // Reset the directory for the next input (the heal may have
  // rewritten or rotated segments).
  for (const auto& entry : fs::directory_iterator(dir)) {
    fs::remove_all(entry.path());
  }
  return 0;
}

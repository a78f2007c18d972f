// Crash-injection chaos harness (DESIGN.md §15).
//
// The crash-only claim of por::serve is behavioural, not structural:
// you may SIGKILL the process at ANY instant and a restart must (a)
// still open the journal, (b) remember every job whose submission was
// acknowledged, (c) never execute an acknowledged job twice, and (d)
// finish with orientations bitwise-identical to an uninterrupted run.
// No unit test enumerates "any instant", so this harness samples it:
//
//   * the parent forks a child per attempt; the child installs a
//     SyncHook (the seam every durable write walks through) that
//     raise(SIGKILL)s the process at the Nth syscall-adjacent event,
//     with N drawn from a seeded PRNG — so the kill lands inside
//     journal appends (submissions, view records, lifecycle), fsyncs,
//     segment rotations, renames, recovery compactions, ...;
//   * the child runs a real serving session on the shared journal dir:
//     construct, recover(), submit the workload under fixed
//     idempotency keys, ACK each admission to the parent over a pipe,
//     wait, and report final orientations (bit-exact, as hex) and the
//     recovery.duplicate_views its replay counted — a (job, view) pair
//     journaled twice is the footprint of a double execution;
//   * after every child — killed or clean — the parent re-opens the
//     journal (must never be unreadable) and checks the ACK stream
//     (an idempotency key must map to the same job id forever);
//   * per iteration the final attempt runs with no kill scheduled, so
//     the sequence always converges; the parent then recovers the
//     journal in-process, compares every acknowledged job's
//     orientations bitwise against a reference refiner, and checks
//     that replay found no view recorded twice.
//
// Iteration count: POR_CHAOS_ITERS (default 25 for developer runs; the
// CI chaos job sets 200).  Everything is seeded — a failing iteration
// prints its seed and replays deterministically.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "por/core/refiner.hpp"
#include "por/journal/journal.hpp"
#include "por/obs/registry.hpp"
#include "por/resilience/sync_hooks.hpp"
#include "por/serve/service.hpp"
#include "test_helpers.hpp"

namespace fs = std::filesystem;

namespace {

using namespace por;
using namespace por::serve;
using por::test::make_views;
using por::test::small_phantom;

constexpr std::size_t kSide = 20;
constexpr std::size_t kJobs = 2;

core::RefinerConfig chaos_config() {
  core::RefinerConfig config;
  config.schedule = {core::SearchLevel{1.0, 3, 1.0, 3},
                     core::SearchLevel{0.5, 3, 0.5, 3}};
  config.match.r_map = 8.0;
  return config;
}

std::string key_for(std::size_t job) { return "chaos-job-" + std::to_string(job); }

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// One line per refined view, every double as raw bits so "identical"
/// means identical, not close.
std::string encode_result_line(const std::string& key, std::size_t view,
                               const core::ViewResult& result) {
  std::ostringstream out;
  out << "RESULT " << key << ' ' << view << ' ' << std::hex
      << bits_of(result.orientation.theta) << ' '
      << bits_of(result.orientation.phi) << ' '
      << bits_of(result.orientation.omega) << ' ' << bits_of(result.center_x)
      << ' ' << bits_of(result.center_y) << ' '
      << bits_of(result.final_distance);
  return out.str();
}

ServiceOptions chaos_options(const fs::path& dir) {
  ServiceOptions options;
  options.workers = 2;
  options.journal_dir = dir.string();
  return options;
}

/// Child body.  Never returns into gtest: _exit(0) on success, any
/// other path is either SIGKILL (injected) or _exit(3) on exception.
[[noreturn]] void run_child(const fs::path& dir,
                            const por::test::ViewSet& set, int kill_at,
                            int ack_fd) {
  auto events = std::make_shared<std::atomic<int>>(0);
  resilience::ScopedSyncHook hook(
      [events, kill_at](resilience::SyncOp, const std::string&) {
        if (kill_at > 0 && events->fetch_add(1) + 1 == kill_at) {
          ::kill(::getpid(), SIGKILL);
        }
      });
  FILE* ack = ::fdopen(ack_fd, "w");
  if (ack == nullptr) ::_exit(3);
  try {
    obs::MetricsRegistry registry;
    obs::RegistryScope scope(registry);
    const em::BlobModel model = small_phantom(kSide, 12);
    RefineService service(chaos_options(dir));
    service.register_model("phantom", model.rasterize(kSide),
                           chaos_config());
    service.recover();
    std::fprintf(ack, "DUPLICATES %llu\n",
                 static_cast<unsigned long long>(
                     registry.snapshot().counters.at(
                         "recovery.duplicate_views")));
    std::fflush(ack);

    std::vector<std::uint64_t> ids;
    for (std::size_t job = 0; job < kJobs; ++job) {
      JobRequest request;
      request.tenant = "chaos";
      request.model = "phantom";
      request.views = {set.views[job]};
      request.initial = {set.orientations[job]};
      request.idempotency_key = key_for(job);
      const SubmitResult submitted = service.submit(std::move(request));
      if (!submitted.accepted()) ::_exit(3);
      // The moment submit() returned the journal has the job; only now
      // may the "client" consider it acknowledged.
      std::fprintf(ack, "ACK %s %llu\n", key_for(job).c_str(),
                   static_cast<unsigned long long>(submitted.job));
      std::fflush(ack);
      ids.push_back(submitted.job);
    }
    for (std::size_t job = 0; job < kJobs; ++job) {
      const JobStatus status = service.wait(ids[job]);
      if (status.state != JobState::kDone) ::_exit(3);
      for (std::size_t view = 0; view < status.results.size(); ++view) {
        std::fprintf(ack, "%s\n",
                     encode_result_line(key_for(job), view,
                                        status.results[view]).c_str());
      }
    }
    std::fprintf(ack, "DONE\n");
    std::fflush(ack);
    service.shutdown();
  } catch (...) {
    ::_exit(3);
  }
  ::_exit(0);
}

struct ChildReport {
  bool clean = false;  ///< exited 0 with a DONE line
  std::map<std::string, std::uint64_t> acks;
  std::vector<std::string> result_lines;
  /// recovery.duplicate_views after the child's recover(); -1 when the
  /// child died before reporting it.
  long long duplicate_views = -1;
};

ChildReport run_attempt(const fs::path& dir, const por::test::ViewSet& set,
                        int kill_at) {
  int pipe_fds[2] = {-1, -1};
  EXPECT_EQ(::pipe(pipe_fds), 0);
  const pid_t pid = ::fork();
  EXPECT_GE(pid, 0) << "fork failed: " << std::strerror(errno);
  if (pid == 0) {
    ::close(pipe_fds[0]);
    run_child(dir, set, kill_at, pipe_fds[1]);  // never returns
  }
  ::close(pipe_fds[1]);

  ChildReport report;
  std::string stream;
  char buffer[4096];
  for (;;) {
    const ssize_t got = ::read(pipe_fds[0], buffer, sizeof buffer);
    if (got <= 0) break;
    stream.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(pipe_fds[0]);

  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  bool saw_done = false;
  std::istringstream lines(stream);
  std::string line;
  while (std::getline(lines, line)) {
    if (line == "DONE") {
      saw_done = true;
    } else if (line.rfind("ACK ", 0) == 0) {
      std::istringstream fields(line.substr(4));
      std::string key;
      std::uint64_t id = 0;
      fields >> key >> id;
      report.acks[key] = id;
    } else if (line.rfind("RESULT ", 0) == 0) {
      report.result_lines.push_back(line);
    } else if (line.rfind("DUPLICATES ", 0) == 0) {
      report.duplicate_views = std::stoll(line.substr(11));
    }
  }
  report.clean = WIFEXITED(status) && WEXITSTATUS(status) == 0 && saw_done;
  if (!report.clean) {
    // A chaos child may only die by the injected SIGKILL — any other
    // failure (an exception, an internal invariant trip) is a bug.
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child died oddly: exited=" << WIFEXITED(status)
        << " code=" << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
        << " signal=" << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  }
  return report;
}

int chaos_iterations() {
  if (const char* env = std::getenv("POR_CHAOS_ITERS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 25;
}

TEST(Chaos, KilledMidSyscallServiceRecoversAcknowledgedJobsBitwise) {
  const em::BlobModel model = small_phantom(kSide, 12);
  const auto set = make_views(model, kSide, kJobs, /*seed=*/91);

  // Ground truth: what an uninterrupted refinement produces.
  const core::OrientationRefiner reference(model.rasterize(kSide),
                                           chaos_config());
  std::map<std::string, std::string> expected;
  for (std::size_t job = 0; job < kJobs; ++job) {
    const core::ViewResult result =
        reference.refine_view(set.views[job], set.orientations[job]);
    expected[key_for(job)] = encode_result_line(key_for(job), 0, result);
  }

  const fs::path root = fs::temp_directory_path() /
                        ("por_chaos_" + std::to_string(::getpid()));
  fs::remove_all(root);

  const int iterations = chaos_iterations();
  constexpr int kMaxAttempts = 8;
  int total_kills = 0;
  for (int iteration = 0; iteration < iterations; ++iteration) {
    const std::uint32_t seed = 0x9e3779b9u + 977u * static_cast<std::uint32_t>(iteration);
    SCOPED_TRACE("iteration " + std::to_string(iteration) + " seed " +
                 std::to_string(seed));
    std::minstd_rand rng(seed);
    const fs::path dir = root / ("iter_" + std::to_string(iteration));
    fs::create_directories(dir);

    std::map<std::string, std::uint64_t> first_id;
    std::vector<std::string> final_results;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      // The last attempt is kill-free so every iteration converges.
      const int kill_at =
          attempt + 1 == kMaxAttempts
              ? 0
              : 1 + static_cast<int>(rng() % 48u);
      const ChildReport report = run_attempt(dir, set, kill_at);
      if (!report.clean) ++total_kills;

      // Invariant: the journal is readable after EVERY death.  (The
      // constructor heals torn tails; corruption throws.)
      ASSERT_NO_THROW({ journal::Journal probe(dir.string()); })
          << "journal unreadable after attempt " << attempt;

      // Invariant: no view ran twice — replay never finds a (job, view)
      // pair journaled twice.
      EXPECT_LE(report.duplicate_views, 0)
          << "attempt " << attempt << " replayed a view executed twice";

      // Invariant: an acknowledged key names one job, forever.  A
      // different id in a later incarnation would mean the ack was
      // lost and the job re-admitted as a new execution.
      for (const auto& [key, id] : report.acks) {
        const auto [it, inserted] = first_id.emplace(key, id);
        ASSERT_EQ(it->second, id)
            << key << " re-acknowledged under a different job id";
      }
      if (report.clean) {
        final_results = report.result_lines;
        break;
      }
    }
    ASSERT_FALSE(final_results.empty()) << "iteration never converged";
    ASSERT_EQ(first_id.size(), kJobs);

    // Invariant: the surviving incarnation's orientations are bitwise
    // what an uninterrupted run computes.
    ASSERT_EQ(final_results.size(), kJobs);
    for (const std::string& line : final_results) {
      std::istringstream fields(line);
      std::string tag, key;
      fields >> tag >> key;
      ASSERT_TRUE(expected.count(key)) << line;
      EXPECT_EQ(line, expected[key]) << "orientation drift for " << key;
    }

    // And one more recovery, in-process, to cross-check the journal
    // itself (not just the child's report): every acknowledged job is
    // terminal kDone, results bitwise identical, and the journal holds
    // each view exactly once (a duplicated record would be the
    // footprint of a double execution).
    {
      obs::MetricsRegistry registry;
      obs::RegistryScope scope(registry);
      RefineService verify(chaos_options(dir));
      verify.register_model("phantom", model.rasterize(kSide),
                            chaos_config());
      verify.recover();
      for (const auto& [key, id] : first_id) {
        const JobStatus status = verify.status(id);
        ASSERT_EQ(status.state, JobState::kDone)
            << key << ": " << status.error;
        ASSERT_EQ(status.results.size(), 1u);
        EXPECT_EQ(encode_result_line(key, 0, status.results[0]),
                  expected[key]);
      }
      EXPECT_EQ(registry.snapshot().counters.at("recovery.duplicate_views"),
                0u)
          << "a view was journaled twice (double execution)";
      verify.shutdown();
    }
    fs::remove_all(dir);  // keep the temp tree bounded across 200 iters
  }
  // The harness is only exercising the claim if children actually die.
  EXPECT_GT(total_kills, iterations / 2)
      << "kill injection barely fired; widen the kill_at range";
  fs::remove_all(root);
}

}  // namespace

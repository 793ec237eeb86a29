// Minimal assertion helpers for the qdv unit tests (no framework
// dependency; each test is a plain executable wired into ctest), the query
// reference every differential checks against, and a gate that holds the
// global thread pool.
#pragma once

#include <sys/resource.h>

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>

#include "core/custom_scan.hpp"
#include "core/plan.hpp"
#include "io/timestep_table.hpp"
#include "parallel/thread_pool.hpp"

namespace qdv::test {

inline int failures = 0;

#define CHECK(cond)                                                         \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", __FILE__,         \
                   __LINE__, #cond);                                        \
      ++qdv::test::failures;                                                \
    }                                                                       \
  } while (0)

#define CHECK_EQ(a, b)                                                      \
  do {                                                                      \
    const auto va = (a);                                                    \
    const auto vb = (b);                                                    \
    if (!(va == vb)) {                                                      \
      std::fprintf(stderr, "CHECK_EQ failed at %s:%d: %s != %s\n",          \
                   __FILE__, __LINE__, #a, #b);                             \
      ++qdv::test::failures;                                                \
    }                                                                       \
  } while (0)

#define CHECK_THROWS(expr)                                                  \
  do {                                                                      \
    bool thrown = false;                                                    \
    try {                                                                   \
      (void)(expr);                                                         \
    } catch (const std::exception&) {                                       \
      thrown = true;                                                        \
    }                                                                       \
    if (!thrown) {                                                          \
      std::fprintf(stderr, "CHECK_THROWS failed at %s:%d: %s\n", __FILE__,  \
                   __LINE__, #expr);                                        \
      ++qdv::test::failures;                                                \
    }                                                                       \
  } while (0)

/// Scratch directory for tests that touch disk (fresh per test binary).
inline std::filesystem::path scratch_dir(const std::string& name) {
  std::filesystem::path base;
  if (const char* env = std::getenv("QDV_TEST_TMPDIR")) {
    base = env;
  } else {
    base = std::filesystem::temp_directory_path() / "qdv_tests";
  }
  const std::filesystem::path dir = base / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Peak resident set size of this process so far, in KiB.
inline std::uint64_t peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

/// The reference answer for the raw AST @p q at @p table: core::CustomScan
/// tests each row against the raw columns one at a time, sharing no
/// kernel, plan or bitmap operator with the engine.
inline BitVector scan_oracle(const io::TimestepTable& table, const Query& q) {
  return core::CustomScan(table).select(q);
}

/// @p q planned and evaluated uncached at @p table under @p mode: the
/// engine's executor without its node cache.
inline BitVector run_plan(const io::TimestepTable& table, const QueryPtr& q,
                          EvalMode mode = EvalMode::kAuto) {
  return *core::plan_query(q).evaluate(table, mode);
}

/// Occupies every worker of the global pool until release(): while held,
/// nothing submitted to the pool can start, so queued service flights stay
/// queued — the deterministic window the coalescing, ordering and shedding
/// tests need.
class PoolGate {
 public:
  PoolGate() {
    const std::size_t n = par::ThreadPool::global().size();
    for (std::size_t i = 0; i < n; ++i)
      par::ThreadPool::global().submit([this] {
        std::unique_lock<std::mutex> lock(mutex_);
        ++held_;
        changed_.notify_all();
        changed_.wait(lock, [this] { return open_; });
        --held_;
        changed_.notify_all();
      });
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [&] { return held_ == n; });
  }

  void release() {
    std::unique_lock<std::mutex> lock(mutex_);
    open_ = true;
    changed_.notify_all();
    changed_.wait(lock, [this] { return held_ == 0; });
  }

  ~PoolGate() { release(); }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  std::size_t held_ = 0;
  bool open_ = false;
};

inline int finish(const char* name) {
  if (failures == 0) {
    std::printf("%s: all checks passed\n", name);
    return 0;
  }
  std::fprintf(stderr, "%s: %d check(s) FAILED\n", name, failures);
  return 1;
}

}  // namespace qdv::test

// Minimal assertion helpers for the qdv unit tests (no framework
// dependency; each test is a plain executable wired into ctest).
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

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

inline int finish(const char* name) {
  if (failures == 0) {
    std::printf("%s: all checks passed\n", name);
    return 0;
  }
  std::fprintf(stderr, "%s: %d check(s) FAILED\n", name, failures);
  return 1;
}

}  // namespace qdv::test

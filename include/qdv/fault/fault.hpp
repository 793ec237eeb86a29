// Deterministic fault injection (DESIGN.md §15): a seeded, schedule-driven
// injector the low-level I/O helpers (io::io_util file reads and svc
// sockets) consult on every operation. Faults — short reads, EINTR, ENOSPC,
// bit-flips, truncation, connection resets, latency spikes — fire with a
// configured per-site probability drawn from one seeded xorshift stream, so
// a failing chaos run replays exactly from its seed.
//
// Cost when disabled: one relaxed atomic load per I/O call (enabled()); no
// lock, no RNG, no branch beyond the check. The injector is compiled in
// unconditionally so production binaries and chaos runs are the same build.
//
// Configuration: programmatic (configure/reset below) or the QDV_FAULT
// environment variable, parsed once at process start:
//
//   QDV_FAULT=seed:42,spec:file.flip@0.01,spec:svc.eintr@0.2
//
// Sites: file (pread/mapped-file paths), svc (service socket lines).
// Kinds: short, eintr, enospc, flip, trunc, reset, delay. Rates are
// probabilities in [0, 1].
//
// Thread-safety: all functions are safe from any thread; roll()/draw()
// serialize on an internal mutex (only when enabled).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace qdv::fault {

/// Where an I/O operation happens — each spec targets one site.
enum class Site : unsigned {
  kFile = 0,  // file reads: pread loops, mapped-file heap fallback
  kSvc = 1,   // service socket line I/O
};

/// What goes wrong.
enum class Kind : unsigned {
  kShortRead = 0,  // return fewer bytes than asked (loop must continue)
  kEintr = 1,      // simulated EINTR before the syscall (loop must retry)
  kEnospc = 2,     // write fails with no-space
  kBitFlip = 3,    // flip one bit in freshly transferred bytes
  kTruncate = 4,   // premature EOF / connection half-close
  kConnReset = 5,  // connection reset (socket sites)
  kLatency = 6,    // injected delay before the operation
};

inline constexpr std::size_t kNumSites = 2;
inline constexpr std::size_t kNumKinds = 7;

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// The one check hot paths pay when injection is off.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Install a schedule from a spec string (grammar above, without the
/// QDV_FAULT= prefix). Replaces any previous schedule and enables
/// injection when at least one rate is nonzero. Returns false (and sets
/// @p error when given) on a malformed spec, leaving the previous schedule
/// in place.
bool configure(const std::string& spec, std::string* error = nullptr);

/// Drop the schedule and disable injection; counters reset to zero.
void reset();

/// Decide whether to inject @p kind at @p site for the current operation
/// (draws from the seeded stream; counts fires). Always false when the
/// schedule has no matching rate.
bool roll(Site site, Kind kind);

/// A raw 64-bit draw from the injector stream — used for fault parameters
/// (which bit to flip, how long to stall) so they replay from the seed too.
std::uint64_t draw();

/// Fires of @p kind at @p site since configure()/reset().
std::uint64_t injected(Site site, Kind kind);
std::uint64_t injected_total();

const char* site_name(Site site);
const char* kind_name(Kind kind);

}  // namespace qdv::fault

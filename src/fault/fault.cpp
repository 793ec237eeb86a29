#include "fault/fault.hpp"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

namespace qdv::fault {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

struct Schedule {
  std::mutex mutex;
  // Fixed-point probability per (site, kind): fires when draw % kDenom < rate.
  static constexpr std::uint64_t kDenom = 1u << 20;
  std::array<std::array<std::uint64_t, kNumKinds>, kNumSites> rates{};
  std::array<std::array<std::uint64_t, kNumKinds>, kNumSites> fired{};
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
};

Schedule& sched() {
  static Schedule s;
  return s;
}

std::uint64_t xorshift(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

bool parse_site(const std::string& text, Site& out) {
  if (text == "file") out = Site::kFile;
  else if (text == "svc") out = Site::kSvc;
  else return false;
  return true;
}

bool parse_kind(const std::string& text, Kind& out) {
  if (text == "short") out = Kind::kShortRead;
  else if (text == "eintr") out = Kind::kEintr;
  else if (text == "enospc") out = Kind::kEnospc;
  else if (text == "flip") out = Kind::kBitFlip;
  else if (text == "trunc") out = Kind::kTruncate;
  else if (text == "reset") out = Kind::kConnReset;
  else if (text == "delay") out = Kind::kLatency;
  else return false;
  return true;
}

// One comma-separated token: "seed:<n>" or "spec:<site>.<kind>@<rate>".
bool apply_token(Schedule& s, const std::string& token, std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error) *error = what + " in fault token '" + token + "'";
    return false;
  };
  const std::size_t colon = token.find(':');
  if (colon == std::string::npos) return fail("missing ':'");
  const std::string key = token.substr(0, colon);
  const std::string value = token.substr(colon + 1);
  if (key == "seed") {
    char* end = nullptr;
    const unsigned long long seed = std::strtoull(value.c_str(), &end, 0);
    if (end == value.c_str() || *end != '\0') return fail("bad seed");
    s.rng = seed | 1;  // xorshift must not start at zero
    return true;
  }
  if (key != "spec") return fail("unknown key '" + key + "'");
  const std::size_t dot = value.find('.');
  const std::size_t at = value.find('@');
  if (dot == std::string::npos || at == std::string::npos || at < dot)
    return fail("expected <site>.<kind>@<rate>");
  Site site;
  Kind kind;
  if (!parse_site(value.substr(0, dot), site)) return fail("unknown site");
  if (!parse_kind(value.substr(dot + 1, at - dot - 1), kind))
    return fail("unknown kind");
  char* end = nullptr;
  const std::string rate_text = value.substr(at + 1);
  const double rate = std::strtod(rate_text.c_str(), &end);
  if (end == rate_text.c_str() || *end != '\0' || rate < 0.0 || rate > 1.0)
    return fail("rate must be in [0, 1]");
  s.rates[static_cast<unsigned>(site)][static_cast<unsigned>(kind)] =
      static_cast<std::uint64_t>(rate * static_cast<double>(Schedule::kDenom));
  return true;
}

// Parse QDV_FAULT once at process start so spawned tools/workers inherit
// the schedule without any code having to call configure().
const bool g_env_loaded = [] {
  if (const char* env = std::getenv("QDV_FAULT")) {
    std::string error;
    if (!configure(env, &error))
      std::fprintf(stderr, "qdv: ignoring QDV_FAULT: %s\n", error.c_str());
  }
  return true;
}();

}  // namespace

bool configure(const std::string& spec, std::string* error) {
  Schedule& s = sched();
  std::lock_guard<std::mutex> lock(s.mutex);
  decltype(s.rates) rates{};
  std::uint64_t rng = s.rng;
  // Parse into locals first so a malformed spec leaves the schedule alone.
  {
    Schedule scratch;
    scratch.rng = rng;
    std::size_t start = 0;
    while (start <= spec.size()) {
      const std::size_t comma = spec.find(',', start);
      const std::string token =
          spec.substr(start, comma == std::string::npos ? std::string::npos
                                                        : comma - start);
      if (!token.empty() && !apply_token(scratch, token, error)) return false;
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    rates = scratch.rates;
    rng = scratch.rng;
  }
  s.rates = rates;
  s.rng = rng;
  s.fired = {};
  bool any = false;
  for (const auto& per_site : s.rates)
    for (const std::uint64_t r : per_site) any = any || r != 0;
  detail::g_enabled.store(any, std::memory_order_relaxed);
  return true;
}

void reset() {
  Schedule& s = sched();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.rates = {};
  s.fired = {};
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

bool roll(Site site, Kind kind) {
  Schedule& s = sched();
  std::lock_guard<std::mutex> lock(s.mutex);
  const std::uint64_t rate =
      s.rates[static_cast<unsigned>(site)][static_cast<unsigned>(kind)];
  if (rate == 0) return false;
  if (xorshift(s.rng) % Schedule::kDenom >= rate) return false;
  ++s.fired[static_cast<unsigned>(site)][static_cast<unsigned>(kind)];
  return true;
}

std::uint64_t draw() {
  Schedule& s = sched();
  std::lock_guard<std::mutex> lock(s.mutex);
  return xorshift(s.rng);
}

std::uint64_t injected(Site site, Kind kind) {
  Schedule& s = sched();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.fired[static_cast<unsigned>(site)][static_cast<unsigned>(kind)];
}

std::uint64_t injected_total() {
  Schedule& s = sched();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::uint64_t total = 0;
  for (const auto& per_site : s.fired)
    for (const std::uint64_t f : per_site) total += f;
  return total;
}

const char* site_name(Site site) {
  switch (site) {
    case Site::kFile: return "file";
    case Site::kSvc: return "svc";
  }
  return "?";
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kShortRead: return "short";
    case Kind::kEintr: return "eintr";
    case Kind::kEnospc: return "enospc";
    case Kind::kBitFlip: return "flip";
    case Kind::kTruncate: return "trunc";
    case Kind::kConnReset: return "reset";
    case Kind::kLatency: return "delay";
  }
  return "?";
}

}  // namespace qdv::fault

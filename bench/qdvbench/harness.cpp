// The wire run of one workload: set-up (generate + serve), warm-up,
// timed closed loop over the unix socket, then verification.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "core/brush.hpp"
#include "qdvbench.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"

namespace qdvbench {

using namespace qdv;
using Clock = std::chrono::steady_clock;

namespace {

/// Windows the timed phase is cut into (see run_workload).
constexpr std::size_t kWindows = 5;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::time_point after(Clock::time_point base, double seconds) {
  return base + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
}

/// fork + exec of @p argv with stdout/stderr appended to @p log. The child
/// is killed if this thread exits first, so a crashed benchmark never
/// leaves a server behind. Everything the child touches is prepared before
/// fork(): after it, only async-signal-safe calls run.
pid_t spawn(const std::vector<std::string>& argv,
            const std::filesystem::path& log) {
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) throw std::runtime_error("cannot open " + log.string());
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fd, STDOUT_FILENO);
    ::dup2(fd, STDERR_FILENO);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  const int fork_errno = errno;
  ::close(fd);
  if (pid < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(fork_errno));
  return pid;
}

int wait_exit(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

/// A running `qdv_tool serve`; the destructor stops and reaps it.
class Server {
 public:
  Server(const std::vector<std::string>& argv, const std::filesystem::path& log)
      : pid_(spawn(argv, log)) {}
  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  pid_t pid() const { return pid_; }
  /// False once the server has exited (it is reaped here, then).
  bool alive() {
    int status = 0;
    if (pid_ > 0 && ::waitpid(pid_, &status, WNOHANG) != 0) pid_ = -1;
    return pid_ > 0;
  }
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    wait_exit(pid_);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

/// utime + stime of @p pid in milliseconds (/proc/<pid>/stat fields 14, 15).
double cpu_ms(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), {});
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("cannot read server /proc stat");
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int k = 3; k <= 15 && fields >> field; ++k)
    if (k >= 14) ticks += std::stod(field);
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// VmHWM (peak resident set) of @p pid in MiB; 0 once the server has
/// exited (its disconnected clients already count as failed).
double peak_rss_mib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

/// One recorded response, for verification after the run.
struct Sample {
  std::size_t client = 0;
  std::size_t index = 0;  // action index in the client's stream
  std::string response;
};

struct ClientLog {
  std::vector<std::vector<double>> latency_ms;  // timed ok actions, by window
  std::vector<Sample> warm;
  std::vector<Sample> timed;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;  // disconnect message, if the client died
};

/// Set up anew: generate the dataset into "ds", start the server,
/// and wait until it answers hello. Returns the server; @p generate_s and
/// @p setup_s receive the generate time and the whole set-up time.
std::unique_ptr<Server> set_up(const std::vector<std::string>& generate_argv,
                               const std::vector<std::string>& serve_argv,
                               double& generate_s, double& setup_s) {
  std::filesystem::remove_all("ds");
  const Clock::time_point t0 = Clock::now();
  if (const int rc = wait_exit(spawn(generate_argv, "generate.log")); rc != 0)
    throw std::runtime_error("qdv_tool generate exited " + std::to_string(rc) +
                             " (see generate.log)");
  const Clock::time_point t1 = Clock::now();
  auto server = std::make_unique<Server>(serve_argv, "serve.log");
  for (;;) {
    try {
      svc::SocketClient hello{std::filesystem::path("serve.sock")};
      break;
    } catch (const std::exception&) {
      if (!server->alive())
        throw std::runtime_error("qdv_tool serve died during start-up (see serve.log)");
      if (seconds_between(t1, Clock::now()) > 60.0)
        throw std::runtime_error("qdv_tool serve did not answer hello in 60 s");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  generate_s = seconds_between(t0, t1);
  setup_s = seconds_between(t0, Clock::now());
  return server;
}

/// Actions per verification block: one brush lifetime.
constexpr std::size_t kBlock = core::Brush::kMaxHistory;

/// A seeded sample of at least @p n of @p from (all of it when smaller),
/// taken as whole blocks: the samples of one client whose action indices
/// share index / kBlock. A block of brush actions is one brush lifetime, so
/// the oracle's node cache evaluates its composed predicates as a chain.
std::vector<std::vector<Sample>> seeded_blocks(std::vector<Sample> from,
                                               std::size_t n, Rng rng) {
  std::map<std::pair<std::size_t, std::size_t>, std::vector<Sample>> by_block;
  for (Sample& s : from)
    by_block[{s.client, s.index / kBlock}].push_back(std::move(s));
  std::vector<std::vector<Sample>> blocks;
  for (auto& [key, block] : by_block) {
    std::sort(block.begin(), block.end(),
              [](const Sample& a, const Sample& b) { return a.index < b.index; });
    blocks.push_back(std::move(block));
  }
  for (std::size_t k = blocks.size(); k > 1; --k)
    std::swap(blocks[k - 1], blocks[rng.below(k)]);
  std::size_t taken = 0, count = 0;
  while (taken < blocks.size() && count < n) count += blocks[taken++].size();
  blocks.resize(taken);
  return blocks;
}

/// Recompute every sampled response on a scan engine over the dataset in
/// "ds"; returns {verified, mismatches}.
std::pair<std::uint64_t, std::uint64_t> verify(
    const Streams& streams, const std::vector<std::vector<Sample>>& blocks,
    std::size_t threads, const std::string& name) {
  const core::Engine oracle(io::Dataset::open("ds"), EvalMode::kScan);
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> verified{0}, mismatches{0};
  std::mutex report_mutex;
  std::vector<std::jthread> workers;
  for (std::size_t v = 0; v < threads; ++v) {
    workers.emplace_back([&] {
      for (std::size_t k = next++; k < blocks.size(); k = next++) {
        for (const Sample& s : blocks[k]) {
          ++verified;
          const Action a = streams.action(s.client, s.index);
          std::string expected;
          try {
            expected = oracle_response(oracle, a);
          } catch (const std::exception& e) {
            expected = std::string("oracle error: ") + e.what();
          }
          if (same_response(s.response, expected)) continue;
          if (++mismatches <= 5) {
            std::lock_guard<std::mutex> lock(report_mutex);
            std::cerr << name << ": verify mismatch for '" << a.lines.back()
                      << "'\n  server: " << s.response << "\n  oracle: " << expected
                      << "\n";
          }
        }
      }
    });
  }
  workers.clear();  // joins
  return {verified, mismatches};
}

}  // namespace

WorkloadResult run_workload(const Options& options, Workload w,
                            std::vector<TraceLog>& traces) {
  const Shape shape = shape_of(w, options.smoke);
  const std::string name = workload_name(w);
  WorkloadResult result;
  result.workload = w;

  // Work in a private directory: relative socket and dataset paths keep the
  // socket path short however deep the checkout is.
  const std::filesystem::path dir =
      options.work / (name + "-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  struct Cleanup {
    std::filesystem::path cwd, dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::current_path(cwd, ec);
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{cwd, dir};

  const std::string tool = options.tool.string();
  const std::vector<std::string> generate_argv = {
      tool, "generate", "ds", "--preset", "bench",
      "--particles", std::to_string(shape.particles),
      "--timesteps", std::to_string(shape.timesteps),
      "--seed", std::to_string(options.seed)};
  std::vector<std::string> serve_argv = {tool, "serve", "ds", "--socket",
                                         "serve.sock"};
  if (shape.budget_mib != 0) {
    serve_argv.push_back("--budget");
    serve_argv.push_back(std::to_string(shape.budget_mib));
  }

  // --- set-up, repeated: setup_s is the median; the last server is driven --
  const Clock::time_point start = Clock::now();
  std::vector<double> setup_s(std::max<std::size_t>(1, options.setup_reps));
  std::vector<double> generate_s(setup_s.size());
  std::unique_ptr<Server> server;
  for (std::size_t k = 0; k < setup_s.size(); ++k) {
    server.reset();
    server = set_up(generate_argv, serve_argv, generate_s[k], setup_s[k]);
  }
  const Streams streams(w, io::Dataset::open("ds"), options.seed, shape.clients);
  const Clock::time_point setup_done = Clock::now();

  // --- warm-up, then the timed closed loop --------------------------------
  // The timed phase is cut into kWindows equal windows. Latency, throughput
  // and server CPU are computed per window and reported as the median
  // window, so a burst of interference on a shared host moves one window,
  // not the run.
  const double window_s = options.seconds / static_cast<double>(kWindows);
  std::vector<ClientLog> logs(shape.clients);
  for (ClientLog& log : logs) log.latency_ms.resize(kWindows);
  const Clock::time_point timed_from = after(Clock::now(), options.warmup_seconds);
  const Clock::time_point timed_until = after(timed_from, options.seconds);
  // jthreads: an exception below still joins the clients, which stop on
  // their own at timed_until.
  std::vector<std::jthread> clients;
  for (std::size_t c = 0; c < shape.clients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[c];
      try {
        svc::SocketClient client{std::filesystem::path("serve.sock")};
        for (std::size_t i = 0;; ++i) {
          const Action action = streams.action(c, i);
          const Clock::time_point a0 = Clock::now();
          if (a0 >= timed_until) break;
          const bool timed = a0 >= timed_from;
          ++log.attempted;
          std::string response;
          bool ok = true;
          for (const std::string& line : action.lines) {
            response = client.request(line);
            ok = ok && response.rfind("ok", 0) == 0;
          }
          const Clock::time_point a1 = Clock::now();
          if (!ok) {
            ++log.failed;
            continue;
          }
          if (timed) {
            const auto k = static_cast<std::size_t>(seconds_between(timed_from, a0) / window_s);
            log.latency_ms[std::min(k, kWindows - 1)].push_back(seconds_between(a0, a1) * 1e3);
          }
          (timed ? log.timed : log.warm).push_back({c, i, std::move(response)});
        }
      } catch (const std::exception& e) {
        ++log.attempted;
        ++log.failed;
        log.error = e.what();
      }
    });
  }
  // Server CPU and the clock at every window boundary.
  std::vector<double> cpu_at, time_at;
  for (std::size_t k = 0; k <= kWindows; ++k) {
    std::this_thread::sleep_until(after(timed_from, static_cast<double>(k) * window_s));
    cpu_at.push_back(cpu_ms(server->pid()));
    time_at.push_back(seconds_between(timed_from, Clock::now()));
  }
  clients.clear();  // joins
  const double rss_mib = peak_rss_mib(server->pid());
  server->stop();
  const Clock::time_point run_done = Clock::now();

  std::vector<double> p50_ms, p99_ms, throughput, cpu_per_op;
  std::vector<Sample> warm, timed;
  for (std::size_t k = 0; k < kWindows; ++k) {
    std::vector<double> v;
    for (const ClientLog& log : logs)
      v.insert(v.end(), log.latency_ms[k].begin(), log.latency_ms[k].end());
    result.n_ops += v.size();
    p50_ms.push_back(percentile(v, 0.50));
    p99_ms.push_back(percentile(v, 0.99));
    throughput.push_back(static_cast<double>(v.size()) / (time_at[k + 1] - time_at[k]));
    cpu_per_op.push_back((cpu_at[k + 1] - cpu_at[k]) /
                         static_cast<double>(std::max<std::size_t>(1, v.size())));
  }
  for (ClientLog& log : logs) {
    if (!log.error.empty())
      std::cerr << name << ": client disconnected: " << log.error << "\n";
    result.attempted += log.attempted;
    result.failed += log.failed;
    warm.insert(warm.end(), std::make_move_iterator(log.warm.begin()),
                std::make_move_iterator(log.warm.end()));
    timed.insert(timed.end(), std::make_move_iterator(log.timed.begin()),
                 std::make_move_iterator(log.timed.end()));
  }

  // --- verification (untimed) ---------------------------------------------
  // A seeded sample of the distinct warm-up responses (by request) and of
  // the timed ones, each recomputed on a scan engine.
  {
    std::unordered_map<std::string, Sample> distinct;
    for (Sample& s : warm) {
      const Action a = streams.action(s.client, s.index);
      distinct.try_emplace(a.lines.back() + "|" + a.composed, std::move(s));
    }
    std::vector<Sample> unique;
    for (auto& [key, s] : distinct) unique.push_back(std::move(s));
    const std::size_t per_phase = options.smoke ? 100 : 500;
    const auto key = static_cast<std::uint64_t>(w);
    std::vector<std::vector<Sample>> check =
        seeded_blocks(std::move(unique), per_phase, Rng{options.seed, key, 1});
    for (auto& block : seeded_blocks(std::move(timed), per_phase, Rng{options.seed, key, 2}))
      check.push_back(std::move(block));
    std::tie(result.verified, result.mismatches) =
        verify(streams, check, shape.clients, name);
  }
  result.failed += result.mismatches;
  result.correct = result.mismatches == 0 && result.verified > 0;
  const Clock::time_point verify_done = Clock::now();

  const double p50 = percentile(p50_ms, 0.50);
  result.metrics = {
      {"setup_s", percentile(setup_s, 0.50), "s"},
      {"p50_ms", p50, "ms"},
      {"p99_ms", percentile(p99_ms, 0.50), "ms"},
      {"throughput_ops", percentile(throughput, 0.50), "ops/s"},
      {"cpu_ms_per_op", percentile(cpu_per_op, 0.50), "ms"},
      {"peak_rss_mb", rss_mib, "MiB"},
  };

  if (options.trace)
    result.layers = trace_layers(options, w, dir / "ds", p50 * 1e3,
                                 percentile(generate_s, 0.50), traces);
  std::cerr << name << ": setup=" << seconds_between(start, setup_done)
            << "s run=" << seconds_between(setup_done, run_done)
            << "s verify=" << seconds_between(run_done, verify_done)
            << "s trace=" << seconds_between(verify_done, Clock::now()) << "s\n";
  return result;
}

}  // namespace qdvbench

// qdvbench entry point. Normally started through run.sh, which builds this
// binary and qdv_tool first:
//
//   qdvbench --tool <qdv_tool> --work <dir> [--workload NAME | --workloads a,b]
//            [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--sets K]
//            [--out FILE] [--trace-out FILE] [--git-sha SHA] [--git-dirty 0|1]
//
// Prints one `workload metric value unit` line per metric, writes the full
// result (with its host block) to --out, and ends with one JSON line:
// {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics,
// or with --trace the per-layer ones. Exits 1 on any failed or mismatched
// operation, 2 on bad arguments or a harness error.
#include <sys/utsname.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bitmap/simd.hpp"
#include "core/query.hpp"
#include "qdvbench.hpp"

#ifndef QDVBENCH_BUILD_TYPE
#define QDVBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace qdvbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

/// Shortest round-trip text of @p v: every measured digit, valid JSON.
std::string json_number(double v) {
  return std::isfinite(v) ? qdv::format_double(v) : "null";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

std::string env_or_empty(const char* name) {
  const char* v = std::getenv(name);
  return v ? v : "";
}

std::string host_json(const Options& o) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);)
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  utsname uts{};
  const std::string kernel = ::uname(&uts) == 0 ? uts.release : "unknown";
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": " << json_string(cpu)
      << ", \"isa\": " << json_string(qdv::simd::isa_name(qdv::simd::best_supported()))
      << ", \"isa_active\": " << json_string(qdv::simd::isa_name(qdv::simd::active()))
      << ", \"QDV_FORCE_ISA\": " << json_string(env_or_empty("QDV_FORCE_ISA"))
      << ", \"QDV_THREADS\": " << json_string(env_or_empty("QDV_THREADS"))
      << ", \"compiler\": " << json_string(__VERSION__)
      << ", \"build_type\": " << json_string(QDVBENCH_BUILD_TYPE)
      << ", \"git_sha\": " << json_string(o.git_sha)
      << ", \"git_dirty\": " << (o.git_dirty ? "true" : "false")
      << ", \"kernel\": " << json_string(kernel) << "}";
  return out.str();
}

std::string result_json(const WorkloadResult& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"mismatches\": " << r.mismatches << ", \"verified\": " << r.verified
      << ", \"n_ops\": " << r.n_ops << ", \"error_rate\": " << json_number(r.error_rate())
      << ", \"metrics\": " << metrics_json(r.metrics);
  if (!r.layers.empty()) out << ", \"layers\": " << metrics_json(r.layers);
  out << "}";
  return out.str();
}

/// Chrome trace-event JSON of every replay's spans.
void write_trace(const std::filesystem::path& file, const std::vector<TraceLog>& logs) {
  std::ofstream out(file);
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (std::size_t pid = 0; pid < logs.size(); ++pid) {
    out << (first ? "" : ",\n") << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
        << pid << ", \"args\": {\"name\": " << json_string(logs[pid].label) << "}}";
    first = false;
    for (const Span& s : logs[pid].spans)
      out << ",\n{\"name\": " << json_string(s.name) << ", \"ph\": \"X\", \"pid\": " << pid
          << ", \"tid\": " << s.thread << ", \"ts\": " << json_number(s.t0)
          << ", \"dur\": " << json_number(s.t1 - s.t0) << ", \"args\": {\"req\": " << s.req
          << ", \"parent\": " << s.parent << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + file.string());
}

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "qdvbench: " << message << "\n"
            << "usage: qdvbench --tool <qdv_tool> --work <dir> [--workload NAME | "
               "--workloads a,b] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] "
               "[--sets K] [--out FILE] [--trace-out FILE] [--git-sha SHA] "
               "[--git-dirty 0|1]\n";
  std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno != 0 || text[0] == '-')
    usage_error("bad value for " + flag + ": '" + text + "'");
  return v;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    const auto value = [&]() -> std::string {
      if (k + 1 >= argc) usage_error(flag + " needs a value");
      return argv[++k];
    };
    const auto add_workload = [&](const std::string& name) {
      const auto w = parse_workload(name);
      if (!w) usage_error("unknown workload '" + name + "' (explore|zoom|brush|sweep)");
      o.workloads.push_back(*w);
    };
    if (flag == "--workload") {
      add_workload(value());
    } else if (flag == "--workloads") {
      std::stringstream list(value());
      for (std::string name; std::getline(list, name, ',');) add_workload(name);
    } else if (flag == "--seed") {
      o.seed = parse_count(flag, value());
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_count(flag, value()));
      if (o.seconds < 1) usage_error("--seconds must be at least 1");
    } else if (flag == "--trace") {
      // `--trace` alone, or `--trace 0|1`.
      o.trace = true;
      if (k + 1 < argc && (std::strcmp(argv[k + 1], "0") == 0 ||
                           std::strcmp(argv[k + 1], "1") == 0))
        o.trace = argv[++k][0] == '1';
    } else if (flag == "--smoke") {
      o.smoke = true;
    } else if (flag == "--sets") {
      o.sets = parse_count(flag, value());
      if (o.sets == 0) usage_error("--sets must be at least 1");
    } else if (flag == "--tool") {
      o.tool = std::filesystem::absolute(value());
    } else if (flag == "--work") {
      o.work = std::filesystem::absolute(value());
    } else if (flag == "--out") {
      o.out = std::filesystem::absolute(value());
    } else if (flag == "--trace-out") {
      o.trace_out = std::filesystem::absolute(value());
    } else if (flag == "--git-sha") {
      o.git_sha = value();
    } else if (flag == "--git-dirty") {
      o.git_dirty = parse_count(flag, value()) != 0;
    } else {
      usage_error("unknown argument '" + flag + "'");
    }
  }
  if (o.tool.empty() || o.work.empty()) usage_error("--tool and --work are required");
  if (!std::filesystem::exists(o.tool)) usage_error("no qdv_tool at " + o.tool.string());
  if (o.workloads.empty()) o.workloads.assign(std::begin(kAllWorkloads), std::end(kAllWorkloads));
  if (o.smoke) {
    o.seconds = 1.0;
    o.warmup_seconds = 0.5;
    o.setup_reps = 1;
    o.replay_actions = 200;
  }
  return o;
}

/// Per metric of every workload: min, max, median and (max - min) / median
/// over the sets.
void print_spread(const std::vector<std::vector<WorkloadResult>>& sets) {
  std::map<std::pair<std::string, std::string>, std::vector<double>> values;
  std::vector<std::pair<std::string, std::string>> order;
  for (const auto& set : sets)
    for (const WorkloadResult& r : set)
      for (const Metric& m : r.metrics) {
        const auto key = std::make_pair(std::string(workload_name(r.workload)), m.name);
        if (values[key].empty()) order.push_back(key);
        values[key].push_back(m.value);
      }
  std::printf("spread over %zu sets: workload metric min median max spread%%\n", sets.size());
  for (const auto& key : order) {
    const std::vector<double>& v = values[key];
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    const double med = percentile(v, 0.50);
    std::printf("spread %-8s %-15s %12.6g %12.6g %12.6g %7.2f\n", key.first.c_str(),
                key.second.c_str(), *lo, med, *hi,
                med != 0.0 ? 100.0 * (*hi - *lo) / std::fabs(med) : 0.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  std::vector<std::vector<WorkloadResult>> sets;
  std::vector<TraceLog> traces;
  try {
    std::filesystem::create_directories(options.work);
    for (std::size_t set = 0; set < options.sets; ++set) {
      std::vector<WorkloadResult> results;
      for (const Workload w : options.workloads) {
        WorkloadResult r = run_workload(options, w, traces);
        const std::string name = workload_name(w);
        std::cout << name << " n_ops " << r.n_ops << " count\n"
                  << name << " verified " << r.verified << " count\n"
                  << name << " mismatches " << r.mismatches << " count\n"
                  << name << " error_rate " << json_number(r.error_rate())
                  << " fraction\n";
        for (const Metric& m : r.metrics)
          std::cout << name << " " << m.name << " " << json_number(m.value) << " "
                    << m.unit << "\n";
        for (const Metric& m : r.layers)
          std::cout << name << " " << m.name << " " << json_number(m.value) << " "
                    << m.unit << "\n";
        std::cout.flush();
        results.push_back(std::move(r));
      }
      sets.push_back(std::move(results));
    }
    if (options.trace && !options.trace_out.empty()) {
      write_trace(options.trace_out, traces);
      std::cout << "wrote " << options.trace_out.string() << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "qdvbench: " << e.what() << "\n";
    return 2;
  }
  if (sets.size() > 1) print_spread(sets);

  if (!options.out.empty()) {
    std::ofstream out(options.out);
    out << "{\"schema\": \"qdvbench/1\",\n \"host\": " << host_json(options)
        << ",\n \"config\": {\"seed\": " << options.seed
        << ", \"seconds\": " << json_number(options.seconds)
        << ", \"warmup_seconds\": " << json_number(options.warmup_seconds)
        << ", \"setup_reps\": " << options.setup_reps
        << ", \"trace\": " << (options.trace ? "true" : "false")
        << ", \"smoke\": " << (options.smoke ? "true" : "false") << "},\n \"runs\": [";
    for (std::size_t s = 0; s < sets.size(); ++s) {
      out << (s ? ",\n  " : "\n  ") << "{";
      for (std::size_t k = 0; k < sets[s].size(); ++k)
        out << (k ? ",\n   " : "") << json_string(workload_name(sets[s][k].workload))
            << ": " << result_json(sets[s][k]);
      out << "}";
    }
    out << "\n ]}\n";
    if (!out) {
      std::cerr << "qdvbench: cannot write " << options.out.string() << "\n";
      return 2;
    }
    std::cout << "wrote " << options.out.string() << "\n";
  }

  // Last line: the summary object. One workload in one set reports its
  // metrics under their own names; a suite prefixes them with the workload.
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> last;
  const bool single = sets.size() == 1 && sets.front().size() == 1;
  for (const auto& set : sets)
    for (const WorkloadResult& r : set) {
      correct = correct && r.correct;
      attempted += r.attempted;
      failed += r.failed;
    }
  for (const WorkloadResult& r : sets.back())
    for (Metric m : options.trace ? r.layers : r.metrics) {
      if (!single) m.name = std::string(workload_name(r.workload)) + "." + m.name;
      last.push_back(m);
    }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(last) << "}" << std::endl;
  return correct && failed == 0 ? 0 : 1;
}

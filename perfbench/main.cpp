// perfbench — the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>] [--smoke]
//
// Prints one provenance line, then, as its last line, one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics (and a Chrome trace in --trace-file)
// with --trace 1. Exit status: 0 when every output check passed, 1 when one
// failed or the run threw, 2 when the run was refused (bad arguments, a
// CBM_* knob set, more threads asked for than the host has).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "common/vectorops.hpp"

extern char** environ;

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const auto idx =
      static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
  return values[idx];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return std::nan("");
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

int Tracer::begin(const char* name, double work) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.work = work;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

double Tracer::rate(const std::string& name) const {
  double work = 0.0;
  double seconds = 0.0;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    work += s.work;
    seconds += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return seconds > 0.0 ? work / seconds : std::nan("");
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"work\":%.17g}}\n",
                  i == 0 ? "" : ",", s.name.c_str(),
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent, s.work);
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB → MB
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int workload_threads(const std::string& workload) {
  if (workload == "gcn-proteins-t1") return 1;
  if (workload == "serve-mixed") return 2;
  return 0;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void refuse(const std::string& why) {
  std::fprintf(stderr, "perfbench: refused: %s\n", why.c_str());
  std::exit(2);
}

RunConfig parse_args(int argc, char** argv, std::string& trace_file) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) refuse("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') refuse("bad --seed " + value);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(config.seconds > 0.0) ||
          config.seconds > 600.0) {
        refuse("bad --seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") refuse("bad --trace " + value);
      config.trace = value == "1";
    } else if (arg == "--trace-file") {
      trace_file = value;
    } else {
      refuse("unknown argument " + arg);
    }
  }
  if (!have_workload) refuse("--workload is required");
  return config;
}

/// Hardware threads this process may run on (what `nproc` prints).
int host_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

/// OpenMP team size a newly created thread starts with. The serving worker
/// is such a thread, so this is the team it multiplies with.
int new_thread_team() {
  int team = 0;
  std::thread probe([&team] { team = cbm::max_threads(); });
  probe.join();
  return team;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_file;
  const RunConfig config = parse_args(argc, argv, trace_file);

  // Provenance rules, applied from outside the library: the timed path is
  // the default one (no CBM_* execution or telemetry knob), and no workload
  // asks for more threads than the host has.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CBM_", 4) == 0) {
      refuse(std::string("CBM_* knob set in the environment: ") + *e);
    }
  }
  const int team = workload_threads(config.workload);
  if (team == 0) refuse("unknown workload " + config.workload);
  const int client_threads = config.workload == "serve-mixed" ? 1 : 0;
  const int nproc = host_threads();
  if (team + client_threads > nproc) {
    refuse(config.workload + " needs " + std::to_string(team) +
           " OpenMP threads + " + std::to_string(client_threads) +
           " client threads but the host has " + std::to_string(nproc));
  }
  const int spawned_team = new_thread_team();
  if (spawned_team > team) {
    refuse("a new thread would start an OpenMP team of " +
           std::to_string(spawned_team) + " threads, more than the " +
           std::to_string(team) + " this workload may use; set "
           "OMP_NUM_THREADS=" + std::to_string(team) +
           " (perfbench/run.py does)");
  }

  Tracer tracer(config.trace);
  RunResult result;
  try {
    result = config.workload == "serve-mixed"
                 ? run_serve_workload(config, tracer)
                 : run_gcn_workload(config, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", config.workload.c_str(),
                 e.what());
    return 1;
  }

  result.labels.insert(
      result.labels.begin(),
      {{"workload", config.workload},
       {"seed", std::to_string(config.seed)},
       {"nproc", std::to_string(nproc)},
       {"omp_threads", std::to_string(team)},
       {"client_threads", std::to_string(client_threads)},
       {"simd", cbm::simd_level_name(cbm::simd_level())},
       {"trace", config.trace ? "1" : "0"}});
  std::string provenance = "{";
  for (std::size_t i = 0; i < result.labels.size(); ++i) {
    provenance += (i ? ", " : "") + json_string(result.labels[i].first) +
                  ": " + json_string(result.labels[i].second);
  }
  std::printf("perfbench-provenance %s}\n", provenance.c_str());

  if (config.trace && !trace_file.empty() &&
      !tracer.write_chrome_trace(trace_file)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_file.c_str());
  }

  bool finite = true;
  std::string metrics;
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (!std::isfinite(m.value)) {
      finite = false;
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
    }
    metrics += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
               json_number(std::isfinite(m.value) ? m.value : -1.0) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  const bool correct = result.failed == 0 && result.attempted > 0 && finite;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// dhs_perf: end-to-end and per-layer benchmark of served DHS counts and
// inserts. Usage:
//
//   dhs_perf --workload NAME --seed N --seconds S --trace 0|1
//            [--size full|tiny] [--commit ID] [--source-digest HEX]
//   dhs_perf --self-test
//
// Prints a stamp line (host_cores, commit, build type, seed), one line
// of context (sample counts, replays, the served rates and latencies),
// and as its last line one JSON object with the keys correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end
// ones, with --trace 1 the per-layer ones.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "checks.h"
#include "workload.h"

#ifndef DHS_PERF_BUILD_TYPE
#define DHS_PERF_BUILD_TYPE "unknown"
#endif

namespace dhs {
namespace perf {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

void PrintResult(const RunResult& r) {
  std::printf("{\"context\": %s, \"timings\": %s, "
              "\"answer_digest\": \"%016llx\"%s%s}\n",
              MetricsJson(r.info).c_str(), MetricsJson(r.timings).c_str(),
              static_cast<unsigned long long>(r.answer_digest),
              r.failure.empty() ? "" : ", \"failure\": ",
              r.failure.empty() ? "" : JsonString(r.failure).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              MetricsJson(r.metrics).c_str());
  std::fflush(stdout);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "dhs_perf: %s\nusage: dhs_perf --workload NAME --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] [--commit ID] "
               "[--source-digest HEX]\n       dhs_perf --self-test\n",
               why);
  return 2;
}

/// The checker's planted-fault tests plus a tiny run of every workload
/// and of a PCSA variant, each of which must pass every check.
int SelfTest() {
  const std::string checker = CheckerSelfTest();
  if (!checker.empty()) {
    std::fprintf(stderr, "checker self-test failed: %s\n", checker.c_str());
    return 1;
  }
  std::printf("checker rejects planted faults: ok\n");
  std::vector<Params> runs;
  for (const std::string& name : WorkloadNames()) {
    runs.push_back(WorkloadParams(name, "tiny").value());
  }
  Params pcsa = WorkloadParams("count-hot-sim", "tiny").value();
  pcsa.name = "count-hot-sim/pcsa";
  pcsa.estimator = DhsEstimator::kPcsa;
  runs.push_back(pcsa);
  int failures = 0;
  for (const Params& p : runs) {
    const RunResult r = RunEndToEnd(p, /*seed=*/7, /*replays=*/2);
    const bool ok = r.correct && r.failed == 0 && r.attempted > 0;
    std::printf("tiny %s: %s%s\n", p.name.c_str(), ok ? "ok" : "FAILED ",
                r.failure.c_str());
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perf
}  // namespace dhs

int main(int argc, char** argv) {
  using namespace dhs::perf;
  std::string workload;
  std::string size = "full";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return SelfTest();
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--size") {
      size = value;
    } else if (arg == "--commit") {
      commit = value;
    } else if (arg == "--source-digest") {
      source_digest = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(seconds > 0.0) ||
          seconds > 3600.0) {
        return Usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      trace = value == "1" ? 1 : 0;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload.empty() || !have_seed || seconds <= 0.0 || trace < 0) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  auto params = WorkloadParams(workload, size);
  if (!params.ok()) return Usage(params.status().ToString().c_str());

  std::printf("{\"stamp\": {\"host_cores\": %u, \"commit\": %s, "
              "\"source_digest\": %s, \"build_type\": %s, \"seed\": %llu, "
              "\"workload\": %s, \"size\": %s, \"seconds\": %s, "
              "\"trace\": %d}}\n",
              std::thread::hardware_concurrency(),
              JsonString(commit).c_str(), JsonString(source_digest).c_str(),
              JsonString(DHS_PERF_BUILD_TYPE).c_str(),
              static_cast<unsigned long long>(seed),
              JsonString(workload).c_str(), JsonString(size).c_str(),
              JsonNumber(seconds).c_str(), trace);
  std::fflush(stdout);

  const RunResult result =
      trace == 1 ? RunTraced(params.value(), seed)
                 : RunEndToEnd(params.value(), seed,
                               ReplaysFor(params.value(), seconds));
  if (!result.failure.empty()) {
    std::fprintf(stderr, "dhs_perf: check failed: %s\n",
                 result.failure.c_str());
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "dhs_perf: nothing ran\n");
    return 1;
  }
  PrintResult(result);
  return 0;
}

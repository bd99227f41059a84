// The benchmark's workloads: one process, one thread, a closed loop of
// logical clients driving tickets through DhsServing over a DhsClient
// on a DHT world (see README.md for the make-up of each workload).

#ifndef DHS_PERFBENCH_WORKLOAD_H_
#define DHS_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dhs/config.h"

namespace dhs {
namespace perf {

struct Params {
  std::string name;
  bool kademlia = false;   // geometry: Kademlia, else Chord
  bool loopback = false;   // transport: AF_UNIX loopback, else sim
  int nodes = 1024;
  DhsEstimator estimator = DhsEstimator::kSuperLogLog;
  int m = 32;
  int replication = 1;
  bool frontier_cache = false;
  uint64_t ttl_ticks = kNoExpiry;  // finite: one tick per round
  /// Background work runs once per period: with a finite TTL the
  /// maintainer refreshes at the end of every period, and with churn
  /// one node leaves and one joins half-way through. The timed block is
  /// whole periods, so every replay carries the same share of it.
  int period_rounds = 1;
  bool churn = false;
  double drop_rate = 0.0;          // transient message drops

  int tenants = 16;             // single-metric tenants
  int histograms = 0;           // multi-metric sweep groups...
  int buckets = 0;              // ...of this many bucket metrics each
  int items_per_metric = 0;     // initial distinct items of every metric
  double zipf_theta = 1.0;      // tenant / histogram popularity
  int publishers = 0;           // insert origins (0 = any node)

  int clients = 32;             // closed-loop clients = tickets per round
  int inserts_per_round = 0;    // insert tickets in every round...
  int sweeps_per_round = 0;     // ...multi-metric counts...
  int items_per_insert = 0;     // (items per insert ticket)
                                // ...and single-metric counts for the rest
  int warmup_rounds = 0;        // untimed, after set-up
  int block_rounds = 0;         // the timed block every replay runs
                                // (whole periods)
  double replay_s = 1.0;        // about how long one replay (set-up,
                                // warm-up, block, checks) takes on the
                                // reference host
};

/// The named workload at `size` ("full" for the benchmark, "tiny" for
/// the benchmark's own tests). NotFound for unknown names.
StatusOr<Params> WorkloadParams(const std::string& name,
                                const std::string& size);

/// Names of every workload, in the order BENCHMARK.json lists them.
std::vector<std::string> WorkloadNames();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  std::string failure;     // first failed check, "" when correct
  uint64_t attempted = 0;  // timed tickets
  uint64_t failed = 0;     // timed tickets whose Take returned an error
  std::vector<Metric> metrics;
  // Served rates and latencies. The host's noise keeps them out of the
  // bounded end-to-end metrics (README.md): an untraced run prints them
  // on its context line, a traced run among its per-layer metrics.
  std::vector<Metric> timings;
  std::vector<Metric> info;  // sample counts and other context
  uint64_t answer_digest = 0;  // the block's answers and costs
  double replay_block_s = 0.0;  // median timed block over the replays
};

/// Replays an untraced run of `seconds` makes: about seconds / replay_s,
/// and at least two. It depends on `seconds` alone, never on the speed
/// of the host, so every run at one length does the same work.
int ReplaysFor(const Params& params, double seconds);

/// Untraced run: `replays` times over, builds a fresh world from the same
/// seeds, warms it up and runs the same timed block on it. Every replay
/// must give the same answers and costs. Each round and each ticket is
/// timed by its fastest replay, so a slow spell of the host in one
/// replay does not reach the timings. Returns the end-to-end metrics.
RunResult RunEndToEnd(const Params& params, uint64_t seed, int replays);

/// Traced run: the block untraced, then the same rounds on an identical
/// world with every layer call timed; returns the per-layer metrics.
RunResult RunTraced(const Params& params, uint64_t seed);

}  // namespace perf
}  // namespace dhs

#endif  // DHS_PERFBENCH_WORKLOAD_H_

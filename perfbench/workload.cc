#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "checks.h"
#include "common/random.h"
#include "common/zipf.h"
#include "dhs/client.h"
#include "dhs/maintainer.h"
#include "dhs/serving.h"
#include "dht/chord.h"
#include "dht/kademlia.h"
#include "dht/loopback.h"
#include "dht/transport.h"
#include "dht/wire.h"
#include "hashing/hasher.h"
#include "obs/metrics.h"
#include "timed_transport.h"

namespace dhs {
namespace perf {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Independent stream `stream` of the run's seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return SplitMix64(SplitMix64(seed) ^ (stream * 0x9E3779B97F4A7C15ULL));
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Nearest-rank percentile of an unsorted sample (sorted in place).
template <typename Container>
double Percentile(Container& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

Params CountHot(bool loopback, bool tiny) {
  Params p;
  p.name = loopback ? "count-hot-loopback" : "count-hot-sim";
  p.loopback = loopback;
  p.nodes = tiny ? 64 : 1024;
  p.estimator = DhsEstimator::kSuperLogLog;
  p.m = tiny ? 16 : 32;
  p.replication = 1;
  p.frontier_cache = true;
  p.tenants = tiny ? 8 : 16;
  p.histograms = tiny ? 1 : 2;
  p.buckets = tiny ? 4 : 8;
  // n >= m * N: 1100 >= 16 * 64, 34000 >= 32 * 1024.
  p.items_per_metric = tiny ? 1100 : 34000;
  p.zipf_theta = 1.0;
  p.clients = tiny ? 8 : 32;
  p.inserts_per_round = tiny ? 1 : 3;
  p.sweeps_per_round = tiny ? 1 : 3;
  p.items_per_insert = 16;
  p.warmup_rounds = tiny ? 2 : 20;
  // 334 rounds: 1002 insert tickets and 9686 count tickets.
  p.block_rounds = tiny ? 6 : 334;
  p.replay_s = tiny ? 0.25 : (loopback ? 5.0 : 3.0);
  return p;
}

Params IngestChurn(bool tiny) {
  Params p;
  p.name = "ingest-churn";
  p.kademlia = true;
  p.nodes = tiny ? 128 : 2048;
  p.estimator = DhsEstimator::kHyperLogLog;
  p.m = 16;  // the smallest m HLL accepts
  p.replication = 2;
  p.frontier_cache = false;
  // A Kademlia join rescans every record (DhtNetwork::MigrateOnJoin)
  // and a refresh re-inserts every registered item, so both run once
  // per 32-round period; the TTL spans four periods.
  p.period_rounds = tiny ? 8 : 32;
  p.ttl_ticks = static_cast<uint64_t>(4 * p.period_rounds);
  p.churn = true;
  p.drop_rate = 0.01;
  p.tenants = 8;
  // n >= m * N: 2200 >= 16 * 128, 34000 >= 16 * 2048.
  p.items_per_metric = tiny ? 2200 : 34000;
  p.zipf_theta = 1.0;
  p.publishers = tiny ? 8 : 64;
  p.clients = tiny ? 8 : 32;
  p.inserts_per_round = tiny ? 6 : 28;
  p.sweeps_per_round = 0;
  p.items_per_insert = 64;
  p.warmup_rounds = p.period_rounds;
  // 256 rounds: 7168 insert tickets and 1024 count tickets.
  p.block_rounds = tiny ? 16 : 256;
  p.replay_s = tiny ? 0.25 : 8.0;
  return p;
}

// ---------------------------------------------------------------------------
// The world: overlay, transport, client, serving layer, maintainer, and
// the benchmark's own reference state.

struct Registered {
  uint64_t node;
  uint64_t hash;
  uint64_t written_at;  // tick of the insert that registered it
};

struct PendingExpiry {
  uint64_t expires_at;
  uint64_t metric;
  uint64_t hash;
};

struct TapTotals {
  uint64_t charged = 0;
  uint64_t frames = 0;
  uint64_t wire_bytes = 0;
  uint64_t overhead_bytes = 0;
  uint64_t count_frames = 0;  // probe-open, metric-query, vector-response
};

struct World {
  explicit World(const Params& params)
      : p(params), reference(/*k=*/24, params.m, params.estimator) {}
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  const Params& p;
  // Declared first so it outlives the network it is attached to.
  std::unique_ptr<MetricsRegistry> registry;  // traced worlds only
  std::unique_ptr<DhtNetwork> net;
  LoopbackTransport* loopback = nullptr;  // owned through `transport`
  std::shared_ptr<TimedTransport> timed;  // traced worlds only
  std::shared_ptr<Transport> transport;
  std::unique_ptr<DhsClient> client;
  std::unique_ptr<DhsServing> serving;
  std::unique_ptr<DhsMaintainer> maintainer;
  std::unique_ptr<UniformHasher> hasher;

  ReferenceSketch reference;
  std::vector<uint64_t> tenants;
  std::vector<std::vector<uint64_t>> sweeps;
  std::vector<uint64_t> publishers;
  std::unordered_set<uint64_t> publisher_set;
  std::unordered_map<uint64_t, uint64_t> next_index;
  std::unordered_map<uint64_t, std::deque<Registered>> registered;
  std::deque<PendingExpiry> pending_expiry;
  uint64_t last_refresh = 0;
  uint64_t key_salt = 0;
  uint64_t rounds_run = 0;

  TapTotals tap;
  uint64_t tap_base = 0;         // tap.charged when the run's checks began
  uint64_t stats_bytes_base = 0;  // stats().bytes at the same moment

  Rng plan_rng;
  Rng serve_rng;
  Rng churn_rng;
  ZipfGenerator tenant_zipf{1, 0.0};
  ZipfGenerator histogram_zipf{1, 0.0};

  uint64_t RawKey(uint64_t metric, uint64_t index) const {
    return ((metric << 40) | index) ^ key_salt;
  }
};

/// The testbed every workload is built on; --seed draws the requests.
constexpr uint64_t kWorldSeed = 2006;

/// Builds the workload's world — overlay, initial items and publishers
/// come from the fixed world seed, so every run of a workload serves the
/// same testbed — and seeds the request stream (tenant draws, origins,
/// probe keys, churn picks, fault schedule) from `seed`.
std::string BuildWorld(World& w, uint64_t seed, bool traced) {
  const Params& p = w.p;
  OverlayConfig overlay;  // 64-bit IDs, MD4 node and item hashing
  if (p.kademlia) {
    w.net = std::make_unique<KademliaNetwork>(overlay);
  } else {
    w.net = std::make_unique<ChordNetwork>(overlay);
  }
  Rng node_rng(SubSeed(kWorldSeed, 1));
  std::unordered_set<uint64_t> ids;
  while (ids.size() < static_cast<size_t>(p.nodes)) ids.insert(node_rng.Next());
  std::vector<uint64_t> sorted_ids(ids.begin(), ids.end());
  std::sort(sorted_ids.begin(), sorted_ids.end());
  w.net->BulkAddNodes(std::move(sorted_ids));

  if (p.loopback) {
    auto lb = std::make_shared<LoopbackTransport>(w.net.get());
    w.loopback = lb.get();
    w.transport = lb;
  } else {
    w.transport = std::make_shared<SimTransport>(w.net.get());
  }
  if (traced) {
    w.timed = std::make_shared<TimedTransport>(w.transport,
                                               /*capture_limit=*/40000);
    w.transport = w.timed;
  }
  World* world = &w;
  w.transport->set_frame_tap([world](const FrameTapEvent& e) {
    TapTotals& t = world->tap;
    t.charged += e.charged_bytes;
    ++t.frames;
    t.wire_bytes += e.wire_bytes;
    t.overhead_bytes += FrameOverheadBytes(e.type);
    if (e.type == FrameType::kProbeOpen || e.type == FrameType::kMetricQuery ||
        e.type == FrameType::kVectorResponse) {
      ++t.count_frames;
    }
  });

  DhsConfig config;
  config.k = 24;
  config.m = p.m;
  config.estimator = p.estimator;
  config.lim = 5;
  config.replication = p.replication;
  config.frontier_cache = p.frontier_cache;
  config.ttl_ticks = p.ttl_ticks;
  // The world is populated through a plain simulator client, so every
  // transport starts from the same stored state at the same set-up cost.
  auto populator = DhsClient::Create(w.net.get(), config);
  if (!populator.ok()) return "client: " + populator.status().ToString();
  auto client = DhsClient::Create(w.net.get(), config, w.transport);
  if (!client.ok()) return "client: " + client.status().ToString();
  w.client = std::make_unique<DhsClient>(std::move(client.value()));
  auto serving = DhsServing::Create(w.client.get(), DhsServingConfig{});
  if (!serving.ok()) return "serving: " + serving.status().ToString();
  w.serving = std::make_unique<DhsServing>(std::move(serving.value()));
  if (p.ttl_ticks != kNoExpiry) {
    w.maintainer = std::make_unique<DhsMaintainer>(w.client.get());
  }
  w.hasher = MakeHasher(overlay.hasher);

  for (int t = 1; t <= p.tenants; ++t) {
    w.tenants.push_back(static_cast<uint64_t>(t));
  }
  for (int h = 0; h < p.histograms; ++h) {
    std::vector<uint64_t> buckets;
    for (int b = 0; b < p.buckets; ++b) {
      buckets.push_back(static_cast<uint64_t>(1000 + 100 * h + b));
    }
    w.sweeps.push_back(std::move(buckets));
  }
  w.tenant_zipf = ZipfGenerator(static_cast<uint64_t>(p.tenants),
                                p.zipf_theta);
  if (p.histograms > 0) {
    w.histogram_zipf = ZipfGenerator(static_cast<uint64_t>(p.histograms),
                                     p.zipf_theta);
  }
  w.key_salt = SubSeed(kWorldSeed, 2);
  w.plan_rng = Rng(SubSeed(seed, 3));
  w.serve_rng = Rng(SubSeed(seed, 4));
  w.churn_rng = Rng(SubSeed(seed, 5));

  Rng populate_rng(SubSeed(kWorldSeed, 6));
  while (w.publishers.size() < static_cast<size_t>(p.publishers)) {
    const uint64_t node = w.net->RandomNode(populate_rng);
    if (w.publisher_set.insert(node).second) w.publishers.push_back(node);
  }

  // Initial population: every metric gets items_per_metric distinct
  // items, spread evenly over the publishing nodes (every node when the
  // workload names no publishers), and each node bulk-inserts its share
  // in one batch (§3.2) — the placement the n >= m * N hit-probability
  // argument assumes. Registered with the maintainer at the publisher
  // when the workload keeps soft state alive.
  const std::vector<uint64_t> origins =
      w.publishers.empty() ? w.net->NodeIds() : w.publishers;
  std::vector<uint64_t> metrics = w.tenants;
  for (const auto& sweep : w.sweeps) {
    metrics.insert(metrics.end(), sweep.begin(), sweep.end());
  }
  const uint64_t n = static_cast<uint64_t>(p.items_per_metric);
  std::vector<uint64_t> hashes;
  for (uint64_t metric : metrics) {
    uint64_t& next = w.next_index[metric];
    for (size_t o = 0; o < origins.size(); ++o) {
      const uint64_t end = n * (o + 1) / origins.size();
      hashes.clear();
      while (next < end) {
        hashes.push_back(w.hasher->HashU64(w.RawKey(metric, next++)));
      }
      if (hashes.empty()) continue;
      auto stored =
          populator->InsertBatch(origins[o], metric, hashes, populate_rng);
      if (!stored.ok()) return "populate: " + stored.status().ToString();
      for (uint64_t h : hashes) w.reference.Add(metric, h);
      if (w.maintainer != nullptr) {
        w.maintainer->RegisterItems(origins[o], metric, hashes);
        std::deque<Registered>& fifo = w.registered[metric];
        for (uint64_t h : hashes) fifo.push_back(Registered{origins[o], h, 0});
      }
    }
    // The reference follows the placement rule config.h documents; the
    // client must place by the same rule or the checks mean nothing.
    for (uint64_t h : hashes) {
      const DhsPlacement placed = w.client->PlaceItem(h);
      if (placed.vector_id != w.reference.Vector(h) ||
          placed.rho != w.reference.RhoOf(h)) {
        return "client placement disagrees with the config.h rule";
      }
    }
  }

  if (p.drop_rate > 0.0) {
    FaultConfig faults;
    faults.drop_probability = p.drop_rate;
    faults.seed = SubSeed(seed, 7);
    Status s = w.net->SetFaultPlan(faults);
    if (!s.ok()) return "faults: " + s.ToString();
  }
  if (traced) {
    w.registry = std::make_unique<MetricsRegistry>();
    w.net->AttachMetrics(w.registry.get());
  }
  w.tap_base = w.tap.charged;
  w.stats_bytes_base = w.net->stats().bytes;
  return "";
}

// ---------------------------------------------------------------------------
// Rounds.

/// Per-layer sums over the traced rounds.
struct LayerTotals {
  double flush_s = 0.0;
  double transport_in_flush_s = 0.0;
  double serving_api_s = 0.0;  // SubmitCount / SubmitInsertBatch / Take*
  double hashing_s = 0.0;
  uint64_t hashed_items = 0;
  double refresh_s = 0.0;
  double transport_in_refresh_s = 0.0;
  double registry_s = 0.0;  // maintainer Register/Unregister calls
  double expiry_s = 0.0;
  double join_s = 0.0;
  double leave_s = 0.0;
  uint64_t joins = 0;
  uint64_t leaves = 0;
  uint64_t records_migrated = 0;
  uint64_t count_waves = 0;
  uint64_t count_wave_msgs = 0;
  uint64_t count_wave_nodes = 0;
  uint64_t insert_lookups = 0;
  uint64_t ticket_msgs = 0;
  uint64_t ticket_retries = 0;
  uint64_t degraded_waves = 0;
  uint64_t invalidations = 0;
  double user_cpu_s = 0.0;
  double sys_cpu_s = 0.0;
};

/// Sums over the timed rounds of one pass over the block.
struct Totals {
  double timed_s = 0.0;
  uint64_t rounds = 0;
  uint64_t count_tickets = 0;
  uint64_t insert_tickets = 0;
  uint64_t items = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Every timed round's time and every ticket's latency, in the order
  // they ran, so the replays of one block line up entry by entry.
  std::vector<double> round_s;
  std::vector<double> ticket_us;
  std::vector<bool> ticket_is_insert;
  uint64_t count_msgs = 0;  // one cost report per coalesced group
  uint64_t count_bytes = 0;
  uint64_t insert_msgs = 0;
  uint64_t insert_bytes = 0;
  uint64_t digest = 0xcbf29ce484222325ULL;  // answers and costs
};

void Fold(uint64_t* digest, uint64_t value) {
  *digest = SplitMix64(*digest ^ value);
}

struct Ticket {
  enum Kind { kSingle, kSweep, kInsert };
  Kind kind = kSingle;
  uint64_t origin = 0;
  uint64_t metric = 0;                // insert
  std::vector<uint64_t> set;          // count metric set
  std::vector<uint64_t> raw;          // insert raw keys
  std::vector<uint64_t> hashes;       // insert hashes
  uint64_t id = 0;
  Clock::time_point submitted;
  StatusOr<DhsClient::MultiCountResult> count = Status::Internal("untaken");
  StatusOr<DhsCostReport> insert = Status::Internal("untaken");
};

double CpuSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

double TransportBusy(const World& w) {
  return w.timed != nullptr ? w.timed->busy_s() : 0.0;
}

void Leave(World& w, LayerTotals* layers, Checker* checker) {
  uint64_t node = 0;
  do {
    node = w.net->RandomNode(w.churn_rng);
  } while (w.publisher_set.count(node) > 0);
  const uint64_t records = w.net->StoreAt(node)->NumRecords();
  const auto t0 = Clock::now();
  const Status s = w.net->RemoveNode(node);
  const auto t1 = Clock::now();
  if (!s.ok()) checker->Fail("graceful leave: " + s.ToString());
  if (layers != nullptr) {
    layers->leave_s += Seconds(t0, t1);
    ++layers->leaves;
    layers->records_migrated += records;
  }
}

void Join(World& w, LayerTotals* layers, Checker* checker) {
  uint64_t id = 0;
  do {
    id = w.churn_rng.Next();
  } while (w.net->Contains(id));
  const auto t0 = Clock::now();
  const Status s = w.net->AddNode(id);
  const auto t1 = Clock::now();
  if (!s.ok()) {
    checker->Fail("join: " + s.ToString());
    return;
  }
  if (layers != nullptr) {
    layers->join_s += Seconds(t0, t1);
    ++layers->joins;
    layers->records_migrated += w.net->StoreAt(id)->NumRecords();
  }
}

/// One closed-loop round: every client submits one ticket, one flush
/// serves them all, every client takes its result; then the world's
/// background work (registrations, clock tick, refresh, churn) runs.
/// `totals` is null for warm-up rounds, `layers` null when untraced.
void RunRound(World& w, Checker& checker, Totals* totals,
              LayerTotals* layers) {
  const Params& p = w.p;
  // Plan the round: which client does what, from the seed alone.
  std::vector<Ticket> tickets(static_cast<size_t>(p.clients));
  std::vector<Ticket::Kind> kinds(tickets.size(), Ticket::kSingle);
  for (int i = 0; i < p.inserts_per_round; ++i) kinds[i] = Ticket::kInsert;
  for (int i = 0; i < p.sweeps_per_round; ++i) {
    kinds[static_cast<size_t>(p.inserts_per_round + i)] = Ticket::kSweep;
  }
  for (size_t i = kinds.size(); i > 1; --i) {
    std::swap(kinds[i - 1], kinds[w.plan_rng.UniformU64(i)]);
  }
  std::unordered_set<uint64_t> invalidated;
  for (size_t i = 0; i < tickets.size(); ++i) {
    Ticket& t = tickets[i];
    t.kind = kinds[i];
    switch (t.kind) {
      case Ticket::kSingle:
        t.set = {w.tenants[w.tenant_zipf.Sample(w.plan_rng) - 1]};
        t.origin = w.net->RandomNode(w.plan_rng);
        break;
      case Ticket::kSweep:
        t.set = w.sweeps[w.histogram_zipf.Sample(w.plan_rng) - 1];
        t.origin = w.net->RandomNode(w.plan_rng);
        break;
      case Ticket::kInsert: {
        t.metric = w.tenants[w.tenant_zipf.Sample(w.plan_rng) - 1];
        t.origin = w.publishers.empty()
                       ? w.net->RandomNode(w.plan_rng)
                       : w.publishers[w.plan_rng.UniformU64(
                             w.publishers.size())];
        uint64_t& next = w.next_index[t.metric];
        for (int j = 0; j < p.items_per_insert; ++j) {
          t.raw.push_back(w.RawKey(t.metric, next++));
        }
        if (w.client->HasFrontier(t.metric)) invalidated.insert(t.metric);
        break;
      }
    }
  }

  rusage usage0{};
  if (layers != nullptr) getrusage(RUSAGE_SELF, &usage0);
  const uint64_t waves0 = w.serving->stats().count_waves;
  const uint64_t degraded0 = w.serving->stats().degraded_waves;
  const uint64_t fault_invalidations0 = w.serving->stats().invalidations;

  // ---- timed: submit, flush, take ----
  const auto round_start = Clock::now();
  for (Ticket& t : tickets) {
    t.submitted = Clock::now();
    if (t.kind == Ticket::kInsert) {
      t.hashes.resize(t.raw.size());
      for (size_t j = 0; j < t.raw.size(); ++j) {
        t.hashes[j] = w.hasher->HashU64(t.raw[j]);
      }
      if (layers != nullptr) {
        const auto hashed = Clock::now();
        layers->hashing_s += Seconds(t.submitted, hashed);
        layers->hashed_items += t.raw.size();
        t.id = w.serving->SubmitInsertBatch(t.origin, t.metric, t.hashes);
        layers->serving_api_s += Seconds(hashed, Clock::now());
      } else {
        t.id = w.serving->SubmitInsertBatch(t.origin, t.metric, t.hashes);
      }
    } else {
      t.id = w.serving->SubmitCount(t.origin, t.set);
      if (layers != nullptr) {
        layers->serving_api_s += Seconds(t.submitted, Clock::now());
      }
    }
  }
  const MessageStats stats0 = w.net->stats();
  const double busy0 = TransportBusy(w);
  const auto flush_start = Clock::now();
  const Status flushed = w.serving->Flush(w.serve_rng);
  const auto flush_end = Clock::now();
  const MessageStats stats1 = w.net->stats();
  const double busy1 = TransportBusy(w);
  if (!flushed.ok()) checker.Fail("flush: " + flushed.ToString());
  for (Ticket& t : tickets) {
    const auto take_start = Clock::now();
    if (t.kind == Ticket::kInsert) {
      t.insert = w.serving->TakeInsert(t.id);
    } else {
      t.count = w.serving->TakeCount(t.id);
    }
    const auto taken = Clock::now();
    if (layers != nullptr) layers->serving_api_s += Seconds(take_start, taken);
    if (totals != nullptr) {
      totals->ticket_us.push_back(
          std::chrono::duration<double, std::micro>(taken - t.submitted)
              .count());
      totals->ticket_is_insert.push_back(t.kind == Ticket::kInsert);
    }
  }

  // The replay log is the caller's to clear; a server keeps none.
  w.serving->ClearWaveLog();

  // ---- timed: the world's background work ----
  if (w.maintainer != nullptr) {
    const auto registry0 = Clock::now();
    const uint64_t now = w.net->now();
    for (const Ticket& t : tickets) {
      if (t.kind != Ticket::kInsert || !t.insert.ok()) continue;
      w.maintainer->RegisterItems(t.origin, t.metric, t.hashes);
      std::deque<Registered>& fifo = w.registered[t.metric];
      for (uint64_t h : t.hashes) fifo.push_back(Registered{t.origin, h, now});
      // As many of the metric's oldest items leave the registry; they
      // age out one TTL after their last write.
      for (size_t j = 0; j < t.hashes.size(); ++j) {
        const Registered old = fifo.front();
        fifo.pop_front();
        w.maintainer->UnregisterItem(old.node, t.metric, old.hash);
        w.pending_expiry.push_back(PendingExpiry{
            std::max(old.written_at, w.last_refresh) + p.ttl_ticks, t.metric,
            old.hash});
      }
    }
    const auto tick0 = Clock::now();
    if (layers != nullptr) layers->registry_s += Seconds(registry0, tick0);
    w.net->AdvanceClock(1);
    if (layers != nullptr) layers->expiry_s += Seconds(tick0, Clock::now());
  }
  ++w.rounds_run;
  const uint64_t phase = w.rounds_run % static_cast<uint64_t>(p.period_rounds);
  if (w.maintainer != nullptr && phase == 0) {
    const double refresh_busy0 = TransportBusy(w);
    const auto r0 = Clock::now();
    auto refreshed = w.maintainer->RefreshRound(w.serve_rng);
    const auto r1 = Clock::now();
    if (!refreshed.ok()) {
      checker.Fail("refresh: " + refreshed.status().ToString());
    }
    w.last_refresh = w.net->now();
    if (layers != nullptr) {
      layers->refresh_s += Seconds(r0, r1);
      layers->transport_in_refresh_s += TransportBusy(w) - refresh_busy0;
    }
  }
  if (p.churn && phase == static_cast<uint64_t>(p.period_rounds / 2)) {
    Leave(w, layers, &checker);
    Join(w, layers, &checker);
  }
  const auto round_end = Clock::now();

  if (layers != nullptr) {
    rusage usage1{};
    getrusage(RUSAGE_SELF, &usage1);
    layers->user_cpu_s +=
        CpuSeconds(usage1.ru_utime) - CpuSeconds(usage0.ru_utime);
    layers->sys_cpu_s +=
        CpuSeconds(usage1.ru_stime) - CpuSeconds(usage0.ru_stime);
    layers->flush_s += Seconds(flush_start, flush_end);
    layers->transport_in_flush_s += busy1 - busy0;
    layers->count_waves += w.serving->stats().count_waves - waves0;
    layers->degraded_waves += w.serving->stats().degraded_waves - degraded0;
    layers->invalidations += invalidated.size() +
                             w.serving->stats().invalidations -
                             fault_invalidations0;
  }

  // ---- untimed: checks and accounting ----
  // A flush serves identical metric sets with one wave, so a group of
  // tickets shares one cost report: charge each group once.
  std::map<std::vector<uint64_t>, const Ticket*> groups;
  uint64_t flush_msgs = 0;
  for (const Ticket& t : tickets) {
    if (t.kind == Ticket::kInsert) {
      if (!t.insert.ok()) continue;
      const DhsCostReport& c = t.insert.value();
      const uint64_t msgs = static_cast<uint64_t>(c.dht_lookups) +
                            static_cast<uint64_t>(c.direct_probes);
      flush_msgs += msgs;
      for (uint64_t h : t.hashes) w.reference.Add(t.metric, h);
      if (layers != nullptr) {
        layers->insert_lookups += static_cast<uint64_t>(c.dht_lookups);
        layers->ticket_msgs += msgs;
        layers->ticket_retries += static_cast<uint64_t>(c.retries);
      }
      if (totals != nullptr) {
        totals->insert_msgs += msgs;
        totals->insert_bytes += c.bytes;
        Fold(&totals->digest, msgs);
        Fold(&totals->digest, c.bytes);
      }
    } else if (t.count.ok()) {
      if (!groups.emplace(t.set, &t).second) continue;
      const DhsCostReport& c = t.count->cost;
      const uint64_t msgs = static_cast<uint64_t>(c.dht_lookups) +
                            static_cast<uint64_t>(c.direct_probes);
      flush_msgs += msgs;
      if (layers != nullptr) {
        layers->count_wave_msgs += msgs;
        layers->count_wave_nodes += static_cast<uint64_t>(c.nodes_visited);
        layers->ticket_msgs += msgs;
        layers->ticket_retries += static_cast<uint64_t>(c.retries);
      }
      if (totals != nullptr) {
        totals->count_msgs += msgs;
        totals->count_bytes += c.bytes;
        Fold(&totals->digest, msgs);
        Fold(&totals->digest, c.bytes);
      }
    }
  }
  checker.CheckMessages(stats1.messages - stats0.messages, flush_msgs);

  for (const Ticket& t : tickets) {
    if (t.kind == Ticket::kInsert) continue;
    if (!t.count.ok()) continue;
    const DhsClient::MultiCountResult& r = t.count.value();
    const bool degraded = r.gave_up || r.cost.failed_probes > 0;
    if (r.estimates.size() != t.set.size() ||
        r.observables.size() != t.set.size()) {
      checker.Fail("count answer has the wrong number of metrics");
      continue;
    }
    for (size_t j = 0; j < t.set.size(); ++j) {
      checker.CheckAnswer(t.set[j], r.observables[j], r.estimates[j],
                          r.gave_up, degraded);
      if (totals != nullptr) {
        Fold(&totals->digest, std::bit_cast<uint64_t>(r.estimates[j]));
      }
    }
  }

  while (!w.pending_expiry.empty() &&
         w.pending_expiry.front().expires_at <= w.net->now()) {
    const PendingExpiry& e = w.pending_expiry.front();
    if (!w.reference.Remove(e.metric, e.hash)) {
      checker.Fail("reference lost track of an expiring item");
    }
    w.pending_expiry.pop_front();
  }
  checker.CheckBytes(w.tap.charged - w.tap_base,
                     w.net->stats().bytes - w.stats_bytes_base);

  if (totals == nullptr) return;
  const double round_s = Seconds(round_start, round_end);
  totals->timed_s += round_s;
  totals->round_s.push_back(round_s);
  ++totals->rounds;
  for (const Ticket& t : tickets) {
    ++totals->attempted;
    const bool ok = t.kind == Ticket::kInsert ? t.insert.ok() : t.count.ok();
    if (!ok) ++totals->failed;
    if (t.kind == Ticket::kInsert) {
      ++totals->insert_tickets;
      if (ok) totals->items += t.hashes.size();
    } else {
      ++totals->count_tickets;
    }
  }
}

/// Builds a world and runs its untimed warm-up rounds.
std::string BuildAndWarm(World& w, Checker& checker, uint64_t seed,
                         bool traced) {
  const std::string error = BuildWorld(w, seed, traced);
  if (!error.empty()) return "setup: " + error;
  for (int r = 0; r < w.p.warmup_rounds; ++r) {
    RunRound(w, checker, nullptr, nullptr);
  }
  return "";
}

void FinishChecks(World& w, Checker& checker) {
  const Status audit = w.net->AuditFull();
  if (!audit.ok()) checker.Fail("network audit: " + audit.ToString());
  checker.Finish();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Read and write syscalls of this process so far (/proc/self/io).
uint64_t SyscallsSoFar() {
  std::ifstream io("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  uint64_t total = 0;
  while (io >> key >> value) {
    if (key == "syscr:" || key == "syscw:") total += value;
  }
  return total;
}

void AddInfo(RunResult& out, const Totals& totals, const Checker& checker,
             const World& w) {
  out.info.push_back({"rounds", static_cast<double>(totals.rounds), "count"});
  out.info.push_back({"count_samples",
                      static_cast<double>(totals.count_tickets), "count"});
  out.info.push_back({"insert_samples",
                      static_cast<double>(totals.insert_tickets), "count"});
  out.info.push_back({"answers_checked",
                      static_cast<double>(checker.answers()), "count"});
  out.info.push_back({"rel_err_rms", checker.RelErrRms(), "ratio"});
  out.info.push_back({"rel_err_bound", checker.ErrorBound(), "ratio"});
  out.info.push_back({"nodes_at_end", static_cast<double>(w.net->NumNodes()),
                      "count"});
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"count-hot-sim", "count-hot-loopback", "ingest-churn"};
}

StatusOr<Params> WorkloadParams(const std::string& name,
                                const std::string& size) {
  if (size != "full" && size != "tiny") {
    return Status::InvalidArgument("size must be full or tiny");
  }
  const bool tiny = size == "tiny";
  if (name == "count-hot-sim") return CountHot(false, tiny);
  if (name == "count-hot-loopback") return CountHot(true, tiny);
  if (name == "ingest-churn") return IngestChurn(tiny);
  return Status::NotFound("unknown workload " + name);
}

int ReplaysFor(const Params& params, double seconds) {
  return std::max(2, static_cast<int>(std::lround(seconds / params.replay_s)));
}

RunResult RunEndToEnd(const Params& params, uint64_t seed, int replays) {
  RunResult out;
  const uint64_t rounds = static_cast<uint64_t>(params.block_rounds);
  std::vector<double> setup_times;
  std::vector<double> replay_s;  // each replay's timed block
  Totals first;                  // the first replay, with its costs
  std::vector<double> best_round_s;
  std::vector<double> best_ticket_us;
  // One world and its checker alive at a time (peak_rss_mb).
  std::unique_ptr<World> world;
  std::unique_ptr<Checker> checker;
  for (int replay = 0; replay < replays; ++replay) {
    checker.reset();
    world.reset();
    world = std::make_unique<World>(params);
    const auto t0 = Clock::now();
    const std::string error = BuildWorld(*world, seed, /*traced=*/false);
    setup_times.push_back(Seconds(t0, Clock::now()));
    if (!error.empty()) {
      out.failure = "setup: " + error;
      return out;
    }
    checker = std::make_unique<Checker>(&world->reference);
    for (int r = 0; r < params.warmup_rounds; ++r) {
      RunRound(*world, *checker, nullptr, nullptr);
    }
    Totals totals;
    while (totals.rounds < rounds) {
      RunRound(*world, *checker, &totals, nullptr);
    }
    FinishChecks(*world, *checker);
    out.attempted += totals.attempted;
    out.failed += totals.failed;
    replay_s.push_back(totals.timed_s);
    if (replay == 0) {
      best_round_s = totals.round_s;
      best_ticket_us = totals.ticket_us;
      first = std::move(totals);
    } else {
      if (totals.digest != first.digest) {
        checker->Fail("replay " + std::to_string(replay) +
                      " gave other answers or costs than the first");
      }
      for (size_t i = 0; i < best_round_s.size(); ++i) {
        best_round_s[i] = std::min(best_round_s[i], totals.round_s[i]);
      }
      for (size_t i = 0; i < best_ticket_us.size(); ++i) {
        best_ticket_us[i] = std::min(best_ticket_us[i], totals.ticket_us[i]);
      }
    }
    if (!checker->ok()) break;
  }

  out.correct = checker->ok();
  out.failure = checker->failure();
  out.answer_digest = first.digest;
  std::vector<double> count_us;
  std::vector<double> insert_us;
  for (size_t i = 0; i < best_ticket_us.size(); ++i) {
    (first.ticket_is_insert[i] ? insert_us : count_us)
        .push_back(best_ticket_us[i]);
  }
  double block_s = 0.0;
  for (double s : best_round_s) block_s += s;
  out.timings = {
      {"counts_per_s", Ratio(static_cast<double>(first.count_tickets), block_s),
       "counts/s"},
      {"count_p50_us", Percentile(count_us, 0.50), "us"},
      {"count_p99_us", Percentile(count_us, 0.99), "us"},
      {"items_per_s", Ratio(static_cast<double>(first.items), block_s),
       "items/s"},
      {"insert_p50_us", Percentile(insert_us, 0.50), "us"},
      {"insert_p99_us", Percentile(insert_us, 0.99), "us"},
  };
  out.replay_block_s = Median(replay_s);
  out.metrics = {
      {"setup_s", Median(setup_times), "s"},
      {"msgs_per_count",
       Ratio(static_cast<double>(first.count_msgs),
             static_cast<double>(first.count_tickets)),
       "msgs"},
      {"bytes_per_count",
       Ratio(static_cast<double>(first.count_bytes),
             static_cast<double>(first.count_tickets)),
       "bytes"},
      {"msgs_per_item",
       Ratio(static_cast<double>(first.insert_msgs),
             static_cast<double>(first.items)),
       "msgs"},
      {"bytes_per_item",
       Ratio(static_cast<double>(first.insert_bytes),
             static_cast<double>(first.items)),
       "bytes"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  AddInfo(out, first, *checker, *world);
  out.info.push_back({"replays", static_cast<double>(replay_s.size()),
                      "count"});
  out.info.push_back({"block_s_best_rounds", block_s, "s"});
  out.info.push_back({"block_s_replay_min",
                      *std::min_element(replay_s.begin(), replay_s.end()),
                      "s"});
  out.info.push_back({"block_s_replay_median", out.replay_block_s, "s"});
  return out;
}

RunResult RunTraced(const Params& params, uint64_t seed) {
  RunResult out;
  const uint64_t rounds = static_cast<uint64_t>(params.block_rounds);

  // Untraced replays of the block: the served rates and latencies, and
  // the wall time tracing is judged against.
  const RunResult untraced = RunEndToEnd(params, seed, /*replays=*/3);
  if (!untraced.correct) {
    out.failure = "untraced replays: " + untraced.failure;
    return out;
  }
  const double untraced_wall = untraced.replay_block_s;

  // Traced pass: the same world, seed and rounds, every layer timed.
  World w(params);
  Checker checker(&w.reference);
  out.failure = BuildAndWarm(w, checker, seed, /*traced=*/true);
  if (!out.failure.empty()) return out;
  w.timed->StartCapture();
  const uint64_t calls0 = w.timed->calls();
  const double busy0 = w.timed->busy_s();
  const uint64_t routes0 = w.timed->routes_delivered();
  const uint64_t route_hops0 = w.timed->route_hops();
  const TapTotals tap0 = w.tap;
  const uint64_t socket0 = w.loopback != nullptr
                               ? w.loopback->socket_bytes_sent() +
                                     w.loopback->socket_bytes_received()
                               : 0;
  const MetricLabels cache_labels = {
      {"geometry", w.net->GeometryName()},
      {"estimator", DhsEstimatorName(params.estimator)}};
  Counter* hits = w.registry->GetCounter("dhs_frontier_cache_hits_total",
                                         cache_labels);
  Counter* misses = w.registry->GetCounter("dhs_frontier_cache_misses_total",
                                           cache_labels);
  const uint64_t hits0 = hits->value();
  const uint64_t misses0 = misses->value();
  const uint64_t syscalls0 = SyscallsSoFar();

  LayerTotals layers;
  Totals totals;
  while (totals.rounds < rounds) {
    RunRound(w, checker, &totals, &layers);
  }
  const uint64_t syscalls = SyscallsSoFar() - syscalls0;
  FinishChecks(w, checker);

  const double calls = static_cast<double>(w.timed->calls() - calls0);
  const double busy = w.timed->busy_s() - busy0;
  const double tickets = static_cast<double>(totals.attempted);
  const double count_tickets = static_cast<double>(totals.count_tickets);
  const double socket_bytes =
      w.loopback != nullptr
          ? static_cast<double>(w.loopback->socket_bytes_sent() +
                                w.loopback->socket_bytes_received() - socket0)
          : 0.0;
  const double frames = static_cast<double>(w.tap.frames - tap0.frames);
  const double wire_bytes =
      static_cast<double>(w.tap.wire_bytes - tap0.wire_bytes);
  const double cache_lookups =
      static_cast<double>(hits->value() - hits0 + misses->value() - misses0);

  // Store footprint at the end of the traced pass.
  double records = 0.0;
  for (uint64_t id : w.net->NodeIds()) {
    records += static_cast<double>(w.net->StoreAt(id)->NumRecords());
  }
  const double nodes = static_cast<double>(w.net->NumNodes());

  const bool correct = checker.ok();
  const double match_share =
      Ratio(static_cast<double>(checker.observables_matched()),
            static_cast<double>(checker.observables_checked()));
  const double rel_err_rms = checker.RelErrRms();

  // ---- replay of the captured frames (after every check) ----
  const std::vector<TimedTransport::Captured>& captured = w.timed->captured();
  std::vector<const std::string*> wire;
  for (const TimedTransport::Captured& c : captured) {
    wire.push_back(&c.frame);
    if (!c.reply.empty()) wire.push_back(&c.reply);
  }
  std::vector<ProbeOpenFrame> probe_opens;
  std::vector<MetricQueryFrame> queries;
  std::vector<VectorResponseFrame> responses;
  std::vector<PutFrame> puts;
  std::vector<AckFrame> acks;
  size_t decoded_frames = 0;
  const auto parse0 = Clock::now();
  for (const std::string* frame : wire) {
    auto view = ParseFrame(*frame);
    if (!view.ok()) continue;
    bool decoded = false;
    switch (view->type) {
      case FrameType::kProbeOpen:
        if (auto f = DecodeProbeOpen(*frame); f.ok()) {
          probe_opens.push_back(*f);
          decoded = true;
        }
        break;
      case FrameType::kMetricQuery:
        if (auto f = DecodeMetricQuery(*frame); f.ok()) {
          queries.push_back(*f);
          decoded = true;
        }
        break;
      case FrameType::kVectorResponse:
        if (auto f = DecodeVectorResponse(*frame); f.ok()) {
          responses.push_back(std::move(f.value()));
          decoded = true;
        }
        break;
      case FrameType::kPut:
        if (auto f = DecodePut(*frame); f.ok()) {
          puts.push_back(std::move(f.value()));
          decoded = true;
        }
        break;
      case FrameType::kAck:
        if (auto f = DecodeAck(*frame); f.ok()) {
          acks.push_back(*f);
          decoded = true;
        }
        break;
      default:
        break;
    }
    if (decoded) ++decoded_frames;
  }
  const auto parse1 = Clock::now();
  std::vector<std::string> encoded;
  encoded.reserve(decoded_frames);
  for (const auto& f : probe_opens) encoded.push_back(EncodeProbeOpen(f));
  for (const auto& f : queries) encoded.push_back(EncodeMetricQuery(f));
  for (const auto& f : responses) encoded.push_back(EncodeVectorResponse(f));
  for (const auto& f : puts) encoded.push_back(EncodePut(f));
  for (const auto& f : acks) encoded.push_back(EncodeAck(f));
  const auto encode1 = Clock::now();
  if (decoded_frames != wire.size()) {
    checker.Fail("replay: a captured frame did not decode");
  }
  uint64_t encoded_bytes = 0;
  uint64_t wire_total = 0;
  for (const std::string& e : encoded) encoded_bytes += e.size();
  for (const std::string* frame : wire) wire_total += frame->size();
  if (encoded_bytes != wire_total) {
    checker.Fail("replay: re-encoded frames differ in size from the wire");
  }

  uint64_t served_queries = 0;
  const auto query0 = Clock::now();
  for (const TimedTransport::Captured& c : captured) {
    if (c.op != TimedTransport::kQuery || !w.net->Contains(c.to)) continue;
    auto served = ServeFrame(*w.net, c.to, c.frame);
    if (served.ok()) ++served_queries;
  }
  const auto query1 = Clock::now();

  w.net->PauseFaults(true);
  uint64_t lookups = 0;
  uint64_t lookup_hops = 0;
  const auto lookup0 = Clock::now();
  for (const TimedTransport::Captured& c : captured) {
    if (c.op != TimedTransport::kRoute || !w.net->Contains(c.from)) continue;
    auto key = RoutedDstKey(c.frame);
    if (!key.ok()) continue;
    auto routed = w.net->Lookup(c.from, key.value());
    if (!routed.ok()) continue;
    ++lookups;
    lookup_hops += static_cast<uint64_t>(routed->hops);
  }
  const auto lookup1 = Clock::now();
  w.net->PauseFaults(false);

  const double client_self = layers.flush_s - layers.transport_in_flush_s;
  const double maintainer_self = layers.refresh_s -
                                 layers.transport_in_refresh_s +
                                 layers.registry_s;
  const double churn_s = layers.join_s + layers.leave_s;
  const double self_sum = client_self + busy + maintainer_self + churn_s +
                          layers.expiry_s + layers.hashing_s +
                          layers.serving_api_s;
  const double traced_wall = totals.timed_s;

  out.correct = correct && checker.ok();
  out.failure = checker.failure();
  out.attempted = totals.attempted;
  out.failed = totals.failed;
  for (const Metric& m : untraced.timings) {
    out.metrics.push_back({"e2e." + m.name, m.value, m.unit});
  }
  const std::vector<Metric> layer_metrics = {
      {"serving.flush_s", layers.flush_s, "s"},
      {"serving.count_waves_per_ticket",
       Ratio(static_cast<double>(layers.count_waves), count_tickets),
       "waves/ticket"},
      {"serving.invalidations", static_cast<double>(layers.invalidations),
       "count"},
      {"serving.degraded_waves", static_cast<double>(layers.degraded_waves),
       "count"},
      {"client.self_s", client_self, "s"},
      {"client.msgs_per_wave",
       Ratio(static_cast<double>(layers.count_wave_msgs),
             static_cast<double>(layers.count_waves)),
       "msgs"},
      {"client.frontier_hit_share",
       Ratio(static_cast<double>(hits->value() - hits0), cache_lookups),
       "ratio"},
      {"client.nodes_visited_per_wave",
       Ratio(static_cast<double>(layers.count_wave_nodes),
             static_cast<double>(layers.count_waves)),
       "nodes"},
      {"client.lookups_per_insert_batch",
       Ratio(static_cast<double>(layers.insert_lookups),
             static_cast<double>(totals.insert_tickets)),
       "lookups"},
      {"client.retries_per_msg",
       Ratio(static_cast<double>(layers.ticket_retries),
             static_cast<double>(layers.ticket_msgs)),
       "ratio"},
      {"client.observable_match_share", match_share, "ratio"},
      {"transport.calls", Ratio(calls, tickets), "calls/ticket"},
      {"transport.busy_s", busy, "s"},
      {"transport.ns_per_call", Ratio(busy * 1e9, calls), "ns"},
      {"transport.hops_per_route",
       Ratio(static_cast<double>(w.timed->route_hops() - route_hops0),
             static_cast<double>(w.timed->routes_delivered() - routes0)),
       "hops"},
      {"loopback.syscalls_per_call",
       Ratio(static_cast<double>(syscalls), calls), "syscalls"},
      {"loopback.socket_bytes_per_call", Ratio(socket_bytes, calls), "bytes"},
      {"process.user_cpu_s", layers.user_cpu_s, "s"},
      {"process.sys_cpu_s", layers.sys_cpu_s, "s"},
      {"wire.frames_per_count",
       Ratio(static_cast<double>(w.tap.count_frames - tap0.count_frames),
             count_tickets),
       "frames"},
      {"wire.bytes_per_frame", Ratio(wire_bytes, frames), "bytes"},
      {"wire.overhead_share",
       Ratio(static_cast<double>(w.tap.overhead_bytes - tap0.overhead_bytes),
             wire_bytes),
       "ratio"},
      {"wire.parse_ns_per_frame",
       Ratio(std::chrono::duration<double, std::nano>(parse1 - parse0).count(),
             static_cast<double>(wire.size())),
       "ns"},
      {"wire.encode_ns_per_frame",
       Ratio(
           std::chrono::duration<double, std::nano>(encode1 - parse1).count(),
           static_cast<double>(encoded.size())),
       "ns"},
      {"dht.lookup_ns",
       Ratio(
           std::chrono::duration<double, std::nano>(lookup1 - lookup0).count(),
           static_cast<double>(lookups)),
       "ns"},
      {"dht.hops_per_lookup",
       Ratio(static_cast<double>(lookup_hops), static_cast<double>(lookups)),
       "hops"},
      {"store.query_ns_per_frame",
       Ratio(std::chrono::duration<double, std::nano>(query1 - query0).count(),
             static_cast<double>(served_queries)),
       "ns"},
      {"store.records_per_node", Ratio(records, nodes), "records"},
      {"store.bytes_per_node",
       Ratio(static_cast<double>(w.net->TotalStorageBytes()), nodes), "bytes"},
      {"dht.join_ms",
       Ratio(layers.join_s * 1e3, static_cast<double>(layers.joins)), "ms"},
      {"dht.leave_ms",
       Ratio(layers.leave_s * 1e3, static_cast<double>(layers.leaves)), "ms"},
      {"dht.records_migrated",
       Ratio(static_cast<double>(layers.records_migrated),
             static_cast<double>(layers.joins + layers.leaves)),
       "records"},
      {"maintainer.refresh_s", layers.refresh_s, "s"},
      {"hashing.ns_per_item",
       Ratio(layers.hashing_s * 1e9, static_cast<double>(layers.hashed_items)),
       "ns"},
      {"sketch.rel_err_rms", rel_err_rms, "ratio"},
      {"self.serving_api_s", layers.serving_api_s, "s"},
      {"self.client_s", client_self, "s"},
      {"self.transport_s", busy, "s"},
      {"self.maintainer_s", maintainer_self, "s"},
      {"self.churn_s", churn_s, "s"},
      {"self.expiry_s", layers.expiry_s, "s"},
      {"self.hashing_s", layers.hashing_s, "s"},
      {"self.sum_s", self_sum, "s"},
      {"trace.traced_wall_s", traced_wall, "s"},
      {"trace.untraced_wall_s", untraced_wall, "s"},
      {"trace.unattributed_s", traced_wall - self_sum, "s"},
      {"trace.overhead_share", Ratio(traced_wall, untraced_wall) - 1.0,
       "ratio"},
  };
  out.metrics.insert(out.metrics.end(), layer_metrics.begin(),
                     layer_metrics.end());
  AddInfo(out, totals, checker, w);
  return out;
}

}  // namespace perf
}  // namespace dhs

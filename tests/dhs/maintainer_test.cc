#include "dhs/maintainer.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/stats.h"
#include "dht/chord.h"
#include "hashing/hasher.h"

namespace dhs {
namespace {

class MaintainerTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kTtl = 10;
  static constexpr uint64_t kMetric = 1;
  static constexpr uint64_t kItems = 30000;

  void SetUp() override {
    ChordConfig chord;
    chord.hasher = "mix";
    net_ = std::make_unique<ChordNetwork>(chord);
    Rng rng(1);
    for (int i = 0; i < 128; ++i) ASSERT_TRUE(net_->AddNode(rng.Next()).ok());

    DhsConfig config;
    config.k = 24;
    config.m = 32;
    config.ttl_ticks = kTtl;
    auto client = DhsClient::Create(net_.get(), config);
    ASSERT_TRUE(client.ok());
    client_ = std::make_unique<DhsClient>(std::move(client.value()));
    maintainer_ = std::make_unique<DhsMaintainer>(client_.get());

    // Spread items over nodes and register them with the maintainer.
    Rng item_rng(2);
    MixHasher hasher(3);
    const auto nodes = net_->NodeIds();
    for (uint64_t i = 0; i < kItems; ++i) {
      const uint64_t node = nodes[item_rng.UniformU64(nodes.size())];
      maintainer_->RegisterItem(node, kMetric, hasher.HashU64(i));
    }
  }

  // Registry structure, DHS placement and network bookkeeping must all
  // survive whatever churn/refresh sequence the test ran.
  void TearDown() override {
    const Status audit = maintainer_->AuditFull();
    EXPECT_TRUE(audit.ok()) << audit.ToString();
    const Status net_audit = net_->AuditFull();
    EXPECT_TRUE(net_audit.ok()) << net_audit.ToString();
  }

  double CountNow(uint64_t seed) {
    Rng rng(seed);
    auto result = client_->Count(net_->RandomNode(rng), kMetric, rng);
    EXPECT_TRUE(result.ok());
    return result.ok() ? result->estimate : -1.0;
  }

  std::unique_ptr<ChordNetwork> net_;
  std::unique_ptr<DhsClient> client_;
  std::unique_ptr<DhsMaintainer> maintainer_;
};

TEST_F(MaintainerTest, RegistrationsTracked) {
  EXPECT_EQ(maintainer_->NumRegistrations(), kItems);
}

TEST_F(MaintainerTest, RefreshKeepsStateAliveIndefinitely) {
  Rng rng(4);
  ASSERT_TRUE(maintainer_->RefreshRound(rng).ok());
  // Five TTL periods, refreshing every kTtl - 1 ticks.
  for (int period = 0; period < 5; ++period) {
    net_->AdvanceClock(kTtl - 1);
    ASSERT_TRUE(maintainer_->RefreshRound(rng).ok());
  }
  EXPECT_LT(RelativeError(CountNow(5), static_cast<double>(kItems)), 0.5);
}

TEST_F(MaintainerTest, WithoutRefreshStateAgesOut) {
  Rng rng(6);
  ASSERT_TRUE(maintainer_->RefreshRound(rng).ok());
  net_->AdvanceClock(kTtl);
  EXPECT_EQ(CountNow(7), 0.0);
}

TEST_F(MaintainerTest, UnregisteredItemsFadeAfterTtl) {
  Rng rng(8);
  ASSERT_TRUE(maintainer_->RefreshRound(rng).ok());
  // Every node drops its registrations for half the items: re-register
  // from scratch with only even items.
  MixHasher hasher(3);
  for (uint64_t node : net_->NodeIds()) maintainer_->DropNode(node);
  const auto nodes = net_->NodeIds();
  Rng item_rng(2);
  for (uint64_t i = 0; i < kItems; ++i) {
    const uint64_t node = nodes[item_rng.UniformU64(nodes.size())];
    if (i % 2 == 0) {
      maintainer_->RegisterItem(node, kMetric, hasher.HashU64(i));
    }
  }
  EXPECT_EQ(maintainer_->NumRegistrations(), kItems / 2);
  // One TTL period with refreshes: only the kept half survives.
  net_->AdvanceClock(kTtl - 1);
  ASSERT_TRUE(maintainer_->RefreshRound(rng).ok());
  net_->AdvanceClock(kTtl - 1);
  ASSERT_TRUE(maintainer_->RefreshRound(rng).ok());
  net_->AdvanceClock(2);  // pre-drop tuples (age kTtl+...) are gone now
  const double estimate = CountNow(9);
  EXPECT_LT(RelativeError(estimate, kItems / 2.0), 0.5);
}

TEST_F(MaintainerTest, SurvivesNodeDepartures) {
  Rng rng(10);
  ASSERT_TRUE(maintainer_->RefreshRound(rng).ok());
  // A quarter of the nodes fail; their registry entries are dropped (the
  // documents they held are gone for real).
  auto ids = net_->NodeIds();
  for (size_t i = 0; i < ids.size(); i += 4) {
    ASSERT_TRUE(net_->FailNode(ids[i]).ok());
    maintainer_->DropNode(ids[i]);
  }
  // Refresh rounds keep working for the surviving nodes.
  net_->AdvanceClock(kTtl - 1);
  auto rounds = maintainer_->RefreshRound(rng);
  ASSERT_TRUE(rounds.ok());
  EXPECT_GT(*rounds, 0u);
  net_->AdvanceClock(kTtl - 1);
  ASSERT_TRUE(maintainer_->RefreshRound(rng).ok());
  // The count now reflects only surviving items (~3/4 of the original).
  net_->AdvanceClock(2);
  const double estimate = CountNow(11);
  EXPECT_LT(estimate, 1.1 * kItems);
  EXPECT_GT(estimate, 0.3 * kItems);
}

TEST_F(MaintainerTest, UnregisterSingleItem) {
  maintainer_->UnregisterItem(12345, kMetric, 999);  // unknown: no-op
  const uint64_t node = net_->NodeIds()[0];
  maintainer_->RegisterItem(node, 7, 42);
  EXPECT_EQ(maintainer_->NumRegistrations(), kItems + 1);
  maintainer_->UnregisterItem(node, 7, 42);
  EXPECT_EQ(maintainer_->NumRegistrations(), kItems);
}

// The registry's documented shape with ordered item sets: the reference
// the flat layout is checked against. Its outer maps see the same insert
// and erase history as the maintainer's, so they iterate in the same
// order.
using RegistryModel =
    std::unordered_map<uint64_t, std::map<uint64_t, std::set<uint64_t>>>;

/// Applies one seeded stream of random Register / RegisterItems (with
/// duplicates) / Unregister / DropNode operations to a maintainer and to
/// a RegistryModel alike.
class RegistryOps {
 public:
  RegistryOps(DhsMaintainer* maintainer, std::vector<uint64_t> nodes,
              uint64_t seed)
      : maintainer_(maintainer), nodes_(std::move(nodes)), rng_(seed) {
    nodes_.push_back(12345);  // not in the overlay: refresh skips it
    for (int i = 0; i < 96; ++i) hashes_.push_back(rng_.Next());
  }

  /// One random operation; returns its name for failure messages.
  std::string Step() {
    const uint64_t node = nodes_[rng_.UniformU64(nodes_.size())];
    const uint64_t metric = 1 + rng_.UniformU64(4);
    switch (rng_.UniformU64(10)) {
      case 0:
      case 1: {
        const uint64_t hash = RandomHash();
        maintainer_->RegisterItem(node, metric, hash);
        model_[node][metric].insert(hash);
        return "RegisterItem";
      }
      case 2:
      case 3:
      case 4: {
        std::vector<uint64_t> batch(1 + rng_.UniformU64(40));
        for (uint64_t& hash : batch) hash = RandomHash();
        maintainer_->RegisterItems(node, metric, batch);
        model_[node][metric].insert(batch.begin(), batch.end());
        return "RegisterItems";
      }
      case 9:
        if (rng_.UniformU64(4) == 0) {
          maintainer_->DropNode(node);
          model_.erase(node);
          return "DropNode";
        }
        [[fallthrough]];
      default: {
        const uint64_t hash = RandomHash();
        maintainer_->UnregisterItem(node, metric, hash);
        auto node_it = model_.find(node);
        if (node_it == model_.end()) return "UnregisterItem";
        auto metric_it = node_it->second.find(metric);
        if (metric_it == node_it->second.end()) return "UnregisterItem";
        metric_it->second.erase(hash);
        if (metric_it->second.empty()) node_it->second.erase(metric_it);
        if (node_it->second.empty()) model_.erase(node_it);
        return "UnregisterItem";
      }
    }
  }

  const RegistryModel& model() const { return model_; }

  size_t ModelRegistrations() const {
    size_t total = 0;
    for (const auto& [node, metrics] : model_) {
      for (const auto& [metric, items] : metrics) total += items.size();
    }
    return total;
  }

 private:
  uint64_t RandomHash() { return hashes_[rng_.UniformU64(hashes_.size())]; }

  DhsMaintainer* maintainer_;
  std::vector<uint64_t> nodes_;
  std::vector<uint64_t> hashes_;
  Rng rng_;
  RegistryModel model_;
};

TEST_F(MaintainerTest, RandomOpsMatchNaiveRegistry) {
  std::vector<uint64_t> nodes = net_->NodeIds();
  nodes.resize(6);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    DhsMaintainer maintainer(client_.get());
    RegistryOps ops(&maintainer, nodes, seed);
    for (int op = 0; op < 1500; ++op) {
      const std::string name = ops.Step();
      ASSERT_EQ(maintainer.NumRegistrations(), ops.ModelRegistrations())
          << "seed " << seed << " op " << op << " (" << name << ")";
      const Status audit = maintainer.AuditFull();
      ASSERT_TRUE(audit.ok()) << "seed " << seed << " op " << op << " ("
                              << name << "): " << audit.ToString();
    }
  }
}

/// One DHS world: replication 2, finite TTL, and a seeded plan dropping
/// 1% of messages.
struct TwinWorld {
  TwinWorld() {
    ChordConfig chord;
    chord.hasher = "mix";
    net = std::make_unique<ChordNetwork>(chord);
    Rng rng(21);
    for (int i = 0; i < 64; ++i) EXPECT_TRUE(net->AddNode(rng.Next()).ok());
    FaultConfig faults;
    faults.drop_probability = 0.01;
    faults.seed = 22;
    EXPECT_TRUE(net->SetFaultPlan(faults).ok());
    DhsConfig config;
    config.k = 24;
    config.m = 16;
    config.replication = 2;
    config.ttl_ticks = 8;
    auto created = DhsClient::Create(net.get(), config);
    EXPECT_TRUE(created.ok());
    client = std::make_unique<DhsClient>(std::move(created.value()));
  }

  /// Every live record of every node, in node then key order.
  std::vector<std::string> Records() const {
    std::vector<std::string> out;
    for (uint64_t id : net->NodeIds()) {
      net->StoreAt(id)->ForEach(
          net->now(), [&](const StoreKey& key, const StoreRecord& rec) {
            out.push_back(std::to_string(id) + " " + key.ToBytes() + " " +
                          std::to_string(rec.dht_key) + " " +
                          std::to_string(rec.expires_at));
          });
    }
    return out;
  }

  std::unique_ptr<ChordNetwork> net;
  std::unique_ptr<DhsClient> client;
};

// What a refresh round must do, replayed from the model: every (node,
// metric) batch in the model's iteration order, through InsertBatch.
StatusOr<size_t> ReplayRefresh(const RegistryModel& model, DhsClient& client,
                               Rng& rng) {
  size_t rounds = 0;
  for (const auto& [node, metrics] : model) {
    for (const auto& [metric, items] : metrics) {
      const std::vector<uint64_t> batch(items.begin(), items.end());
      auto refreshed = client.InsertBatch(node, metric, batch, rng);
      if (!refreshed.ok()) {
        if (refreshed.status().IsInvalidArgument()) continue;
        return refreshed.status();
      }
      ++rounds;
    }
  }
  return rounds;
}

// Pins the refresh order: under drops, which messages a seeded fault plan
// hits depends on the order batches go out in, so a refresh round must
// produce exactly the messages, bytes and stored tuples of the model
// replayed batch by batch.
TEST(MaintainerTwinWorldTest, RefreshMatchesModelReplayUnderDrops) {
  TwinWorld refreshed;
  TwinWorld replayed;
  DhsMaintainer maintainer(refreshed.client.get());
  std::vector<uint64_t> nodes = refreshed.net->NodeIds();
  nodes.resize(24);
  RegistryOps ops(&maintainer, nodes, 23);
  Rng rng_refreshed(24);
  Rng rng_replayed(24);
  for (int round = 0; round < 8; ++round) {
    for (int op = 0; op < (round == 0 ? 600 : 60); ++op) ops.Step();
    ASSERT_EQ(maintainer.NumRegistrations(), ops.ModelRegistrations());
    auto a = maintainer.RefreshRound(rng_refreshed);
    auto b = ReplayRefresh(ops.model(), *replayed.client, rng_replayed);
    ASSERT_EQ(a.ok(), b.ok()) << "round " << round;
    if (a.ok()) {
      EXPECT_EQ(*a, *b) << "round " << round;
    } else {
      EXPECT_EQ(a.status().ToString(), b.status().ToString());
    }
    const MessageStats& sa = refreshed.net->stats();
    const MessageStats& sb = replayed.net->stats();
    EXPECT_EQ(sa.messages, sb.messages) << "round " << round;
    EXPECT_EQ(sa.hops, sb.hops) << "round " << round;
    EXPECT_EQ(sa.bytes, sb.bytes) << "round " << round;
    EXPECT_EQ(refreshed.net->fault_plan().stats().drops,
              replayed.net->fault_plan().stats().drops)
        << "round " << round;
    ASSERT_TRUE(refreshed.Records() == replayed.Records())
        << "round " << round;
    refreshed.net->AdvanceClock(3);
    replayed.net->AdvanceClock(3);
  }
  EXPECT_GT(refreshed.net->fault_plan().stats().drops, 0u);  // drops hit
  const Status audit = maintainer.AuditFull();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  EXPECT_TRUE(refreshed.net->AuditFull().ok());
  EXPECT_TRUE(replayed.net->AuditFull().ok());
}

// Resident-size guard for the registry, in ingest-churn's shape: 8
// metrics of 50k items spread over 64 publishers in one batch each, then
// a FIFO churn of 64-item insert batches from 32 client nodes, each
// replacing as many of the metric's oldest items. About 400k
// registrations must cost at most 16 heap bytes each (a hash set spent
// about 44).
TEST(MaintainerHeapTest, RegistrationsStaySmallOnTheHeap) {
#if defined(__GLIBC__) && defined(__GLIBC_PREREQ)
#if __GLIBC_PREREQ(2, 33)
  const auto heap_bytes = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;  // arena + mmapped chunks
  };
  // A heap that mallinfo2 cannot see (a sanitizer's allocator) makes the
  // delta meaningless.
  const size_t probe_before = heap_bytes();
  auto* probe = new std::vector<char>(1 << 20);
  const bool visible = heap_bytes() >= probe_before + (1 << 20);
  delete probe;
  if (!visible) GTEST_SKIP() << "mallinfo2 does not see this heap";

  constexpr int kMetrics = 8;
  constexpr int kPublishers = 64;
  constexpr int kClients = 32;
  constexpr size_t kItemsPerMetric = 50000;
  constexpr size_t kBatch = 64;
  constexpr int kChurnBatches = 4000;
  struct Held {
    uint64_t node;
    uint64_t hash;
  };
  // Each metric's items in registration order, as a ring: a churn batch
  // unregisters the oldest kBatch and registers new ones in their slots.
  // Allocated up front, so the heap delta below is the registry's alone.
  std::vector<std::vector<Held>> rings(kMetrics,
                                       std::vector<Held>(kItemsPerMetric));
  std::vector<size_t> oldest(kMetrics, 0);
  std::vector<uint64_t> batch;
  batch.reserve(kItemsPerMetric);
  Rng rng(25);
  // Registration calls never touch the client.
  auto* maintainer = new DhsMaintainer(nullptr);
  const size_t before = heap_bytes();
  for (int metric = 0; metric < kMetrics; ++metric) {
    for (int p = 0; p < kPublishers; ++p) {
      batch.clear();
      for (size_t i = kItemsPerMetric * p / kPublishers;
           i < kItemsPerMetric * (p + 1) / kPublishers; ++i) {
        rings[metric][i] = Held{static_cast<uint64_t>(p), rng.Next()};
        batch.push_back(rings[metric][i].hash);
      }
      maintainer->RegisterItems(p, metric, batch);
    }
  }
  for (int t = 0; t < kChurnBatches; ++t) {
    const uint64_t node = kPublishers + rng.UniformU64(kClients);
    const uint64_t metric = rng.UniformU64(kMetrics);
    batch.clear();
    for (size_t i = 0; i < kBatch; ++i) {
      Held& slot = rings[metric][(oldest[metric] + i) % kItemsPerMetric];
      maintainer->UnregisterItem(slot.node, metric, slot.hash);
      slot = Held{node, rng.Next()};
      batch.push_back(slot.hash);
    }
    oldest[metric] = (oldest[metric] + kBatch) % kItemsPerMetric;
    maintainer->RegisterItems(node, metric, batch);
  }
  const size_t after = heap_bytes();
  const size_t registrations = maintainer->NumRegistrations();
  ASSERT_EQ(registrations, kMetrics * kItemsPerMetric);
  const double per_registration = static_cast<double>(after - before) /
                                  static_cast<double>(registrations);
  EXPECT_LE(per_registration, 16.0);
  RecordProperty("heap_bytes_per_registration",
                 std::to_string(per_registration));
  delete maintainer;
#else
  GTEST_SKIP() << "mallinfo2 needs glibc 2.33";
#endif
#else
  GTEST_SKIP() << "mallinfo2 needs glibc";
#endif
}

}  // namespace
}  // namespace dhs

#include "dht/kademlia.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/stats.h"
#include "dhs/client.h"
#include "hashing/hasher.h"

namespace dhs {
namespace {

OverlayConfig FastConfig() {
  OverlayConfig config;
  config.hasher = "mix";
  return config;
}

uint64_t BruteForceXorClosest(const std::vector<uint64_t>& nodes,
                              uint64_t key) {
  uint64_t best = nodes.front();
  for (uint64_t node : nodes) {
    if ((node ^ key) < (best ^ key)) best = node;
  }
  return best;
}

class KademliaTest : public ::testing::Test {
 protected:
  void Build(int n, uint64_t seed = 7) {
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(net_.AddNode(rng.Next()).ok());
    }
  }

  // The bucket caches filled during the test must match a brute-force
  // recomputation, and the store/ring bookkeeping must balance.
  void TearDown() override {
    const Status audit = net_.AuditFull();
    EXPECT_TRUE(audit.ok()) << audit.ToString();
  }

  KademliaNetwork net_{FastConfig()};
};

TEST_F(KademliaTest, GeometryName) {
  EXPECT_STREQ(net_.GeometryName(), "kademlia");
}

TEST_F(KademliaTest, ResponsibleNodeIsXorClosest) {
  Build(200);
  const auto nodes = net_.NodeIds();
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t key = rng.Next();
    auto responsible = net_.ResponsibleNode(key);
    ASSERT_TRUE(responsible.ok());
    EXPECT_EQ(responsible.value(), BruteForceXorClosest(nodes, key)) << key;
  }
}

TEST_F(KademliaTest, ResponsibleNodeExactKeyMatch) {
  Build(64);
  for (uint64_t node : net_.NodeIds()) {
    EXPECT_EQ(net_.ResponsibleNode(node).value(), node);
  }
}

TEST_F(KademliaTest, EmptyNetworkFails) {
  EXPECT_TRUE(net_.ResponsibleNode(1).status().IsFailedPrecondition());
}

TEST_F(KademliaTest, SingleNodeOwnsEverything) {
  ASSERT_TRUE(net_.AddNode(42).ok());
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(net_.ResponsibleNode(rng.Next()).value(), 42u);
  }
}

TEST_F(KademliaTest, LookupReachesXorClosest) {
  Build(256);
  const auto nodes = net_.NodeIds();
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const uint64_t key = rng.Next();
    auto result = net_.Lookup(net_.RandomNode(rng), key);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->node, BruteForceXorClosest(nodes, key));
  }
}

TEST_F(KademliaTest, LookupHopsAreLogarithmic) {
  Build(1024);
  Rng rng(4);
  StreamingStats hops;
  for (int i = 0; i < 2000; ++i) {
    auto result = net_.Lookup(net_.RandomNode(rng), rng.Next());
    ASSERT_TRUE(result.ok());
    hops.Add(result->hops);
  }
  // Each hop fixes at least one prefix bit; expected ~log2(N)/2 with the
  // idealized buckets.
  EXPECT_LE(hops.mean(), std::log2(1024.0) + 1);
  EXPECT_GE(hops.mean(), 2.0);
}

TEST_F(KademliaTest, PutAndGetRoundTrip) {
  Build(128);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const uint64_t key = rng.Next();
    const std::string app_key = "k" + std::to_string(i);
    ASSERT_TRUE(
        net_.Put(net_.RandomNode(rng), key, app_key, "v", kNoExpiry).ok());
    auto value = net_.GetValue(net_.RandomNode(rng), key, app_key);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(value.value(), "v");
  }
}

TEST_F(KademliaTest, JoinMigratesOwnership) {
  Build(64);
  Rng rng(6);
  std::vector<std::pair<uint64_t, std::string>> stored;
  for (int i = 0; i < 200; ++i) {
    const uint64_t key = rng.Next();
    const std::string app_key = "k" + std::to_string(i);
    ASSERT_TRUE(
        net_.Put(net_.RandomNode(rng), key, app_key, "v", kNoExpiry).ok());
    stored.emplace_back(key, app_key);
  }
  // New joiners must receive the records they are now closest to.
  for (int j = 0; j < 32; ++j) {
    ASSERT_TRUE(net_.AddNode(rng.Next()).ok());
  }
  for (const auto& [key, app_key] : stored) {
    auto value = net_.GetValue(net_.RandomNode(rng), key, app_key);
    ASSERT_TRUE(value.ok()) << app_key;
  }
}

TEST_F(KademliaTest, GracefulLeavePreservesData) {
  Build(64);
  Rng rng(7);
  std::vector<std::pair<uint64_t, std::string>> stored;
  for (int i = 0; i < 200; ++i) {
    const uint64_t key = rng.Next();
    const std::string app_key = "k" + std::to_string(i);
    ASSERT_TRUE(
        net_.Put(net_.RandomNode(rng), key, app_key, "v", kNoExpiry).ok());
    stored.emplace_back(key, app_key);
  }
  auto ids = net_.NodeIds();
  for (size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_TRUE(net_.RemoveNode(ids[i]).ok());
  }
  for (const auto& [key, app_key] : stored) {
    EXPECT_TRUE(net_.GetValue(net_.RandomNode(rng), key, app_key).ok())
        << app_key;
  }
}

TEST_F(KademliaTest, ProbeCandidatesStayRelevantForEmptyBlocks) {
  Build(64);
  // A sub-node interval: candidates must come from the smallest
  // enclosing non-empty block, ordered by XOR distance to the probe key.
  IdInterval interval{uint64_t{1} << 20, uint64_t{1} << 20};
  const uint64_t probe_key = interval.lo + 12345;
  auto responsible = net_.ResponsibleNode(probe_key);
  ASSERT_TRUE(responsible.ok());
  const auto candidates =
      net_.ProbeCandidates(interval, probe_key, responsible.value(), 5);
  EXPECT_LE(candidates.size(), 5u);
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_LE(candidates[i - 1] ^ probe_key, candidates[i] ^ probe_key);
  }
  for (uint64_t candidate : candidates) {
    EXPECT_NE(candidate, responsible.value());
  }
}

// The headline: DHS runs unchanged over the XOR geometry.
TEST_F(KademliaTest, ReplicaCandidatesShareProbeOrdering) {
  // Replica placement and the counting walk must rank holders the same
  // way, or replicas land where no walk looks (the bug this pins): with
  // identical arguments the two candidate lists are identical.
  Build(128);
  Rng rng(23);
  for (int trial = 0; trial < 32; ++trial) {
    const int size_log = 48 + static_cast<int>(rng.UniformU64(16));
    IdInterval interval{uint64_t{1} << size_log, uint64_t{1} << size_log};
    const uint64_t key = interval.lo + rng.UniformU64(interval.size);
    auto primary = net_.ResponsibleNode(key);
    ASSERT_TRUE(primary.ok());
    EXPECT_EQ(net_.ReplicaCandidates(interval, key, primary.value(), 6),
              net_.ProbeCandidates(interval, key, primary.value(), 6))
        << "trial " << trial;
  }
}

class DhsOverKademliaTest
    : public ::testing::TestWithParam<DhsEstimator> {};

TEST_P(DhsOverKademliaTest, EndToEndCounting) {
  KademliaNetwork net(FastConfig());
  Rng rng(8);
  for (int i = 0; i < 256; ++i) ASSERT_TRUE(net.AddNode(rng.Next()).ok());

  DhsConfig config;
  config.k = 24;
  config.m = 64;
  config.estimator = GetParam();
  auto client_or = DhsClient::Create(&net, config);
  ASSERT_TRUE(client_or.ok());
  DhsClient client = std::move(client_or.value());

  constexpr uint64_t kN = 50000;
  MixHasher hasher(9);
  std::vector<uint64_t> batch;
  for (uint64_t i = 0; i < kN; ++i) {
    batch.push_back(hasher.HashU64(i));
    if (batch.size() == 250) {
      ASSERT_TRUE(client.InsertBatch(net.RandomNode(rng), 1, batch, rng).ok());
      batch.clear();
    }
  }
  if (!batch.empty()) {
    ASSERT_TRUE(client.InsertBatch(net.RandomNode(rng), 1, batch, rng).ok());
  }

  StreamingStats errors;
  for (int t = 0; t < 6; ++t) {
    auto result = client.Count(net.RandomNode(rng), 1, rng);
    ASSERT_TRUE(result.ok());
    errors.Add(RelativeError(result->estimate, static_cast<double>(kN)));
  }
  EXPECT_LT(errors.mean(), 0.45) << DhsEstimatorName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllEstimators, DhsOverKademliaTest,
                         ::testing::Values(DhsEstimator::kSuperLogLog,
                                           DhsEstimator::kPcsa,
                                           DhsEstimator::kHyperLogLog));

// Kademlia with the generic join rule (rescan every record, move those
// the joiner is now responsible for): the reference the prefiltered
// override must reproduce exactly.
class GenericJoinKademlia : public KademliaNetwork {
 public:
  using KademliaNetwork::KademliaNetwork;

 protected:
  void MigrateOnJoin(uint64_t new_node_id) override {
    DhtNetwork::MigrateOnJoin(new_node_id);
  }
};

// Every record of every store, in node then key order.
std::string DumpStores(const DhtNetwork& net) {
  std::string dump;
  for (uint64_t id : net.NodeIds()) {
    dump += "node " + std::to_string(id) + "\n";
    net.StoreAt(id)->ForEach(
        net.now(), [&](const StoreKey& key, const StoreRecord& rec) {
          dump += key.ToBytes() + " " + std::to_string(rec.dht_key) + " " +
                  std::to_string(rec.expires_at) + " " + rec.value + "\n";
        });
  }
  return dump;
}

TEST(KademliaJoinTest, PrefilteredJoinMovesExactlyTheGenericSet) {
  KademliaNetwork fast(FastConfig());
  GenericJoinKademlia generic(FastConfig());
  DhtNetwork* const worlds[] = {&fast, &generic};
  Rng ids(31);
  for (int i = 0; i < 96; ++i) {
    const uint64_t id = ids.Next();
    for (DhtNetwork* net : worlds) ASSERT_TRUE(net->AddNode(id).ok());
  }
  FaultConfig faults;
  faults.drop_probability = 0.02;
  faults.timeout_probability = 0.01;
  faults.crash_probability = 0.001;
  faults.seed = 5;
  DhsConfig config;
  config.m = 16;
  config.estimator = DhsEstimator::kHyperLogLog;
  config.replication = 2;
  config.ttl_ticks = 24;
  std::vector<DhsClient> clients;
  for (DhtNetwork* net : worlds) {
    ASSERT_TRUE(net->SetFaultPlan(faults).ok());
    auto client = DhsClient::Create(net, config);
    ASSERT_TRUE(client.ok());
    clients.push_back(std::move(client.value()));
  }

  MixHasher items(17);
  uint64_t next_item = 0;
  int joins = 0;
  for (int round = 0; round < 24; ++round) {
    std::vector<uint64_t> batch;
    for (int i = 0; i < 400; ++i) batch.push_back(items.HashU64(next_item++));
    const uint64_t joiner = ids.Next();
    for (size_t w = 0; w < 2; ++w) {
      DhtNetwork& net = *worlds[w];
      Rng rng(1000 + static_cast<uint64_t>(round));
      (void)clients[w].InsertBatch(net.RandomNode(rng),
                                   static_cast<uint64_t>(round % 3), batch,
                                   rng);
      if (net.NumNodes() > 2) {
        ASSERT_TRUE(net.RemoveNode(net.RandomNode(rng)).ok());
      }
      ASSERT_TRUE(net.AddNode(joiner).ok());
      net.AdvanceClock(2);
    }
    ++joins;
    ASSERT_EQ(fast.NodeIds(), generic.NodeIds()) << "round " << round;
    ASSERT_EQ(DumpStores(fast), DumpStores(generic)) << "round " << round;
    const Status audit = fast.AuditFull();
    ASSERT_TRUE(audit.ok()) << audit.ToString();
  }
  EXPECT_EQ(joins, 24);
  size_t records = 0;
  for (uint64_t id : fast.NodeIds()) records += fast.StoreAt(id)->NumRecords();
  EXPECT_GT(records, 0u);  // the joins had records to move
}

}  // namespace
}  // namespace dhs

#include "dht/store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/random.h"
#include "dht/chord.h"

namespace dhs {
namespace {

TEST(NodeStoreTest, PutAndGet) {
  NodeStore store;
  store.Put(42, "key", "value", kNoExpiry);
  const StoreRecord* rec = store.Get("key", 0);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->value, "value");
  EXPECT_EQ(rec->dht_key, 42u);
}

TEST(NodeStoreTest, GetMissingReturnsNull) {
  NodeStore store;
  EXPECT_EQ(store.Get("nope", 0), nullptr);
}

TEST(NodeStoreTest, PutRefreshesValueAndExpiry) {
  NodeStore store;
  store.Put(1, "k", "v1", 100);
  store.Put(2, "k", "v2", 200);
  EXPECT_EQ(store.NumRecords(), 1u);
  const StoreRecord* rec = store.Get("k", 150);
  ASSERT_NE(rec, nullptr);  // refreshed expiry keeps it alive at t=150
  EXPECT_EQ(rec->value, "v2");
  EXPECT_EQ(rec->dht_key, 2u);
}

TEST(NodeStoreTest, ExpiredRecordTreatedAbsent) {
  NodeStore store;
  store.Put(1, "k", "v", 100);
  EXPECT_NE(store.Get("k", 99), nullptr);
  EXPECT_EQ(store.Get("k", 100), nullptr);  // expires_at <= now
  EXPECT_EQ(store.NumRecords(), 0u);        // lazily erased
}

TEST(NodeStoreTest, ExpireUntilDropsOnlyOld) {
  NodeStore store;
  store.Put(1, "a", "", 50);
  store.Put(1, "b", "", 150);
  store.Put(1, "c", "", kNoExpiry);
  EXPECT_EQ(store.ExpireUntil(100), 1u);
  EXPECT_EQ(store.NumRecords(), 2u);
  EXPECT_EQ(store.ExpireUntil(200), 1u);
  EXPECT_EQ(store.NumRecords(), 1u);
}

TEST(NodeStoreTest, Erase) {
  NodeStore store;
  store.Put(1, "k", "", kNoExpiry);
  EXPECT_TRUE(store.Erase("k"));
  EXPECT_FALSE(store.Erase("k"));
  EXPECT_EQ(store.NumRecords(), 0u);
}

TEST(NodeStoreTest, PrefixScanFindsAllMatches) {
  NodeStore store;
  store.Put(1, "ab1", "", kNoExpiry);
  store.Put(1, "ab2", "", kNoExpiry);
  store.Put(1, "ac3", "", kNoExpiry);
  store.Put(1, "b", "", kNoExpiry);
  std::vector<std::string> keys;
  store.ForEachWithPrefix("ab", 0, [&](const std::string& k,
                                       const StoreRecord&) {
    keys.push_back(k);
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"ab1", "ab2"}));
}

TEST(NodeStoreTest, PrefixScanSkipsExpired) {
  NodeStore store;
  store.Put(1, "p1", "", 10);
  store.Put(1, "p2", "", kNoExpiry);
  int count = 0;
  store.ForEachWithPrefix("p", 50,
                          [&](const std::string&, const StoreRecord&) {
                            ++count;
                          });
  EXPECT_EQ(count, 1);
}

TEST(NodeStoreTest, PrefixScanEmptyPrefixSeesEverything) {
  NodeStore store;
  store.Put(1, "x", "", kNoExpiry);
  store.Put(1, "y", "", kNoExpiry);
  int count = 0;
  store.ForEachWithPrefix("", 0,
                          [&](const std::string&, const StoreRecord&) {
                            ++count;
                          });
  EXPECT_EQ(count, 2);
}

TEST(NodeStoreTest, MigrateIfMovesSelectedRecords) {
  NodeStore src;
  NodeStore dst;
  src.Put(10, "low", "", kNoExpiry);
  src.Put(90, "high", "", kNoExpiry);
  src.MigrateIf([](uint64_t key) { return key < 50; }, dst);
  EXPECT_EQ(src.NumRecords(), 1u);
  EXPECT_EQ(dst.NumRecords(), 1u);
  EXPECT_NE(dst.Get("low", 0), nullptr);
  EXPECT_NE(src.Get("high", 0), nullptr);
}

TEST(NodeStoreTest, MigrateAll) {
  NodeStore src;
  NodeStore dst;
  src.Put(1, "a", "va", kNoExpiry);
  src.Put(2, "b", "vb", kNoExpiry);
  dst.Put(3, "c", "vc", kNoExpiry);
  src.MigrateAll(dst);
  EXPECT_EQ(src.NumRecords(), 0u);
  EXPECT_EQ(dst.NumRecords(), 3u);
}

TEST(NodeStoreTest, SizeBytesCountsKeysAndValues) {
  NodeStore store;
  store.Put(1, "abc", "12345", kNoExpiry);
  EXPECT_EQ(store.SizeBytes(), 8u);
  store.Put(1, "d", "", kNoExpiry);
  EXPECT_EQ(store.SizeBytes(), 9u);
}

TEST(NodeStoreTest, ClearEmpties) {
  NodeStore store;
  store.Put(1, "a", "", kNoExpiry);
  store.Clear();
  EXPECT_EQ(store.NumRecords(), 0u);
}

TEST(NodeStoreTest, PackedKeysSortBeforeRawInForEach) {
  NodeStore store;
  store.Put(1, "a", "x", kNoExpiry);
  store.Put(2, StoreKey::Dhs(5, 1, 9), "", kNoExpiry);
  store.Put(3, StoreKey::Dhs(5, 1, 2), "", kNoExpiry);
  store.Put(4, StoreKey::Dhs(4, 7, 3), "", kNoExpiry);
  std::vector<uint64_t> order;
  store.ForEach(0, [&](const StoreKey&, const StoreRecord& rec) {
    order.push_back(rec.dht_key);
  });
  EXPECT_EQ(order, (std::vector<uint64_t>{4, 3, 2, 1}));
  EXPECT_EQ(store.SizeBytes(), 3 * StoreKey::kDhsEncodedBytes + 2);
}

TEST(NodeStoreDeathTest, PackedKeyWithValueIsRejected) {
  NodeStore store;
  EXPECT_DEATH(store.Put(1, StoreKey::Dhs(1, 2, 3), "v", kNoExpiry),
               "carry no value");
}

TEST(NodeStoreTest, NetworkPutRejectsPackedKeyWithValue) {
  ChordNetwork net;
  ASSERT_TRUE(net.AddNode(10).ok());
  ASSERT_TRUE(net.AddNode(20).ok());
  auto put = net.Put(10, 15, StoreKey::Dhs(1, 2, 3), "v", kNoExpiry);
  EXPECT_EQ(put.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(net.stats().messages, 0u);  // refused before routing
  EXPECT_TRUE(net.Put(10, 15, StoreKey::Dhs(1, 2, 3), "", kNoExpiry).ok());
}

// Differential test: seeded random op sequences over three stores, each
// mirrored by a naive ordered map holding every record (expired ones
// too, until the store would have reaped them).
class StoreDifferential {
 public:
  using Model = std::map<StoreKey, StoreRecord>;

  explicit StoreDifferential(uint64_t seed) : rng_(seed) {
    stores_[0].BindExpiryWatermark(&watermark_);
  }

  void Step() {
    const size_t a = rng_.UniformU64(kStores);
    const size_t b = (a + 1 + rng_.UniformU64(kStores - 1)) % kStores;
    NodeStore& store = stores_[a];
    Model& model = models_[a];
    switch (rng_.UniformU64(12)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // Put: insert or refresh to an earlier/later deadline
        const StoreKey key = RandomKey();
        const std::string value =
            key.is_dhs() ? std::string()
                         : std::string(rng_.UniformU64(5), 'v');
        const uint64_t dht_key = rng_.UniformU64(1000);
        const uint64_t expires = RandomExpiry();
        store.Put(dht_key, key, value, expires);
        model[key] = StoreRecord{dht_key, value, expires};
        LowerTrueWatermark(a, expires);
        break;
      }
      case 4: {  // Get
        const StoreKey key = RandomKey();
        const StoreRecord* got = store.Get(key, now_);
        auto it = model.find(key);
        if (it != model.end() && it->second.expires_at <= now_) {
          model.erase(it);
          it = model.end();
        }
        ASSERT_EQ(got != nullptr, it != model.end()) << Where();
        if (got != nullptr) ExpectSameRecord(*got, it->second);
        break;
      }
      case 5: {  // Erase
        const StoreKey key = RandomKey();
        ASSERT_EQ(store.Erase(key), model.erase(key) == 1) << Where();
        break;
      }
      case 6: {  // advance the clock and reap
        now_ += rng_.UniformU64(4);
        size_t due = 0;
        for (auto it = model.begin(); it != model.end();) {
          if (it->second.expires_at <= now_) {
            it = model.erase(it);
            ++due;
          } else {
            ++it;
          }
        }
        ASSERT_EQ(store.ExpireUntil(now_), due) << Where();
        break;
      }
      case 7:
      case 8: {  // MigrateIf on a dht_key range
        const uint64_t lo = rng_.UniformU64(1000);
        const uint64_t hi = lo + rng_.UniformU64(400);
        const auto pred = [lo, hi](uint64_t k) { return k >= lo && k < hi; };
        store.MigrateIf(pred, stores_[b]);
        for (auto it = model.begin(); it != model.end();) {
          if (pred(it->second.dht_key)) {
            AdoptInto(b, it->first, it->second);
            it = model.erase(it);
          } else {
            ++it;
          }
        }
        break;
      }
      case 9: {  // graceful leave to scattered stores: TakeRecords + Adopt
        std::vector<StoreEntry> taken = store.TakeRecords(now_);
        for (auto it = model.begin(); it != model.end();) {
          it = it->second.expires_at <= now_ ? model.erase(it) : std::next(it);
        }
        ASSERT_EQ(taken.size(), model.size()) << Where();
        auto expected = model.begin();
        for (StoreEntry& entry : taken) {
          ASSERT_TRUE(entry.key == expected->first) << Where();
          ExpectSameRecord(entry.record, expected->second);
          const size_t to = entry.record.dht_key % kStores;
          if (to == a) {
            ++expected;
            continue;  // keeps its place in the model
          }
          AdoptInto(to, entry.key, entry.record);
          stores_[to].Adopt(std::move(entry));
          expected = model.erase(expected);
        }
        // Records whose target was this store itself come back last.
        for (StoreEntry& entry : taken) {
          if (entry.record.dht_key % kStores == a) {
            store.Adopt(std::move(entry));
          }
        }
        break;
      }
      case 10: {  // MigrateAll
        store.MigrateAll(stores_[b]);
        for (const auto& [key, rec] : model) AdoptInto(b, key, rec);
        model.clear();
        break;
      }
      default: {
        if (rng_.UniformU64(40) == 0) {  // Clear (rare: it empties a store)
          store.Clear();
          model.clear();
        } else {
          now_ += 1;
        }
        break;
      }
    }
    for (size_t i = 0; i < kStores; ++i) CheckStore(i);
  }

  size_t TotalRecords() const {
    size_t n = 0;
    for (const Model& m : models_) n += m.size();
    return n;
  }

 private:
  static constexpr size_t kStores = 3;

  StoreKey RandomKey() {
    if (rng_.UniformU64(5) == 0) {
      return StoreKey("r" + std::to_string(rng_.UniformU64(12)));
    }
    return StoreKey::Dhs(1 + rng_.UniformU64(3),
                         static_cast<int>(rng_.UniformU64(4)),
                         static_cast<int>(rng_.UniformU64(24)));
  }

  uint64_t RandomExpiry() {
    if (rng_.UniformU64(4) == 0) return kNoExpiry;
    return now_ + 1 + rng_.UniformU64(200);
  }

  // Incoming records replace resident ones (last-writer-wins).
  void AdoptInto(size_t to, const StoreKey& key, const StoreRecord& rec) {
    models_[to][key] = rec;
    LowerTrueWatermark(to, rec.expires_at);
  }

  void LowerTrueWatermark(size_t store, uint64_t expires) {
    if (store == 0) true_watermark_ = std::min(true_watermark_, expires);
  }

  static void ExpectSameRecord(const StoreRecord& got,
                               const StoreRecord& want) {
    EXPECT_EQ(got.dht_key, want.dht_key);
    EXPECT_EQ(got.value, want.value);
    EXPECT_EQ(got.expires_at, want.expires_at);
  }

  std::string Where() const { return "at now=" + std::to_string(now_); }

  void CheckStore(size_t i) {
    const NodeStore& store = stores_[i];
    const Model& model = models_[i];
    std::vector<std::pair<StoreKey, StoreRecord>> live;
    size_t bytes = 0;
    uint64_t earliest = kNoExpiry;
    for (const auto& [key, rec] : model) {
      bytes += key.SizeBytes() + rec.value.size();
      earliest = std::min(earliest, rec.expires_at);
      if (rec.expires_at > now_) live.emplace_back(key, rec);
    }
    std::vector<std::pair<StoreKey, StoreRecord>> seen;
    store.ForEach(now_, [&](const StoreKey& key, const StoreRecord& rec) {
      seen.emplace_back(key, rec);
    });
    ASSERT_EQ(seen.size(), live.size()) << "store " << i << " " << Where();
    for (size_t r = 0; r < seen.size(); ++r) {
      ASSERT_TRUE(seen[r].first == live[r].first)
          << "store " << i << " record " << r << " " << Where();
      ExpectSameRecord(seen[r].second, live[r].second);
    }
    // One (metric, bit) group and one metric through the packed scans.
    const uint64_t metric = 1 + rng_.UniformU64(3);
    const int bit = static_cast<int>(rng_.UniformU64(4));
    std::vector<StoreKey> group;
    std::vector<StoreKey> metric_keys;
    store.ForEachDhs(metric, bit, now_,
                     [&](const StoreKey& key, const StoreRecord&) {
                       group.push_back(key);
                     });
    store.ForEachDhsMetric(metric, now_,
                           [&](const StoreKey& key, const StoreRecord&) {
                             metric_keys.push_back(key);
                           });
    std::vector<StoreKey> want_group;
    std::vector<StoreKey> want_metric;
    for (const auto& [key, rec] : live) {
      if (!key.is_dhs() || key.metric_id() != metric) continue;
      want_metric.push_back(key);
      if (key.bit() == bit) want_group.push_back(key);
    }
    EXPECT_TRUE(group == want_group) << "store " << i << " " << Where();
    EXPECT_TRUE(metric_keys == want_metric) << "store " << i << " " << Where();

    EXPECT_EQ(store.SizeBytes(), bytes) << "store " << i << " " << Where();
    EXPECT_EQ(store.NumRecords(), model.size())
        << "store " << i << " " << Where();
    EXPECT_LE(store.MinExpiry(), earliest) << "store " << i << " " << Where();
    if (i == 0) {
      EXPECT_LE(watermark_, true_watermark_) << Where();
    }
    const Status audit = store.AuditFull(now_);
    EXPECT_TRUE(audit.ok()) << "store " << i << ": " << audit.ToString();
  }

  Rng rng_;
  uint64_t now_ = 0;
  NodeStore stores_[kStores];
  Model models_[kStores];
  uint64_t watermark_ = kNoExpiry;
  uint64_t true_watermark_ = kNoExpiry;
};

TEST(NodeStoreDifferentialTest, RandomOpsMatchNaiveModel) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    StoreDifferential diff(seed);
    size_t peak = 0;
    for (int op = 0; op < 1200; ++op) {
      diff.Step();
      if (::testing::Test::HasFailure()) {
        FAIL() << "first divergence: seed " << seed << " op " << op;
      }
      peak = std::max(peak, diff.TotalRecords());
    }
    ASSERT_GT(peak, 50u) << "seed " << seed;  // the stores did fill up
  }
}

// Regression: a (metric, bit) group emptied one way and later re-created
// must be noted afresh. A noted deadline left over from the old group
// would cover the new tuple with no heap entry standing for it, and the
// tuple would never be reaped. Each way of emptying is tried with the old
// group's heap entry popped before and after the re-creation.
TEST(NodeStoreTest, RecreatedGroupIsReapedAfterEachWayOfEmptying) {
  enum Emptied { kMigrateIf, kLazyGet, kExpireUntil };
  for (Emptied how : {kMigrateIf, kLazyGet, kExpireUntil}) {
    for (bool pop_stale_first : {true, false}) {
      SCOPED_TRACE("emptied by " +
                   std::string(how == kMigrateIf  ? "MigrateIf"
                               : how == kLazyGet ? "Get"
                                                 : "ExpireUntil") +
                   (pop_stale_first ? ", stale entry popped first" : ""));
      NodeStore store;
      NodeStore other;
      const StoreKey key = StoreKey::Dhs(7, 3, 11);
      const auto audit = [&](uint64_t now) {
        const Status s = store.AuditFull(now);
        EXPECT_TRUE(s.ok()) << "at now=" << now << ": " << s.ToString();
        const Status o = other.AuditFull(now);
        EXPECT_TRUE(o.ok()) << "other at now=" << now << ": " << o.ToString();
      };
      store.Put(5, key, std::string(), 100);
      audit(0);
      switch (how) {
        case kMigrateIf:
          store.MigrateIf([](uint64_t) { return true; }, other);
          audit(0);
          EXPECT_EQ(other.NumRecords(), 1u);
          break;
        case kLazyGet:
          EXPECT_EQ(store.Get(key, 100), nullptr);
          audit(100);
          break;
        case kExpireUntil:
          EXPECT_EQ(store.ExpireUntil(100), 1u);
          audit(100);
          break;
      }
      EXPECT_EQ(store.NumRecords(), 0u);
      if (pop_stale_first) {
        EXPECT_EQ(store.ExpireUntil(150), 0u);
        audit(150);
      }
      store.Put(6, key, std::string(), 200);
      audit(150);
      EXPECT_LE(store.MinExpiry(), 200u);
      EXPECT_EQ(store.ExpireUntil(199), 0u);
      audit(199);
      EXPECT_EQ(store.NumRecords(), 1u);
      EXPECT_EQ(store.ExpireUntil(200), 1u);
      audit(200);
      EXPECT_EQ(store.NumRecords(), 0u);
      EXPECT_EQ(store.MinExpiry(), kNoExpiry);
      if (how == kMigrateIf) {
        EXPECT_EQ(other.ExpireUntil(100), 1u);
        audit(200);
        EXPECT_EQ(other.NumRecords(), 0u);
      }
    }
  }
}

#if defined(__GLIBC__) && defined(__GLIBC_PREREQ)
#if __GLIBC_PREREQ(2, 33)
#define DHS_STORE_TEST_HAS_MALLINFO2 1
#endif
#endif

#if defined(DHS_STORE_TEST_HAS_MALLINFO2)
size_t HeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;  // arena + mmapped chunks
}

/// Heap bytes per record of one store holding 100k DHS tuples in groups
/// of 20 vectors, put in random order, each with deadline expiry(rng);
/// negative when mallinfo2 cannot see the heap (a sanitizer's allocator
/// makes the delta meaningless).
template <typename Expiry>
double PackedHeapBytesPerRecord(Expiry&& expiry) {
  constexpr int kVectors = 20;
  constexpr int kRecords = 100000;
  std::vector<StoreKey> keys;
  keys.reserve(kRecords);
  for (int i = 0; i < kRecords; ++i) {
    const int group = i / kVectors;
    keys.push_back(StoreKey::Dhs(1 + static_cast<uint64_t>(group / 16),
                                 group % 16, i % kVectors));
  }
  Rng rng(12);
  for (size_t i = keys.size() - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.UniformU64(i + 1)]);
  }
  const size_t probe_before = HeapBytes();
  auto* probe = new std::vector<char>(1 << 20);
  const bool visible = HeapBytes() >= probe_before + (1 << 20);
  delete probe;
  if (!visible) return -1.0;

  auto* store = new NodeStore;
  const size_t before = HeapBytes();
  for (const StoreKey& key : keys) {
    const uint64_t dht_key = rng.Next();
    store->Put(dht_key, key, std::string(), expiry(rng));
  }
  const size_t after = HeapBytes();
  EXPECT_EQ(store->NumRecords(), static_cast<size_t>(kRecords));
  const Status audit = store->AuditFull(0);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  delete store;
  return static_cast<double>(after - before) / static_cast<double>(kRecords);
}
#endif

// Resident-size guard for the packed layout: 100k DHS tuples in groups
// of 20 vectors arriving in random order (the served worlds' shape,
// with no expiry) must cost at most 40 heap bytes each.
TEST(NodeStoreTest, PackedRecordsStaySmallOnTheHeap) {
#if defined(DHS_STORE_TEST_HAS_MALLINFO2)
  const double per_record =
      PackedHeapBytesPerRecord([](Rng&) { return kNoExpiry; });
  if (per_record < 0) GTEST_SKIP() << "mallinfo2 does not see this heap";
  EXPECT_LE(per_record, 40.0);
  RecordProperty("heap_bytes_per_record", std::to_string(per_record));
#else
  GTEST_SKIP() << "mallinfo2 needs glibc 2.33";
#endif
}

// The same tuples, each with a finite deadline in [1000, 1064): expiry
// is tracked per (metric, bit) group, so they must cost at most 45 heap
// bytes each (about 40; a heap entry per tuple made it about 60).
TEST(NodeStoreTest, PackedRecordsWithTtlStaySmallOnTheHeap) {
#if defined(DHS_STORE_TEST_HAS_MALLINFO2)
  const double per_record = PackedHeapBytesPerRecord(
      [](Rng& rng) { return 1000 + rng.UniformU64(64); });
  if (per_record < 0) GTEST_SKIP() << "mallinfo2 does not see this heap";
  EXPECT_LE(per_record, 45.0);
  RecordProperty("heap_bytes_per_record", std::to_string(per_record));
#else
  GTEST_SKIP() << "mallinfo2 needs glibc 2.33";
#endif
}

}  // namespace
}  // namespace dhs

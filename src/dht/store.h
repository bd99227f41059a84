// Per-node soft-state key/value store.
//
// Records carry the DHT key they were routed with (so the network can
// migrate them on membership change) and an absolute expiry tick
// (soft-state deletion, §3.3 of the paper: entries age out unless
// refreshed).
//
// Keys are StoreKey values: either a packed DHS coordinate
// (metric, bit, vector) or an arbitrary raw byte string (the escape
// hatch for non-DHS users such as the baselines). The two live in
// separate sections. DHS tuples carry no value, so the packed section
// keeps one sorted contiguous array of {vector, dht_key, expires_at}
// per (metric, bit) group — no heap allocation or string per record,
// and exactly the layout a metric query reads. Raw records keep an
// ordered map. Expiry is tracked by a lazy min-heap per section so that
// advancing the virtual clock touches only stores whose earliest record
// is actually due, instead of rescanning every record. The packed heap
// holds one entry per (metric, bit) group rather than per tuple: a
// popped entry reaps every due tuple of its group at once.

#ifndef DHS_DHT_STORE_H_
#define DHS_DHT_STORE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dhs {

/// Expiry value meaning "never expires".
inline constexpr uint64_t kNoExpiry = std::numeric_limits<uint64_t>::max();

/// Storage key: packed DHS coordinate or raw bytes.
///
/// Packed keys compare as (metric, bit, vector) integer tuples, which is
/// exactly the byte order of the historical string encoding
/// 'D' | metric (8B BE) | bit (1B) | vector (2B BE) — range scans
/// therefore see records in the same order as the string-keyed store
/// did. All packed keys sort before all raw keys; the two sections never
/// interleave.
class StoreKey {
 public:
  /// Byte length of the encoded DHS key; packed keys count as this in
  /// the storage-load metric (identical to the old string keys).
  static constexpr size_t kDhsEncodedBytes = 12;

  StoreKey() = default;  // empty raw key
  // Implicit by design: raw string app-keys keep working unchanged.
  StoreKey(std::string raw) : kind_(kRaw), raw_(std::move(raw)) {}
  StoreKey(const char* raw) : kind_(kRaw), raw_(raw) {}

  static StoreKey Dhs(uint64_t metric_id, int bit, int vector_id) {
    StoreKey key;
    key.kind_ = kDhs;
    key.metric_ = metric_id;
    key.bit_ = static_cast<uint8_t>(bit);
    key.vector_ = static_cast<uint16_t>(vector_id);
    key.raw_.clear();
    return key;
  }

  bool is_dhs() const { return kind_ == kDhs; }
  uint64_t metric_id() const { return metric_; }
  int bit() const { return bit_; }
  int vector_id() const { return vector_; }
  const std::string& raw() const { return raw_; }

  /// Bytes this key contributes to payload and storage accounting.
  size_t SizeBytes() const {
    return kind_ == kDhs ? kDhsEncodedBytes : raw_.size();
  }

  /// The historical byte encoding (diagnostics / cross-impl dumps).
  std::string ToBytes() const;

  /// Inverse of ToBytes(): a buffer of exactly kDhsEncodedBytes starting
  /// with 'D' decodes to the packed DHS key it encodes; any other byte
  /// string becomes a raw key holding the bytes verbatim. Total on the
  /// wire-format side: ToBytes(FromBytes(b)) == b for every b. (A raw
  /// key whose bytes happen to spell a canonical DHS encoding decodes to
  /// the packed key — the two were indistinguishable on the wire by
  /// design.)
  static StoreKey FromBytes(const std::string& bytes);

  friend bool operator==(const StoreKey& a, const StoreKey& b) {
    if (a.kind_ != b.kind_) return false;
    if (a.kind_ == kDhs) {
      return a.metric_ == b.metric_ && a.bit_ == b.bit_ &&
             a.vector_ == b.vector_;
    }
    return a.raw_ == b.raw_;
  }
  friend bool operator!=(const StoreKey& a, const StoreKey& b) {
    return !(a == b);
  }
  friend bool operator<(const StoreKey& a, const StoreKey& b) {
    if (a.kind_ != b.kind_) return a.kind_ < b.kind_;  // DHS section first
    if (a.kind_ == kDhs) {
      return std::tie(a.metric_, a.bit_, a.vector_) <
             std::tie(b.metric_, b.bit_, b.vector_);
    }
    return a.raw_ < b.raw_;
  }

 private:
  friend class NodeStore;  // re-points one key across a packed scan

  enum Kind : uint8_t { kDhs = 0, kRaw = 1 };

  Kind kind_ = kRaw;
  uint8_t bit_ = 0;
  uint16_t vector_ = 0;
  uint64_t metric_ = 0;
  std::string raw_;
};

/// One stored record.
struct StoreRecord {
  uint64_t dht_key = 0;          // routing key the record was stored under
  std::string value;             // opaque application payload
  uint64_t expires_at = kNoExpiry;  // absolute virtual-clock tick
};

/// A record lifted out of a store (graceful-leave re-homing).
struct StoreEntry {
  StoreKey key;
  StoreRecord record;
};

/// The storage hosted by a single overlay node. Both sections are
/// ordered so (metric, bit) scans are O(log groups + matches); lazy
/// expiry heaps make "anything due?" an O(1) question.
class NodeStore {
 public:
  /// Inserts or refreshes a record. Refreshing updates value, dht_key and
  /// expiry (the paper's timestamp-reset on update). DHS tuples carry no
  /// value: a packed key with a non-empty value CHECK-fails.
  void Put(uint64_t dht_key, StoreKey app_key, std::string value,
           uint64_t expires_at);

  /// Returns the live record for `app_key`, or nullptr. Records whose
  /// expiry is <= now are treated as absent (and lazily erased). A
  /// packed record is returned as a copy held by the store, valid until
  /// the next call on it.
  const StoreRecord* Get(const StoreKey& app_key, uint64_t now);

  /// Removes a record; returns true if present.
  bool Erase(const StoreKey& app_key);

  /// Drops every record with expires_at <= now. Returns number dropped.
  /// Cost is O(due log heap), not O(records).
  size_t ExpireUntil(uint64_t now);

  /// Lower bound on the earliest finite expiry held (kNoExpiry if none).
  /// May be stale-low after refreshes/erases — callers use it as a cheap
  /// "nothing can be due yet" filter, never as an exact value.
  uint64_t MinExpiry() const {
    const uint64_t packed =
        packed_heap_.empty() ? kNoExpiry : packed_heap_.top().expires_at;
    const uint64_t raw =
        raw_heap_.empty() ? kNoExpiry : raw_heap_.top().expires_at;
    return std::min(packed, raw);
  }

  /// Points this store at a network-level watermark: every Put of a
  /// finite expiry lowers *watermark so the network can skip clock
  /// advances that cannot expire anything. Optional (tests use unbound
  /// stores).
  void BindExpiryWatermark(uint64_t* watermark) { watermark_ = watermark; }

  /// Invokes fn(key, record) for each live record of (metric_id, bit),
  /// in ascending vector order. `fn` must not mutate the store.
  template <typename Fn>
  void ForEachDhs(uint64_t metric_id, int bit, uint64_t now,
                  Fn&& fn) const {
    if (bit != static_cast<uint8_t>(bit)) return;  // no such group
    auto it = groups_.find(GroupKey{metric_id, static_cast<uint8_t>(bit)});
    if (it != groups_.end()) VisitGroup(*it, now, fn);
  }

  /// Invokes fn(key, record) for each live record of `metric_id` across
  /// all bits, in (bit, vector) order.
  template <typename Fn>
  void ForEachDhsMetric(uint64_t metric_id, uint64_t now, Fn&& fn) const {
    for (auto it = groups_.lower_bound(GroupKey{metric_id, 0});
         it != groups_.end() && it->first.first == metric_id; ++it) {
      VisitGroup(*it, now, fn);
    }
  }

  /// Invokes fn(raw_key, record) for each live raw-keyed record whose
  /// bytes start with `prefix`. Packed DHS records live in their own
  /// section and are not visited; use ForEachDhs* for those.
  template <typename Fn>
  void ForEachWithPrefix(const std::string& prefix, uint64_t now,
                         Fn&& fn) const {
    auto it = raw_.lower_bound(StoreKey(prefix));
    for (; it != raw_.end(); ++it) {
      const std::string& key = it->first.raw();
      if (key.compare(0, prefix.size(), prefix) != 0) break;
      if (it->second.expires_at > now) fn(key, it->second);
    }
  }

  /// Invokes fn(key, record) for every live record: the packed section
  /// in (metric, bit, vector) order, then the raw one.
  template <typename Fn>
  void ForEach(uint64_t now, Fn&& fn) const {
    for (const auto& group : groups_) VisitGroup(group, now, fn);
    for (const auto& [key, rec] : raw_) {
      if (rec.expires_at > now) fn(key, rec);
    }
  }

  /// Moves every record with dht_key selected by `predicate` into `dest`
  /// (membership-change migration).
  template <typename Pred>
  void MigrateIf(Pred&& predicate, NodeStore& dest) {
    std::vector<Tuple> moved;
    for (auto g = groups_.begin(); g != groups_.end();) {
      std::vector<Tuple>& tuples = g->second;
      auto first = std::find_if(tuples.begin(), tuples.end(),
                                [&](const Tuple& t) {
                                  return predicate(t.dht_key);
                                });
      if (first == tuples.end()) {
        ++g;
        continue;
      }
      moved.assign(1, *first);
      auto kept = first;
      for (auto t = std::next(first); t != tuples.end(); ++t) {
        if (predicate(t->dht_key)) {
          moved.push_back(*t);
        } else {
          *kept++ = *t;
        }
      }
      tuples.erase(kept, tuples.end());
      packed_records_ -= moved.size();
      size_bytes_ -= moved.size() * StoreKey::kDhsEncodedBytes;
      dest.AdoptTuples(g->first, moved.data(), moved.data() + moved.size());
      g = tuples.empty() ? EraseGroup(g) : std::next(g);
    }
    for (auto it = raw_.begin(); it != raw_.end();) {
      if (predicate(it->second.dht_key)) {
        auto next = std::next(it);
        size_bytes_ -= it->first.SizeBytes() + it->second.value.size();
        auto node = raw_.extract(it);
        dest.Adopt(
            StoreEntry{std::move(node.key()), std::move(node.mapped())});
        it = next;
      } else {
        ++it;
      }
    }
  }

  /// Moves everything into `dest` (graceful leave). Incoming records
  /// replace resident ones on key collision (last-writer-wins, as
  /// migration always did).
  void MigrateAll(NodeStore& dest);

  /// Moves out every record still live at `now`, in ForEach order, and
  /// empties the store (graceful-leave re-homing; the caller re-inserts
  /// each entry into the new responsible store via Adopt()).
  std::vector<StoreEntry> TakeRecords(uint64_t now);

  /// Adopts one record taken from another store, replacing any resident
  /// record under the same key.
  void Adopt(StoreEntry&& entry);

  void Clear();
  size_t NumRecords() const { return packed_records_ + raw_.size(); }

  /// Exhaustively re-derives this store's redundant state and compares it
  /// against the maintained copies: the packed layout (groups non-empty,
  /// vectors strictly ascending, record count), byte accounting
  /// (SizeBytes() equals the recomputed key+value total) and expiry
  /// tracking. Every packed group holding a finite deadline (due or not)
  /// is noted at or below its earliest one, with a heap entry at exactly
  /// the noted deadline; no group that is gone keeps a noted deadline;
  /// every live raw record with a finite deadline has a heap entry at or
  /// below it; so MinExpiry() is a sound lower bound.
  /// O(records + heap); intended for audits and tests, not the hot path.
  /// Returns OK or Internal with a description of the first violation.
  [[nodiscard]] Status AuditFull(uint64_t now) const;

  /// The network watermark this store pushes expiries into (nullptr when
  /// unbound). Exposed for the network-level audit.
  const uint64_t* bound_watermark() const { return watermark_; }

  /// Total payload bytes held (keys + values), the paper's storage-load
  /// metric. O(1): maintained incrementally.
  size_t SizeBytes() const { return size_bytes_; }

 private:
  /// One packed DHS record; its group supplies (metric, bit).
  struct Tuple {
    uint64_t dht_key = 0;
    uint64_t expires_at = kNoExpiry;
    uint16_t vector = 0;
  };
  /// (metric, bit); ordered like the packed keys it groups.
  using GroupKey = std::pair<uint64_t, uint8_t>;
  /// Tuples sorted by strictly ascending vector; never empty.
  using GroupMap = std::map<GroupKey, std::vector<Tuple>>;
  struct GroupKeyHash {
    size_t operator()(const GroupKey& key) const noexcept {
      const uint64_t h = key.first * 0x9E3779B97F4A7C15ULL + key.second;
      return static_cast<size_t>(h ^ (h >> 29));
    }
  };
  /// The deadline each group's expiry is noted at: at or below the
  /// group's earliest finite deadline, with a packed-heap entry at
  /// exactly that value. Only groups that hold (or held) a finite
  /// deadline appear, and the map is allocated at the first one, so a
  /// world without expiry pays nothing for it, per group or per store.
  using NotedMap = std::unordered_map<GroupKey, uint64_t, GroupKeyHash>;
  /// Raw-keyed records; every key is a raw StoreKey.
  using RawMap = std::map<StoreKey, StoreRecord>;

  struct PackedExpiry {
    uint64_t expires_at = 0;
    uint64_t metric = 0;
    uint8_t bit = 0;
  };
  struct RawExpiry {
    uint64_t expires_at = 0;
    StoreKey key;
  };
  struct LaterExpiry {
    template <typename Entry>
    bool operator()(const Entry& a, const Entry& b) const {
      return a.expires_at > b.expires_at;
    }
  };
  template <typename Entry>
  using ExpiryHeap =
      std::priority_queue<Entry, std::vector<Entry>, LaterExpiry>;

  /// Calls fn(key, record) for each live tuple of `group`, re-pointing
  /// one key and one record rather than building them per tuple.
  template <typename Fn>
  static void VisitGroup(const GroupMap::value_type& group, uint64_t now,
                         Fn& fn) {
    StoreKey key = StoreKey::Dhs(group.first.first, group.first.second, 0);
    StoreRecord rec;
    for (const Tuple& t : group.second) {
      if (t.expires_at <= now) continue;
      key.vector_ = t.vector;
      rec.dht_key = t.dht_key;
      rec.expires_at = t.expires_at;
      fn(static_cast<const StoreKey&>(key),
         static_cast<const StoreRecord&>(rec));
    }
  }

  using TupleIt = std::vector<Tuple>::iterator;

  /// The tuple for `vector` in `tuples`, or the position it would take.
  static TupleIt FindTuple(std::vector<Tuple>& tuples, uint16_t vector);

  /// Inserts `tuple` into a group at `pos`, growing the array by a
  /// quarter rather than doubling it: small groups dominate, and their
  /// slack is resident memory.
  static void InsertTuple(std::vector<Tuple>& tuples, TupleIt pos,
                          const Tuple& tuple);

  /// Locates the tuple of a packed key; false if absent.
  bool FindPacked(const StoreKey& key, GroupMap::iterator* group,
                  TupleIt* tuple);

  /// Erases one tuple, dropping its group once empty.
  void ErasePacked(GroupMap::iterator group, TupleIt tuple);

  /// Erases an (emptied) group together with its noted deadline, so a
  /// group later re-created under the same key starts un-noted.
  GroupMap::iterator EraseGroup(GroupMap::iterator group);

  /// Erases `it`, maintaining the byte accounting. Stale heap entries
  /// are left behind and skipped when popped.
  RawMap::iterator EraseRaw(RawMap::iterator it);

  /// Inserts [first, last) into the group `key`; incoming tuples
  /// replace resident ones, and every finite expiry is registered.
  void AdoptTuples(const GroupKey& key, const Tuple* first,
                   const Tuple* last);

  /// Records that group `key` holds a tuple expiring at `expires_at`:
  /// pushes a heap entry (and the bound watermark down) only when the
  /// deadline is finite and below the one the group is noted at.
  void NotePackedExpiry(const GroupKey& key, uint64_t expires_at);
  /// Records a (possibly new) finite raw expiry in the raw heap and
  /// pushes the bound watermark down.
  void NoteRawExpiry(const StoreKey& key, uint64_t expires_at);
  void LowerWatermark(uint64_t expires_at);

  size_t ExpirePacked(uint64_t now);
  size_t ExpireRaw(uint64_t now);

  GroupMap groups_;
  std::unique_ptr<NotedMap> noted_;  // set whenever packed_heap_ is non-empty
  size_t packed_records_ = 0;
  RawMap raw_;
  ExpiryHeap<PackedExpiry> packed_heap_;
  ExpiryHeap<RawExpiry> raw_heap_;
  StoreRecord packed_view_;  // Get()'s copy of a packed record
  size_t size_bytes_ = 0;
  uint64_t* watermark_ = nullptr;
};

}  // namespace dhs

#endif  // DHS_DHT_STORE_H_

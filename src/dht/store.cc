#include "dht/store.h"

#include <map>
#include <sstream>
#include <utility>

#include "common/bit_util.h"
#include "common/check.h"

namespace dhs {

std::string StoreKey::ToBytes() const {
  if (kind_ == kRaw) return raw_;
  std::string bytes;
  bytes.reserve(kDhsEncodedBytes);
  bytes.push_back('D');
  AppendBE64(bytes, metric_);
  bytes.push_back(static_cast<char>(bit_));
  AppendBE16(bytes, static_cast<uint16_t>(vector_));
  return bytes;
}

StoreKey StoreKey::FromBytes(const std::string& bytes) {
  if (bytes.size() == kDhsEncodedBytes && bytes[0] == 'D') {
    const uint64_t metric = LoadBE64(bytes.data() + 1);
    const int bit = static_cast<uint8_t>(bytes[9]);
    const int vector = LoadBE16(bytes.data() + 10);
    return Dhs(metric, bit, vector);
  }
  return StoreKey(bytes);
}

void NodeStore::LowerWatermark(uint64_t expires_at) {
  if (watermark_ != nullptr && expires_at < *watermark_) {
    *watermark_ = expires_at;
  }
}

void NodeStore::NotePackedExpiry(const GroupKey& key, uint16_t vector,
                                 uint64_t expires_at) {
  if (expires_at == kNoExpiry) return;
  packed_heap_.push(PackedExpiry{expires_at, key.first, vector, key.second});
  LowerWatermark(expires_at);
}

void NodeStore::NoteRawExpiry(const StoreKey& key, uint64_t expires_at) {
  if (expires_at == kNoExpiry) return;
  raw_heap_.push(RawExpiry{expires_at, key});
  LowerWatermark(expires_at);
}

NodeStore::TupleIt NodeStore::FindTuple(std::vector<Tuple>& tuples,
                                        uint16_t vector) {
  // Appends (ascending arrival) skip the search.
  if (tuples.empty() || tuples.back().vector < vector) return tuples.end();
  return std::lower_bound(
      tuples.begin(), tuples.end(), vector,
      [](const Tuple& t, uint16_t v) { return t.vector < v; });
}

void NodeStore::InsertTuple(std::vector<Tuple>& tuples, TupleIt pos,
                            const Tuple& tuple) {
  if (tuples.size() == tuples.capacity()) {
    const size_t offset = static_cast<size_t>(pos - tuples.begin());
    tuples.reserve(tuples.size() + std::max<size_t>(4, tuples.size() / 4));
    pos = tuples.begin() + static_cast<std::ptrdiff_t>(offset);
  }
  tuples.insert(pos, tuple);
}

bool NodeStore::FindPacked(const StoreKey& key, GroupMap::iterator* group,
                           TupleIt* tuple) {
  *group = groups_.find(
      GroupKey{key.metric_id(), static_cast<uint8_t>(key.bit())});
  if (*group == groups_.end()) return false;
  std::vector<Tuple>& tuples = (*group)->second;
  const uint16_t vector = static_cast<uint16_t>(key.vector_id());
  *tuple = FindTuple(tuples, vector);
  return *tuple != tuples.end() && (*tuple)->vector == vector;
}

void NodeStore::ErasePacked(GroupMap::iterator group, TupleIt tuple) {
  group->second.erase(tuple);
  if (group->second.empty()) groups_.erase(group);
  --packed_records_;
  size_bytes_ -= StoreKey::kDhsEncodedBytes;
}

NodeStore::RawMap::iterator NodeStore::EraseRaw(RawMap::iterator it) {
  size_bytes_ -= it->first.SizeBytes() + it->second.value.size();
  return raw_.erase(it);
}

void NodeStore::Put(uint64_t dht_key, StoreKey app_key, std::string value,
                    uint64_t expires_at) {
  if (app_key.is_dhs()) {
    CHECK(value.empty()) << "DHS tuples carry no value; got "
                         << value.size() << " bytes";
    const GroupKey group_key{app_key.metric_id(),
                             static_cast<uint8_t>(app_key.bit())};
    const uint16_t vector = static_cast<uint16_t>(app_key.vector_id());
    std::vector<Tuple>& tuples = groups_[group_key];
    auto pos = FindTuple(tuples, vector);
    if (pos != tuples.end() && pos->vector == vector) {
      // Only a strictly earlier deadline needs a fresh heap entry; a
      // refresh to a later one leaves the old entry to be skipped when
      // popped (lazy deletion).
      if (expires_at < pos->expires_at) {
        NotePackedExpiry(group_key, vector, expires_at);
      }
      pos->dht_key = dht_key;
      pos->expires_at = expires_at;
      return;
    }
    InsertTuple(tuples, pos, Tuple{dht_key, expires_at, vector});
    ++packed_records_;
    size_bytes_ += StoreKey::kDhsEncodedBytes;
    NotePackedExpiry(group_key, vector, expires_at);
    return;
  }
  auto [it, inserted] = raw_.try_emplace(std::move(app_key));
  StoreRecord& rec = it->second;
  if (inserted) {
    size_bytes_ += it->first.SizeBytes();
    NoteRawExpiry(it->first, expires_at);
  } else {
    size_bytes_ -= rec.value.size();
    if (expires_at < rec.expires_at) NoteRawExpiry(it->first, expires_at);
  }
  rec.dht_key = dht_key;
  rec.value = std::move(value);
  rec.expires_at = expires_at;
  size_bytes_ += rec.value.size();
}

const StoreRecord* NodeStore::Get(const StoreKey& app_key, uint64_t now) {
  if (app_key.is_dhs()) {
    GroupMap::iterator group;
    TupleIt tuple;
    if (!FindPacked(app_key, &group, &tuple)) return nullptr;
    if (tuple->expires_at <= now) {
      ErasePacked(group, tuple);
      return nullptr;
    }
    packed_view_.dht_key = tuple->dht_key;
    packed_view_.expires_at = tuple->expires_at;
    return &packed_view_;
  }
  auto it = raw_.find(app_key);
  if (it == raw_.end()) return nullptr;
  if (it->second.expires_at <= now) {
    EraseRaw(it);
    return nullptr;
  }
  return &it->second;
}

bool NodeStore::Erase(const StoreKey& app_key) {
  if (app_key.is_dhs()) {
    GroupMap::iterator group;
    TupleIt tuple;
    if (!FindPacked(app_key, &group, &tuple)) return false;
    ErasePacked(group, tuple);
    return true;
  }
  auto it = raw_.find(app_key);
  if (it == raw_.end()) return false;
  EraseRaw(it);
  return true;
}

// A heap entry is stale when its record was refreshed to a later
// deadline, erased, or already reaped via a duplicate entry. A record
// refreshed to a later finite deadline is re-registered there: the
// popped entry was its only guaranteed heap registration, and without
// one it would never be reaped.
size_t NodeStore::ExpirePacked(uint64_t now) {
  size_t dropped = 0;
  while (!packed_heap_.empty() && packed_heap_.top().expires_at <= now) {
    const PackedExpiry entry = packed_heap_.top();
    packed_heap_.pop();
    auto group = groups_.find(GroupKey{entry.metric, entry.bit});
    if (group == groups_.end()) continue;
    auto tuple = FindTuple(group->second, entry.vector);
    if (tuple == group->second.end() || tuple->vector != entry.vector) {
      continue;
    }
    if (tuple->expires_at <= now) {
      ErasePacked(group, tuple);
      ++dropped;
    } else if (tuple->expires_at != kNoExpiry) {
      NotePackedExpiry(group->first, entry.vector, tuple->expires_at);
    }
  }
  return dropped;
}

size_t NodeStore::ExpireRaw(uint64_t now) {
  size_t dropped = 0;
  while (!raw_heap_.empty() && raw_heap_.top().expires_at <= now) {
    auto it = raw_.find(raw_heap_.top().key);
    raw_heap_.pop();
    if (it == raw_.end()) continue;
    if (it->second.expires_at <= now) {
      EraseRaw(it);
      ++dropped;
    } else if (it->second.expires_at != kNoExpiry) {
      NoteRawExpiry(it->first, it->second.expires_at);
    }
  }
  return dropped;
}

size_t NodeStore::ExpireUntil(uint64_t now) {
  const size_t dropped = ExpirePacked(now);
  return dropped + ExpireRaw(now);
}

void NodeStore::AdoptTuples(const GroupKey& key, const Tuple* first,
                            const Tuple* last) {
  if (first == last) return;
  std::vector<Tuple>& tuples = groups_[key];
  const size_t before = tuples.size();
  for (const Tuple* t = first; t != last; ++t) {
    auto pos = FindTuple(tuples, t->vector);
    if (pos != tuples.end() && pos->vector == t->vector) {
      *pos = *t;
    } else {
      InsertTuple(tuples, pos, *t);
    }
    NotePackedExpiry(key, t->vector, t->expires_at);
  }
  packed_records_ += tuples.size() - before;
  size_bytes_ += (tuples.size() - before) * StoreKey::kDhsEncodedBytes;
}

void NodeStore::MigrateAll(NodeStore& dest) {
  if (this == &dest || NumRecords() == 0) return;
  for (const auto& [key, tuples] : groups_) {
    dest.AdoptTuples(key, tuples.data(), tuples.data() + tuples.size());
  }
  while (!raw_.empty()) {
    auto node = raw_.extract(raw_.begin());
    dest.Adopt(StoreEntry{std::move(node.key()), std::move(node.mapped())});
  }
  Clear();
}

std::vector<StoreEntry> NodeStore::TakeRecords(uint64_t now) {
  ExpireUntil(now);
  std::vector<StoreEntry> out;
  out.reserve(NumRecords());
  for (const auto& [key, tuples] : groups_) {
    for (const Tuple& t : tuples) {
      out.push_back(StoreEntry{StoreKey::Dhs(key.first, key.second, t.vector),
                               StoreRecord{t.dht_key, {}, t.expires_at}});
    }
  }
  while (!raw_.empty()) {
    auto node = raw_.extract(raw_.begin());
    out.push_back(StoreEntry{std::move(node.key()), std::move(node.mapped())});
  }
  Clear();
  return out;
}

void NodeStore::Adopt(StoreEntry&& entry) {
  if (entry.key.is_dhs()) {
    CHECK(entry.record.value.empty()) << "DHS tuples carry no value; got "
                                      << entry.record.value.size()
                                      << " bytes";
    const Tuple tuple{entry.record.dht_key, entry.record.expires_at,
                      static_cast<uint16_t>(entry.key.vector_id())};
    AdoptTuples(GroupKey{entry.key.metric_id(),
                         static_cast<uint8_t>(entry.key.bit())},
                &tuple, &tuple + 1);
    return;
  }
  auto hit = raw_.find(entry.key);
  if (hit != raw_.end()) EraseRaw(hit);
  auto it =
      raw_.emplace(std::move(entry.key), std::move(entry.record)).first;
  size_bytes_ += it->first.SizeBytes() + it->second.value.size();
  NoteRawExpiry(it->first, it->second.expires_at);
}

void NodeStore::Clear() {
  groups_.clear();
  packed_records_ = 0;
  raw_.clear();
  packed_heap_ = {};
  raw_heap_ = {};
  size_bytes_ = 0;
}

Status NodeStore::AuditFull(uint64_t now) const {
  // Packed layout: every group non-empty with strictly ascending
  // vectors, and the maintained record count matching.
  size_t packed = 0;
  for (const auto& [key, tuples] : groups_) {
    if (tuples.empty()) {
      return Status::Internal("empty packed group for metric " +
                              std::to_string(key.first) + ", bit " +
                              std::to_string(key.second));
    }
    for (size_t i = 1; i < tuples.size(); ++i) {
      if (tuples[i - 1].vector >= tuples[i].vector) {
        return Status::Internal("packed group for metric " +
                                std::to_string(key.first) + ", bit " +
                                std::to_string(key.second) +
                                " is not strictly ascending in vector");
      }
    }
    packed += tuples.size();
  }
  if (packed != packed_records_) {
    std::ostringstream os;
    os << "packed record count drifted: maintained " << packed_records_
       << " vs recomputed " << packed;
    return Status::Internal(os.str());
  }

  // Byte accounting: size_bytes_ is maintained incrementally on every
  // put/erase/migrate; re-derive it from scratch.
  size_t recomputed_bytes = packed * StoreKey::kDhsEncodedBytes;
  for (const auto& [key, rec] : raw_) {
    recomputed_bytes += key.SizeBytes() + rec.value.size();
  }
  if (recomputed_bytes != size_bytes_) {
    std::ostringstream os;
    os << "store byte accounting drifted: maintained " << size_bytes_
       << " vs recomputed " << recomputed_bytes << " over " << NumRecords()
       << " records";
    return Status::Internal(os.str());
  }

  // Expiry tracking. Drain copies of the heaps into the per-key minimum
  // deadline they know about. Stale entries (lower than the record's
  // current deadline, or for erased keys) are legal — the heaps are a
  // lazy lower bound — but every finite-TTL record MUST be covered by
  // an entry at or below its deadline, or ExpireUntil would never reap
  // it and MinExpiry() could overshoot the true earliest expiry.
  std::map<StoreKey, uint64_t> heap_min;
  const auto note = [&heap_min](StoreKey key, uint64_t expires_at) {
    auto [it, inserted] = heap_min.try_emplace(std::move(key), expires_at);
    if (!inserted && expires_at < it->second) it->second = expires_at;
  };
  for (auto heap = packed_heap_; !heap.empty(); heap.pop()) {
    const PackedExpiry& entry = heap.top();
    note(StoreKey::Dhs(entry.metric, entry.bit, entry.vector),
         entry.expires_at);
  }
  for (auto heap = raw_heap_; !heap.empty(); heap.pop()) {
    note(heap.top().key, heap.top().expires_at);
  }
  uint64_t true_min = kNoExpiry;
  Status violation = Status::OK();
  // ForEach skips records already due (lazily reaped on access).
  ForEach(now, [&](const StoreKey& key, const StoreRecord& rec) {
    if (!violation.ok() || rec.expires_at == kNoExpiry) return;
    true_min = std::min(true_min, rec.expires_at);
    auto it = heap_min.find(key);
    if (it == heap_min.end()) {
      violation = Status::Internal(
          "finite-TTL record has no expiry-heap entry (would never be "
          "reaped): expires_at=" +
          std::to_string(rec.expires_at));
    } else if (it->second > rec.expires_at) {
      std::ostringstream os;
      os << "expiry-heap entry overshoots its record: heap min "
         << it->second << " > record deadline " << rec.expires_at;
      violation = Status::Internal(os.str());
    }
  });
  if (!violation.ok()) return violation;
  if (MinExpiry() > true_min) {
    std::ostringstream os;
    os << "MinExpiry() " << MinExpiry()
       << " overshoots true earliest live expiry " << true_min;
    return Status::Internal(os.str());
  }
  return Status::OK();
}

}  // namespace dhs

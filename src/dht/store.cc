#include "dht/store.h"

#include <map>
#include <set>
#include <sstream>
#include <tuple>
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

void NodeStore::NotePackedExpiry(const GroupKey& key, uint64_t expires_at) {
  if (expires_at == kNoExpiry) return;
  if (noted_ == nullptr) noted_ = std::make_unique<NotedMap>();
  auto [noted, inserted] = noted_->try_emplace(key, expires_at);
  if (!inserted) {
    // The group's entry already fires no later than this deadline.
    if (expires_at >= noted->second) return;
    noted->second = expires_at;
  }
  packed_heap_.push(PackedExpiry{expires_at, key.first, key.second});
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
  if (group->second.empty()) EraseGroup(group);
  --packed_records_;
  size_bytes_ -= StoreKey::kDhsEncodedBytes;
}

NodeStore::GroupMap::iterator NodeStore::EraseGroup(
    GroupMap::iterator group) {
  if (noted_ != nullptr) noted_->erase(group->first);
  return groups_.erase(group);
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
      // Only a strictly earlier deadline can undercut the group's noted
      // one; a refresh to a later deadline stays covered by it.
      if (expires_at < pos->expires_at) {
        NotePackedExpiry(group_key, expires_at);
      }
      pos->dht_key = dht_key;
      pos->expires_at = expires_at;
      return;
    }
    InsertTuple(tuples, pos, Tuple{dht_key, expires_at, vector});
    ++packed_records_;
    size_bytes_ += StoreKey::kDhsEncodedBytes;
    NotePackedExpiry(group_key, expires_at);
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

// Only the entry at a group's noted deadline stands for the group; any
// other is stale (the group was re-noted lower, reaped through another
// entry, or erased) and is dropped. The standing entry reaps every due
// tuple of its group and re-notes the group at its new earliest finite
// deadline: without that entry the group would never be reaped again.
size_t NodeStore::ExpirePacked(uint64_t now) {
  size_t dropped = 0;
  while (!packed_heap_.empty() && packed_heap_.top().expires_at <= now) {
    const PackedExpiry entry = packed_heap_.top();
    packed_heap_.pop();
    const GroupKey key{entry.metric, entry.bit};
    auto noted = noted_->find(key);
    if (noted == noted_->end() || noted->second != entry.expires_at) {
      continue;
    }
    auto group = groups_.find(key);
    CHECK(group != groups_.end())
        << ": noted expiry outlived its group: metric " << key.first
        << ", bit " << static_cast<int>(key.second);
    std::vector<Tuple>& tuples = group->second;
    auto kept = std::remove_if(
        tuples.begin(), tuples.end(),
        [now](const Tuple& t) { return t.expires_at <= now; });
    const size_t reaped = static_cast<size_t>(tuples.end() - kept);
    tuples.erase(kept, tuples.end());
    uint64_t earliest = kNoExpiry;
    for (const Tuple& t : tuples) earliest = std::min(earliest, t.expires_at);
    packed_records_ -= reaped;
    size_bytes_ -= reaped * StoreKey::kDhsEncodedBytes;
    dropped += reaped;
    if (tuples.empty()) {
      EraseGroup(group);
    } else if (earliest == kNoExpiry) {
      noted_->erase(noted);
    } else {
      noted->second = earliest;
      packed_heap_.push(PackedExpiry{earliest, key.first, key.second});
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
  uint64_t earliest = kNoExpiry;
  for (const Tuple* t = first; t != last; ++t) {
    auto pos = FindTuple(tuples, t->vector);
    if (pos != tuples.end() && pos->vector == t->vector) {
      *pos = *t;
    } else {
      InsertTuple(tuples, pos, *t);
    }
    earliest = std::min(earliest, t->expires_at);
  }
  NotePackedExpiry(key, earliest);
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
  noted_.reset();
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

  // Packed expiry tracking, per group. Stale heap entries (below the
  // noted deadline, or for groups since erased) are legal — the heap is
  // a lazy lower bound — but every group holding a finite deadline MUST
  // be noted at or below its earliest one, with an entry at exactly the
  // noted deadline: ExpireUntil skips every other entry as stale, so
  // without it the group would never be reaped and MinExpiry() could
  // overshoot. Due-but-unreaped tuples count too: their reaping depends
  // on the same entry.
  std::set<std::tuple<uint64_t, uint8_t, uint64_t>> packed_entries;
  for (auto heap = packed_heap_; !heap.empty(); heap.pop()) {
    const PackedExpiry& entry = heap.top();
    packed_entries.emplace(entry.metric, entry.bit, entry.expires_at);
  }
  const auto group_name = [](const GroupKey& key) {
    return "packed group (metric " + std::to_string(key.first) + ", bit " +
           std::to_string(key.second) + ")";
  };
  const NotedMap no_noted;
  const NotedMap& noted_map = noted_ != nullptr ? *noted_ : no_noted;
  if (!packed_heap_.empty() && noted_ == nullptr) {
    return Status::Internal("packed expiry heap is non-empty but no group "
                            "is noted");
  }
  for (const auto& [key, deadline] : noted_map) {
    if (groups_.find(key) == groups_.end()) {
      return Status::Internal(
          group_name(key) + " is gone but keeps noted deadline " +
          std::to_string(deadline) +
          " (a re-created group would inherit it and never be reaped)");
    }
    if (packed_entries.count({key.first, key.second, deadline}) == 0) {
      return Status::Internal(group_name(key) + " is noted at " +
                              std::to_string(deadline) +
                              " but the expiry heap holds no entry there");
    }
  }
  uint64_t true_min = kNoExpiry;
  for (const auto& [key, tuples] : groups_) {
    uint64_t earliest = kNoExpiry;
    for (const Tuple& t : tuples) earliest = std::min(earliest, t.expires_at);
    if (earliest == kNoExpiry) continue;
    true_min = std::min(true_min, earliest);
    auto noted = noted_map.find(key);
    if (noted == noted_map.end()) {
      return Status::Internal(
          group_name(key) +
          " holds a finite deadline but is not noted (would never be "
          "reaped): earliest expires_at=" +
          std::to_string(earliest));
    }
    if (noted->second > earliest) {
      std::ostringstream os;
      os << group_name(key) << " noted deadline " << noted->second
         << " overshoots its earliest tuple deadline " << earliest;
      return Status::Internal(os.str());
    }
  }

  // Raw expiry tracking, per record: drain a copy of the heap into the
  // per-key minimum deadline it knows about. Every live finite-TTL
  // record must be covered by an entry at or below its deadline.
  std::map<StoreKey, uint64_t> heap_min;
  for (auto heap = raw_heap_; !heap.empty(); heap.pop()) {
    auto [it, inserted] =
        heap_min.try_emplace(heap.top().key, heap.top().expires_at);
    if (!inserted && heap.top().expires_at < it->second) {
      it->second = heap.top().expires_at;
    }
  }
  for (const auto& [key, rec] : raw_) {
    // Records already due are lazily reaped on access.
    if (rec.expires_at <= now || rec.expires_at == kNoExpiry) continue;
    true_min = std::min(true_min, rec.expires_at);
    auto it = heap_min.find(key);
    if (it == heap_min.end()) {
      return Status::Internal(
          "finite-TTL record has no expiry-heap entry (would never be "
          "reaped): expires_at=" +
          std::to_string(rec.expires_at));
    }
    if (it->second > rec.expires_at) {
      std::ostringstream os;
      os << "expiry-heap entry overshoots its record: heap min "
         << it->second << " > record deadline " << rec.expires_at;
      return Status::Internal(os.str());
    }
  }
  if (MinExpiry() > true_min) {
    std::ostringstream os;
    os << "MinExpiry() " << MinExpiry()
       << " overshoots true earliest expiry " << true_min;
    return Status::Internal(os.str());
  }
  return Status::OK();
}

}  // namespace dhs

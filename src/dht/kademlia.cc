#include "dht/kademlia.h"

#include <algorithm>
#include <sstream>

#include "common/bit_util.h"
#include "common/check.h"

namespace dhs {

bool KademliaNetwork::BlockNonEmpty(uint64_t lo, uint64_t size) const {
  const std::vector<uint64_t>& r = ring();
  auto it = std::lower_bound(r.begin(), r.end(), lo);
  return it != r.end() && *it - lo < size;
}

uint64_t KademliaNetwork::ClosestWithin(uint64_t lo, uint64_t size,
                                        uint64_t key) const {
  DCHECK(size > 0 && IsPowerOfTwo(size)) << "misaligned block size " << size;
  DCHECK(BlockNonEmpty(lo, size)) << "descent into an empty block";
  int level = Log2Floor(size);
  while (level > 0) {
    const uint64_t child_size = uint64_t{1} << (level - 1);
    // Prefer the half the key falls into (it minimizes the XOR bit at
    // this level); fall back to the sibling if it holds no node.
    const uint64_t key_half =
        lo + ((key & child_size) != 0 ? child_size : 0);
    const uint64_t other_half = key_half == lo ? lo + child_size : lo;
    lo = BlockNonEmpty(key_half, child_size) ? key_half : other_half;
    level -= 1;
  }
  return lo;
}

StatusOr<uint64_t> KademliaNetwork::ResponsibleNode(uint64_t key) const {
  if (NumNodes() == 0) return Status::FailedPrecondition("empty network");
  key = space_.Clamp(key);
  const int L = space_.bits();
  // Split the full space manually (2^64 does not fit in uint64_t).
  const uint64_t half_size = uint64_t{1} << (L - 1);
  const uint64_t key_half = (key & half_size) != 0 ? half_size : 0;
  const uint64_t other_half = key_half == 0 ? half_size : 0;
  const uint64_t lo =
      BlockNonEmpty(key_half, half_size) ? key_half : other_half;
  return ClosestWithin(lo, half_size, key);
}

void KademliaNetwork::MigrateOnJoin(uint64_t new_node_id) {
  NodeStore& joiner = nodes_.at(new_node_id);
  for (auto& [id, store] : nodes_) {
    if (id == new_node_id) continue;
    const uint64_t holder = id;
    store.MigrateIf(
        [&](uint64_t dht_key) {
          const uint64_t key = space_.Clamp(dht_key);
          if ((key ^ new_node_id) >= (key ^ holder)) return false;
          auto responsible = ResponsibleNode(key);
          return responsible.ok() && responsible.value() == new_node_id;
        },
        joiner);
  }
}

KademliaNetwork::BucketTable& KademliaNetwork::TableAt(
    size_t node_idx) const {
  if (tables_.size() < ring().size()) tables_.resize(ring().size());
  BucketTable& table = tables_[node_idx];
  if (table.epoch != epoch_) {
    table.epoch = epoch_;
    table.contact.assign(static_cast<size_t>(space_.bits()), 0);
    table.state.assign(static_cast<size_t>(space_.bits()), kUnknown);
  }
  return table;
}

size_t KademliaNetwork::NextHopIndex(size_t current_idx,
                                     uint64_t current_id,
                                     uint64_t key) const {
  key = space_.Clamp(key);
  const uint64_t diff = current_id ^ key;
  // A live node with the key's own ID is trivially XOR-closest.
  if (diff == 0) return current_idx;

  // Jump to a node sharing a strictly longer prefix with the key: a
  // member of the key's aligned block at the level of the current
  // highest differing bit. A real node's k-bucket holds a few
  // *arbitrary* contacts of that block, not the one closest to the key,
  // so we model the contact as the block member XOR-closest to `current`
  // — its deeper bits are uncorrelated with the key's, giving the
  // classic one-bit-per-hop O(log N) routing.
  //
  // The block at level b is (current ^ 2^b) & ~(2^b - 1): a function of
  // (current, b) only, so the chosen contact is cacheable per node per
  // bucket. When the block is non-empty its members are strictly
  // XOR-closer to the key than current, so the pre-cache early return
  // "current is already responsible" can only have fired on empty
  // blocks — the kEmptyBlock path below covers it.
  const int b = Log2Floor(diff);
  BucketTable& table = TableAt(current_idx);
  uint8_t& state = table.state[static_cast<size_t>(b)];
  if (state == kUnknown) {
    const uint64_t block_size = uint64_t{1} << b;
    const uint64_t block_lo = (current_id ^ block_size) & ~(block_size - 1);
    if (BlockNonEmpty(block_lo, block_size)) {
      table.contact[static_cast<size_t>(b)] = RingIndexOf(
          ClosestWithin(block_lo, block_size, current_id));
      state = kContact;
    } else {
      state = kEmptyBlock;
    }
  }
  if (state == kContact) {
    return static_cast<size_t>(table.contact[static_cast<size_t>(b)]);
  }
  auto closest = ResponsibleNode(key);
  CHECK_OK(closest) << "routing on an empty network";
  return RingIndexOf(closest.value());
}

Status KademliaNetwork::AuditDerivedState() const {
  const std::vector<uint64_t>& r = ring();
  const size_t rows = std::min(tables_.size(), r.size());
  for (size_t idx = 0; idx < rows; ++idx) {
    const BucketTable& table = tables_[idx];
    if (table.epoch != epoch_) continue;  // stale row: reset before reuse
    const uint64_t node_id = r[idx];
    const size_t levels = static_cast<size_t>(space_.bits());
    if (table.state.size() != levels || table.contact.size() != levels) {
      std::ostringstream os;
      os << "kademlia audit: node " << node_id << " bucket table has "
         << table.state.size() << " levels, expected " << levels;
      return Status::Internal(os.str());
    }
    for (size_t b = 0; b < levels; ++b) {
      if (table.state[b] == kUnknown) continue;
      const uint64_t block_size = uint64_t{1} << b;
      const uint64_t block_lo = (node_id ^ block_size) & ~(block_size - 1);
      const bool non_empty = BlockNonEmpty(block_lo, block_size);
      if (table.state[b] == kEmptyBlock) {
        if (non_empty) {
          std::ostringstream os;
          os << "kademlia audit: node " << node_id << " level " << b
             << " cached as empty but block [" << block_lo << ", +"
             << block_size << ") holds a live node";
          return Status::Internal(os.str());
        }
        continue;
      }
      if (!non_empty) {
        std::ostringstream os;
        os << "kademlia audit: node " << node_id << " level " << b
           << " caches a contact into an empty block";
        return Status::Internal(os.str());
      }
      const uint64_t expected =
          RingIndexOf(ClosestWithin(block_lo, block_size, node_id));
      if (table.contact[b] != expected) {
        std::ostringstream os;
        os << "kademlia audit: node " << node_id << " level " << b
           << " caches contact ring index " << table.contact[b]
           << " but the XOR-closest block member is at " << expected;
        return Status::Internal(os.str());
      }
    }
  }
  return Status::OK();
}

std::vector<uint64_t> KademliaNetwork::ProbeCandidates(
    const IdInterval& interval, uint64_t probe_key, uint64_t start_node,
    int max_candidates) const {
  return XorCandidates(interval, probe_key, start_node, max_candidates);
}

std::vector<uint64_t> KademliaNetwork::ReplicaCandidates(
    const IdInterval& interval, uint64_t key, uint64_t primary,
    int max_replicas) const {
  // Replicas must land exactly where a counting walk for `key` will
  // look: the XOR-nearest block members, in walk order. Ring successors
  // of the primary (the Chord recipe) sit at arbitrary XOR positions
  // and are invisible to lim-bounded walks.
  return XorCandidates(interval, key, primary, max_replicas);
}

std::vector<uint64_t> KademliaNetwork::XorCandidates(
    const IdInterval& interval, uint64_t probe_key, uint64_t start_node,
    int max_candidates) const {
  std::vector<uint64_t> candidates;
  if (max_candidates <= 0 || NumNodes() == 0) return candidates;

  // Under XOR responsibility, the keys of an interval are held by the
  // nodes of the smallest non-empty aligned block enclosing it (if the
  // interval itself has nodes, they hold everything).
  uint64_t lo = interval.lo;
  uint64_t size = interval.size;
  bool whole_space = false;
  while (!BlockNonEmpty(lo, size)) {
    const uint64_t parent_size = size << 1;
    if (parent_size == 0 ||
        (space_.bits() < 64 && parent_size > space_.Mask() + 1)) {
      whole_space = true;
      break;
    }
    size = parent_size;
    lo &= ~(size - 1);
  }

  // Gather a window of block members numerically around the probe key
  // (cheap approximation of XOR order for same-block nodes), then rank
  // by true XOR distance.
  const uint64_t block_lo = whole_space ? 0 : lo;
  const uint64_t block_hi_excl =
      whole_space ? space_.Mask() : lo + (size - 1);  // inclusive top
  const size_t window = static_cast<size_t>(max_candidates) * 4 + 8;
  const std::vector<uint64_t>& r = ring();
  std::vector<uint64_t> members;
  size_t fwd = static_cast<size_t>(
      std::lower_bound(r.begin(), r.end(), probe_key) - r.begin());
  size_t bwd = fwd;
  while (members.size() < window) {
    bool advanced = false;
    if (fwd < r.size() && r[fwd] >= block_lo && r[fwd] <= block_hi_excl) {
      members.push_back(r[fwd]);
      ++fwd;
      advanced = true;
    }
    if (bwd > 0) {
      const uint64_t prev = r[bwd - 1];
      if (prev >= block_lo && prev <= block_hi_excl) {
        members.push_back(prev);
        --bwd;
        advanced = true;
      } else {
        bwd = 0;  // exhausted downward
      }
    }
    if (!advanced) break;
  }

  std::sort(members.begin(), members.end(),
            [probe_key](uint64_t a, uint64_t b) {
              return (a ^ probe_key) < (b ^ probe_key);
            });
  members.erase(std::unique(members.begin(), members.end()), members.end());
  for (uint64_t node : members) {
    if (node == start_node) continue;
    candidates.push_back(node);
    if (static_cast<int>(candidates.size()) >= max_candidates) break;
  }
  return candidates;
}

}  // namespace dhs

// Kademlia-like overlay (Maymounkov & Mazieres, IPTPS '02): XOR
// geometry.
//
// Responsibility: the live node minimizing XOR(node, key). Routing: at
// each step the query jumps to a node sharing a strictly longer ID
// prefix with the key (the converged-k-bucket idealization), giving
// O(log N) hops. The contact a node uses for differing-bit level b
// depends only on (node, b), so contacts are materialized into a
// per-node bucket table that is epoch-invalidated on membership change
// — the analogue of Chord's finger-table cache. Candidate holders of a
// prefix-aligned interval are the nodes of the smallest non-empty
// aligned block enclosing it, ordered by XOR distance to the probed key
// — because under XOR responsibility the keys of an empty block scatter
// over that enclosing block rather than onto a single ring successor.
//
// DHS runs unchanged on top of this network (the paper's DHT-agnostic
// claim, §1): the thr() intervals are prefix-aligned blocks, meaningful
// in both geometries.

#ifndef DHS_DHT_KADEMLIA_H_
#define DHS_DHT_KADEMLIA_H_

#include <cstdint>
#include <vector>

#include "dht/network.h"

namespace dhs {

class KademliaNetwork : public DhtNetwork {
 public:
  explicit KademliaNetwork(const OverlayConfig& config = OverlayConfig())
      : DhtNetwork(config) {}

  const char* GeometryName() const override { return "kademlia"; }

  /// XOR responsibility: argmin over live nodes of node ^ key.
  [[nodiscard]] StatusOr<uint64_t> ResponsibleNode(uint64_t key) const override;

  std::vector<uint64_t> ProbeCandidates(const IdInterval& interval,
                                        uint64_t probe_key,
                                        uint64_t start_node,
                                        int max_candidates) const override;

  /// §3.5 under XOR geometry: copies go to the block members XOR-nearest
  /// to the tuple's routing key — the exact order ProbeCandidates hands
  /// a counting walk for that key (both delegate to XorCandidates), so
  /// a walk falling past i failed holders lands on the i-th replica.
  /// Ring successors of the primary (the Chord rule) would scatter
  /// copies across XOR distance where walks never probe.
  std::vector<uint64_t> ReplicaCandidates(const IdInterval& interval,
                                          uint64_t key, uint64_t primary,
                                          int max_replicas) const override;

 protected:
  size_t NextHopIndex(size_t current_idx, uint64_t current_id,
                      uint64_t key) const override;

  /// The generic join rule with an exact XOR prefilter: a record held
  /// at node H under key k can move to the joiner J only if
  /// (k ^ J) < (k ^ H), since J must be XOR-closer to k than every other
  /// node, H included. ResponsibleNode runs only for records that pass,
  /// so the moved set is the generic rule's.
  void MigrateOnJoin(uint64_t new_node_id) override;

  /// O(1) invalidation: bumping the epoch marks every cached bucket
  /// table stale without touching it (Chord's finger-table scheme).
  void OnMembershipChange() override { ++epoch_; }

  /// Recomputes every epoch-fresh cached bucket contact brute-force: a
  /// kContact slot must hold the ring index of the XOR-closest block
  /// member and a kEmptyBlock slot must correspond to a block with no
  /// live node. Stale-epoch rows are ignored (they are reset before
  /// next use).
  [[nodiscard]] Status AuditDerivedState() const override;

 private:
  /// Per-node contact cache, one slot per differing-bit level: the ring
  /// index of the block member a query at this node jumps to, or "block
  /// empty" (route straight to the key's responsible node). Stored at
  /// the node's ring index and tagged with the membership epoch it was
  /// built in, like Chord's FingerTable.
  struct BucketTable {
    uint64_t epoch = 0;             // valid iff == network epoch
    std::vector<uint64_t> contact;  // ring index; valid where kContact
    std::vector<uint8_t> state;     // kUnknown / kContact / kEmptyBlock
  };
  enum : uint8_t { kUnknown = 0, kContact = 1, kEmptyBlock = 2 };

  /// The (valid-epoch) bucket table of the node at `node_idx`; resets a
  /// stale row in place.
  BucketTable& TableAt(size_t node_idx) const;

  /// True iff a live node exists in [lo, lo + size).
  bool BlockNonEmpty(uint64_t lo, uint64_t size) const;

  /// XOR-closest node to `key` within the non-empty aligned block
  /// [lo, lo + size). Preconditions: block non-empty.
  uint64_t ClosestWithin(uint64_t lo, uint64_t size, uint64_t key) const;

  /// Members of the smallest non-empty aligned block enclosing
  /// `interval`, ranked by XOR distance to `key`, excluding `exclude`;
  /// at most `max_candidates`. The shared ordering behind both
  /// ProbeCandidates and ReplicaCandidates.
  std::vector<uint64_t> XorCandidates(const IdInterval& interval,
                                      uint64_t key, uint64_t exclude,
                                      int max_candidates) const;

  // Lazily filled, epoch-invalidated; indexed by ring index.
  mutable std::vector<BucketTable> tables_;
  mutable uint64_t epoch_ = 1;  // starts above BucketTable::epoch's 0
};

}  // namespace dhs

#endif  // DHS_DHT_KADEMLIA_H_

// Chord-like overlay (Stoica et al., SIGCOMM '01): ring geometry.
//
// Responsibility: successor(key) — the first live node clockwise from
// the key. Routing: greedy closest-preceding-finger, with finger i of
// node n resolved as successor(n + 2^i) against the (converged) global
// ring. Finger tables are materialized lazily per node and dropped on
// every membership change, so a stable overlay routes over plain
// arrays while a churning one pays only for the tables it touches.
// Candidate holders of a prefix-aligned interval are its member
// nodes plus the first node past its top (which owns the interval's
// highest keys), probed successors-first then predecessors — exactly
// the walk of the paper's Alg. 1.

#ifndef DHS_DHT_CHORD_H_
#define DHS_DHT_CHORD_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dht/network.h"

namespace dhs {

class ChordNetwork : public DhtNetwork {
 public:
  explicit ChordNetwork(const OverlayConfig& config = OverlayConfig())
      : DhtNetwork(config) {}

  const char* GeometryName() const override { return "chord"; }

  /// Chord responsibility: key k belongs to successor(k).
  [[nodiscard]] StatusOr<uint64_t> ResponsibleNode(uint64_t key) const override;

  std::vector<uint64_t> ProbeCandidates(const IdInterval& interval,
                                        uint64_t probe_key,
                                        uint64_t start_node,
                                        int max_candidates) const override;

  /// §3.5 on a ring: copies go to the primary's successors — when the
  /// primary fails, successor(key) resolves to exactly the next node
  /// clockwise, so the i-th replica is the node that becomes
  /// responsible after i failures (and the node the probe walk tries
  /// next).
  std::vector<uint64_t> ReplicaCandidates(const IdInterval& interval,
                                          uint64_t key, uint64_t primary,
                                          int max_replicas) const override;

 protected:
  size_t NextHopIndex(size_t current_idx, uint64_t current_id,
                      uint64_t key) const override;

  /// Chord-targeted join migration: only the joiner's successor can lose
  /// keys (those in (predecessor, joiner]).
  void MigrateOnJoin(uint64_t new_node_id) override;

  /// O(1) invalidation: bumping the epoch marks every cached finger
  /// table stale without touching it.
  void OnMembershipChange() override { ++epoch_; }

  /// Recomputes every epoch-fresh finger table entry brute-force against
  /// the ring index: predecessor pointer and each resolved finger level
  /// must match successor(n + 2^i). Stale-epoch rows are ignored (they
  /// are reset before next use).
  [[nodiscard]] Status AuditDerivedState() const override;

 private:
  /// A node's materialized routing state against the converged ring,
  /// stored at the node's ring index and tagged with the membership
  /// epoch it was built in. Fingers resolve individually on first probe
  /// (`known` bit i) and hold ring *indices*, so a warm hop is pure
  /// array reads — no id search of any kind. A node pays only for the
  /// levels its routed traffic actually touches; the greedy loop
  /// usually takes the first finger it tries.
  struct FingerTable {
    uint64_t epoch = 0;        // valid iff == network epoch
    uint64_t predecessor = 0;  // ring predecessor's ID
    uint64_t known = 0;        // bit i set => fingers[i] resolved
    // Ring index of successor(n + 2^i), inline (no per-row heap
    // allocation; one row spans a few cache lines and the probed
    // levels cluster around log2 of the remaining distance).
    uint32_t fingers[64];
  };

  /// The (valid-epoch) finger table of the node at `node_idx`; resets a
  /// stale row in place.
  FingerTable& TableAt(size_t node_idx) const;
  size_t FingerIndex(FingerTable& table, uint64_t node_id, int i) const;

  mutable std::vector<FingerTable> tables_;  // indexed by ring index
  mutable uint64_t epoch_ = 1;  // starts above FingerTable::epoch's 0
};

}  // namespace dhs

#endif  // DHS_DHT_CHORD_H_

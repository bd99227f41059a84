// Soft-state maintenance driver (§3.3).
//
// DHS deletion is implicit: every tuple carries a time_out and vanishes
// unless refreshed. The paper discusses the resulting trade-off —
// larger timeouts mean fewer refresh rounds but slower adaptation to
// fluctuation. DhsMaintainer packages the refresh protocol: each node
// registers the items it currently holds per metric; RefreshRound()
// re-inserts every node's registry (one bulk round per node, §3.2),
// resetting the timestamps of all live tuples.
//
// Driving AdvanceClock() and RefreshRound() from an experiment loop
// simulates churn: items removed from a registry silently age out after
// ttl_ticks, newly registered items appear at the next round.

#ifndef DHS_DHS_MAINTAINER_H_
#define DHS_DHS_MAINTAINER_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "dhs/client.h"

namespace dhs {

class DhsMaintainer {
 public:
  /// The client (and its network) must outlive the maintainer.
  explicit DhsMaintainer(DhsClient* client) : client_(client) {}

  /// Registers an item as locally held by `node` under `metric`. It will
  /// be (re-)inserted on every subsequent refresh round.
  void RegisterItem(uint64_t node, uint64_t metric, uint64_t item_hash);

  /// Registers a batch.
  void RegisterItems(uint64_t node, uint64_t metric,
                     const std::vector<uint64_t>& item_hashes);

  /// Deregisters an item (e.g. the node deleted the document). The DHS
  /// forgets it automatically once its TTL lapses.
  void UnregisterItem(uint64_t node, uint64_t metric, uint64_t item_hash);

  /// Drops every registration of a node (the node left or failed).
  void DropNode(uint64_t node);

  /// One maintenance round: every registered node bulk-inserts its items
  /// for each metric, refreshing the soft state. Nodes no longer in the
  /// network are skipped. Returns the number of bulk rounds issued.
  [[nodiscard]] StatusOr<size_t> RefreshRound(Rng& rng);

  /// Total registered (node, metric, item) entries.
  size_t NumRegistrations() const;

  /// Structural audit: the registry must hold no empty metric maps or
  /// item lists (Unregister/Drop prune them eagerly), every item list
  /// must be strictly ascending (sorted, no duplicates), every registered
  /// item must place onto a mapped bit or be covered by the §3.5
  /// bit-shift rule, and the underlying client state must pass
  /// DhsClient::AuditFull. Returns OK or Internal naming the violation.
  [[nodiscard]] Status AuditFull() const;

 private:
  DhsClient* client_;
  // node -> metric -> item hashes, the hashes kept as a sorted,
  // duplicate-free vector: 8 bytes per registration plus growth slack,
  // where a hash set spent a ~40-byte node and a bucket on each. The
  // outer maps fix the order RefreshRound visits (node, metric) batches
  // in, and with it which refresh messages a seeded fault plan hits;
  // the order of items inside a batch does not matter, because
  // InsertBatch regroups them by bit and vector.
  std::unordered_map<uint64_t, std::map<uint64_t, std::vector<uint64_t>>>
      registry_;
};

}  // namespace dhs

#endif  // DHS_DHS_MAINTAINER_H_

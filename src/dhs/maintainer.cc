#include "dhs/maintainer.h"

#include <algorithm>
#include <functional>

namespace dhs {

void DhsMaintainer::RegisterItem(uint64_t node, uint64_t metric,
                                 uint64_t item_hash) {
  std::vector<uint64_t>& items = registry_[node][metric];
  auto it = std::lower_bound(items.begin(), items.end(), item_hash);
  if (it == items.end() || *it != item_hash) items.insert(it, item_hash);
}

void DhsMaintainer::RegisterItems(uint64_t node, uint64_t metric,
                                  const std::vector<uint64_t>& item_hashes) {
  std::vector<uint64_t>& items = registry_[node][metric];
  const auto old_size = static_cast<std::ptrdiff_t>(items.size());
  items.insert(items.end(), item_hashes.begin(), item_hashes.end());
  const auto middle = items.begin() + old_size;
  std::sort(middle, items.end());
  std::inplace_merge(items.begin(), middle, items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
}

void DhsMaintainer::UnregisterItem(uint64_t node, uint64_t metric,
                                   uint64_t item_hash) {
  auto node_it = registry_.find(node);
  if (node_it == registry_.end()) return;
  auto metric_it = node_it->second.find(metric);
  if (metric_it == node_it->second.end()) return;
  std::vector<uint64_t>& items = metric_it->second;
  auto it = std::lower_bound(items.begin(), items.end(), item_hash);
  if (it != items.end() && *it == item_hash) items.erase(it);
  if (items.empty()) node_it->second.erase(metric_it);
  if (node_it->second.empty()) registry_.erase(node_it);
}

void DhsMaintainer::DropNode(uint64_t node) { registry_.erase(node); }

StatusOr<size_t> DhsMaintainer::RefreshRound(Rng& rng) {
  // The refresh round is one root span; the per-(node, metric) batches
  // nest as the client's own insert_batch spans.
  ScopedSpan span(client_->network()->tracer(), "refresh_round");
  size_t rounds = 0;
  for (const auto& [node, metrics] : registry_) {
    for (const auto& [metric, items] : metrics) {
      auto refreshed = client_->InsertBatch(node, metric, items, rng);
      if (!refreshed.ok()) {
        if (refreshed.status().IsInvalidArgument()) {
          continue;  // node left the overlay
        }
        return refreshed.status();
      }
      ++rounds;
    }
  }
  if (span.active()) {
    span.Arg(TraceArg::U64("batches", rounds));
  }
  if (MetricsRegistry* registry = client_->network()->metrics();
      registry != nullptr) {
    registry->GetCounter("dhs_refresh_rounds_total")->Increment();
    registry->GetCounter("dhs_refresh_batches_total")
        ->Increment(static_cast<uint64_t>(rounds));
  }
  return rounds;
}

size_t DhsMaintainer::NumRegistrations() const {
  size_t total = 0;
  for (const auto& [node, metrics] : registry_) {
    for (const auto& [metric, items] : metrics) total += items.size();
  }
  return total;
}

Status DhsMaintainer::AuditFull() const {
  const BitMapping& mapping = client_->mapping();
  const DhsConfig& config = client_->config();
  for (const auto& [node, metrics] : registry_) {
    if (metrics.empty()) {
      return Status::Internal("maintainer audit: node " +
                              std::to_string(node) +
                              " has an empty metric map (not pruned)");
    }
    for (const auto& [metric, items] : metrics) {
      if (items.empty()) {
        return Status::Internal(
            "maintainer audit: node " + std::to_string(node) + " metric " +
            std::to_string(metric) + " has an empty item list (not pruned)");
      }
      if (std::adjacent_find(items.begin(), items.end(),
                             std::greater_equal<uint64_t>()) != items.end()) {
        return Status::Internal(
            "maintainer audit: node " + std::to_string(node) + " metric " +
            std::to_string(metric) +
            " item list is not strictly ascending (unsorted or duplicated)");
      }
      for (uint64_t item : items) {
        const DhsPlacement placement = client_->PlaceItem(item);
        if (placement.vector_id < 0 || placement.vector_id >= config.m) {
          return Status::Internal(
              "maintainer audit: item " + std::to_string(item) +
              " places into vector " + std::to_string(placement.vector_id) +
              ", outside [0, " + std::to_string(config.m) + ")");
        }
        // rho below shift_bits is legal: the bit-shift rule assumes those
        // positions set and skips the insert entirely.
        if (placement.rho < 0 || placement.rho > mapping.MaxBit()) {
          return Status::Internal(
              "maintainer audit: item " + std::to_string(item) +
              " places onto bit " + std::to_string(placement.rho) +
              ", outside [0, " + std::to_string(mapping.MaxBit()) + "]");
        }
      }
    }
  }
  return client_->AuditFull();
}

}  // namespace dhs

#include "checks.h"

#include <bit>
#include <cmath>
#include <sstream>

namespace dhs {
namespace perf {

ReferenceSketch::ReferenceSketch(int k, int m, DhsEstimator estimator)
    : k_(k), m_(m), estimator_(estimator) {}

int ReferenceSketch::Vector(uint64_t hash) const {
  return static_cast<int>((hash >> k_) & static_cast<uint64_t>(m_ - 1));
}

int ReferenceSketch::RhoOf(uint64_t hash) const {
  const uint64_t low = hash & ((uint64_t{1} << k_) - 1);
  return low == 0 ? k_ : std::countr_zero(low);
}

size_t ReferenceSketch::Cell(uint64_t hash) const {
  return static_cast<size_t>(Vector(hash)) * static_cast<size_t>(k_ + 1) +
         static_cast<size_t>(RhoOf(hash));
}

void ReferenceSketch::Add(uint64_t metric, uint64_t hash) {
  std::vector<uint32_t>& cells = cells_[metric];
  if (cells.empty()) cells.assign(static_cast<size_t>(m_ * (k_ + 1)), 0);
  ++cells[Cell(hash)];
  ++live_[metric];
}

bool ReferenceSketch::Remove(uint64_t metric, uint64_t hash) {
  auto it = cells_.find(metric);
  if (it == cells_.end()) return false;
  uint32_t& cell = it->second[Cell(hash)];
  if (cell == 0) return false;
  --cell;
  --live_[metric];
  return true;
}

std::vector<int> ReferenceSketch::Observables(uint64_t metric) const {
  const bool pcsa = estimator_ == DhsEstimator::kPcsa;
  std::vector<int> out(static_cast<size_t>(m_), pcsa ? k_ + 1 : -1);
  auto it = cells_.find(metric);
  if (it == cells_.end()) {
    if (pcsa) std::fill(out.begin(), out.end(), 0);
    return out;
  }
  for (int v = 0; v < m_; ++v) {
    const uint32_t* row = it->second.data() + v * (k_ + 1);
    if (pcsa) {
      for (int r = 0; r <= k_; ++r) {
        if (row[r] == 0) {
          out[static_cast<size_t>(v)] = r;
          break;
        }
      }
    } else {
      for (int r = k_; r >= 0; --r) {
        if (row[r] != 0) {
          out[static_cast<size_t>(v)] = r;
          break;
        }
      }
    }
  }
  return out;
}

uint64_t ReferenceSketch::Exact(uint64_t metric) const {
  auto it = live_.find(metric);
  return it == live_.end() ? 0 : it->second;
}

Checker::Checker(const ReferenceSketch* reference) : reference_(reference) {}

void Checker::Fail(const std::string& what) {
  if (failure_.empty()) failure_ = what;
}

void Checker::CheckAnswer(uint64_t metric, const std::vector<int>& served,
                          double estimate, bool gave_up, bool degraded) {
  ++answers_;
  const std::vector<int> reference = reference_->Observables(metric);
  if (served.size() != reference.size()) {
    Fail("metric " + std::to_string(metric) + ": served " +
         std::to_string(served.size()) + " observables, expected " +
         std::to_string(reference.size()));
    return;
  }
  // A PCSA count that abandoned an interval leaves its open bitmaps
  // open on purpose (client.cc: "biases mildly high"), so only its
  // complete answers are bounded; a max-rho scan only ever reports bits
  // it found, so sLL/HLL answers are bounded whatever happened.
  const bool bounded =
      !(gave_up && reference_->estimator() == DhsEstimator::kPcsa);
  for (size_t v = 0; v < served.size(); ++v) {
    ++observables_checked_;
    if (served[v] == reference[v]) ++observables_matched_;
    if (bounded && served[v] > reference[v]) {
      std::ostringstream os;
      os << "metric " << metric << " vector " << v << ": served observable "
         << served[v] << " exceeds the reference " << reference[v];
      Fail(os.str());
    }
  }
  if (!std::isfinite(estimate) || estimate < 0.0) {
    Fail("metric " + std::to_string(metric) + ": estimate is not a count");
    return;
  }
  if (degraded) return;
  const uint64_t exact = reference_->Exact(metric);
  if (exact == 0) return;
  const double rel = (estimate - static_cast<double>(exact)) /
                     static_cast<double>(exact);
  ErrorSum& sum = errors_[metric];
  sum.squared += rel * rel;
  ++sum.n;
}

void Checker::CheckMessages(uint64_t stats_delta, uint64_t cost_sum) {
  if (stats_delta != cost_sum) {
    Fail("message delta " + std::to_string(stats_delta) +
         " != summed dht_lookups + direct_probes " + std::to_string(cost_sum));
  }
}

void Checker::CheckBytes(uint64_t tapped_charged, uint64_t stats_delta) {
  if (tapped_charged != stats_delta) {
    Fail("tapped charged_bytes " + std::to_string(tapped_charged) +
         " != MessageStats byte delta " + std::to_string(stats_delta));
  }
}

double Checker::RelErrRms() const {
  if (errors_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& [metric, sum] : errors_) {
    total += sum.squared / static_cast<double>(sum.n);
  }
  return std::sqrt(total / static_cast<double>(errors_.size()));
}

double Checker::ErrorBound() const {
  double c = 1.05;
  if (reference_->estimator() == DhsEstimator::kPcsa) c = 0.78;
  if (reference_->estimator() == DhsEstimator::kHyperLogLog) c = 1.04;
  return 2.5 * c / std::sqrt(static_cast<double>(reference_->m()));
}

bool Checker::Finish() {
  if (answers_ == 0) Fail("no count answer was checked");
  if (errors_.size() < 8) {
    Fail("only " + std::to_string(errors_.size()) +
         " metrics had a complete answer; the error bound needs 8");
  }
  const double rms = RelErrRms();
  if (rms > ErrorBound()) {
    std::ostringstream os;
    os << "relative error RMS " << rms << " exceeds the bound "
       << ErrorBound();
    Fail(os.str());
  }
  return ok();
}

std::string CheckerSelfTest() {
  for (DhsEstimator estimator :
       {DhsEstimator::kSuperLogLog, DhsEstimator::kHyperLogLog,
        DhsEstimator::kPcsa}) {
    const std::string name = DhsEstimatorName(estimator);
    ReferenceSketch reference(/*k=*/8, /*m=*/4, estimator);
    // Hash 0x0104: vector (0x104 >> 8) & 3 = 1, rho of 0x04 = 2.
    reference.Add(7, 0x0104);
    reference.Add(7, 0x0301);  // vector 3, rho 0
    if (reference.RhoOf(0x0104) != 2 || reference.Vector(0x0104) != 1) {
      return name + ": placement rule broken";
    }
    const std::vector<int> truth = reference.Observables(7);

    Checker good(&reference);
    good.CheckAnswer(7, truth, 2.0, false, false);
    good.CheckMessages(12, 12);
    good.CheckBytes(96, 96);
    if (!good.ok()) return name + ": sound answer rejected: " + good.failure();

    std::vector<int> planted = truth;
    planted[1] += 1;
    Checker wrong_observable(&reference);
    wrong_observable.CheckAnswer(7, planted, 2.0, false, false);
    if (wrong_observable.ok()) {
      return name + ": planted wrong observable accepted";
    }

    Checker wrong_bytes(&reference);
    wrong_bytes.CheckBytes(96, 104);
    if (wrong_bytes.ok()) return name + ": planted byte mismatch accepted";

    Checker wrong_messages(&reference);
    wrong_messages.CheckMessages(13, 12);
    if (wrong_messages.ok()) {
      return name + ": planted message mismatch accepted";
    }

    if (!reference.Remove(7, 0x0104) || reference.Exact(7) != 1 ||
        reference.Remove(7, 0x0104)) {
      return name + ": live count broken";
    }
  }
  return "";
}

}  // namespace perf
}  // namespace dhs

// Output checks of the DHS benchmark, kept apart from the program.
//
// Nothing here calls into the DHS client to decide what is right:
//
//   * ReferenceSketch re-derives every item's sketch cell from the
//     placement rule documented in dhs/config.h (vector = (h >> k) mod m,
//     rho = position of the lowest set bit of the low k bits, k when they
//     are all zero) and counts live items per cell, so its observables
//     are exactly what a lossless world would hold. Served observables
//     may be lower (a missed probe, an aged-out tuple) but never higher.
//   * Checker compares served answers against that reference and the
//     exact distinct counts, and reconciles the program's own ledgers:
//     tapped charged bytes against the MessageStats byte delta, and the
//     MessageStats message delta against the cost reports.

#ifndef DHS_PERFBENCH_CHECKS_H_
#define DHS_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "dhs/config.h"

namespace dhs {
namespace perf {

/// Per-metric counts of live items per (vector, rho) cell.
class ReferenceSketch {
 public:
  ReferenceSketch(int k, int m, DhsEstimator estimator);

  /// One more live item for `metric` (distinct raw key, hash `hash`).
  void Add(uint64_t metric, uint64_t hash);
  /// A live item of `metric` aged out. False when no live item sits in
  /// the hash's cell (a bookkeeping error of the caller).
  bool Remove(uint64_t metric, uint64_t hash);

  /// The estimator's observable per vector, in the client's encoding:
  /// max rho (-1 = empty vector) for sLL/HLL, leftmost zero (k + 1 when
  /// every position is set) for PCSA.
  std::vector<int> Observables(uint64_t metric) const;

  /// Exact number of live distinct items of `metric`.
  uint64_t Exact(uint64_t metric) const;

  /// The (vector, rho) cell of a hash, by the config.h placement rule.
  int Vector(uint64_t hash) const;
  int RhoOf(uint64_t hash) const;

  int k() const { return k_; }
  int m() const { return m_; }
  DhsEstimator estimator() const { return estimator_; }

 private:
  size_t Cell(uint64_t hash) const;

  int k_;
  int m_;
  DhsEstimator estimator_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> cells_;
  std::unordered_map<uint64_t, uint64_t> live_;
};

/// Accumulates every output check of one run. A failed check keeps the
/// first failure's description; later checks still run.
class Checker {
 public:
  explicit Checker(const ReferenceSketch* reference);

  /// One served answer for one metric. `gave_up` and `degraded` come
  /// from the answer itself (gave_up, or gave_up / failed probes).
  void CheckAnswer(uint64_t metric, const std::vector<int>& served,
                   double estimate, bool gave_up, bool degraded);

  /// The network's message delta over a flush against the summed
  /// dht_lookups + direct_probes of the flush's cost reports.
  void CheckMessages(uint64_t stats_delta, uint64_t cost_sum);

  /// Summed charged_bytes of the tapped frames against the
  /// MessageStats byte delta over the same span.
  void CheckBytes(uint64_t tapped_charged, uint64_t stats_delta);

  void Fail(const std::string& what);

  /// Relative error RMS over non-degraded answers: squared errors are
  /// averaged per metric first, then over metrics, so a hot metric's
  /// thousand answers (all from one sketch) weigh as much as a cold
  /// metric's one.
  double RelErrRms() const;

  /// The accuracy bound: 2.5 standard errors of the estimator at m
  /// (PCSA 0.78, sLL 1.05, HLL 1.04 over sqrt(m)). Over at least eight
  /// independent metrics the RMS exceeds it with probability below
  /// 1e-7 when the answers are sound.
  double ErrorBound() const;

  /// Runs the end-of-run checks (the error bound); returns ok().
  bool Finish();

  bool ok() const { return failure_.empty(); }
  const std::string& failure() const { return failure_; }

  uint64_t answers() const { return answers_; }
  uint64_t observables_checked() const { return observables_checked_; }
  uint64_t observables_matched() const { return observables_matched_; }

 private:
  const ReferenceSketch* reference_;
  std::string failure_;
  uint64_t answers_ = 0;
  uint64_t observables_checked_ = 0;
  uint64_t observables_matched_ = 0;
  struct ErrorSum {
    double squared = 0.0;
    uint64_t n = 0;
  };
  std::map<uint64_t, ErrorSum> errors_;
};

/// Planted-fault self-test of the checker: a correct answer passes, an
/// observable one above the reference, a byte mismatch and a message
/// mismatch are each rejected. Returns "" on success, else what failed.
std::string CheckerSelfTest();

}  // namespace perf
}  // namespace dhs

#endif  // DHS_PERFBENCH_CHECKS_H_

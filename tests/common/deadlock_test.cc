// Runtime lock-diagnostics tests: the lock-order deadlock detector must
// flag a deliberately inverted lock pair (and a transitive cycle, and a
// self lock) through the CHECK failure hook BEFORE anything blocks,
// stay silent on consistent orderings, and the per-mutex contention
// counters must surface as labeled series in a MetricsRegistry dump
// via obs/sync_metrics.h.
//
// The detector reports by *ordering*, not by wait-for state, so every
// inversion here is provoked on a single thread — no timing window, no
// actual deadlock to escape from.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/check.h"
#include "common/sync.h"
#include "obs/metrics.h"
#include "obs/sync_metrics.h"

namespace dhs {
namespace {

/// Thrown by the test failure handler so a detector report unwinds back
/// into the test instead of aborting the process.
struct DeadlockReported : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void ThrowingHandler(const char* file, int line, const std::string& message) {
  std::ostringstream os;
  os << file << ":" << line << ": " << message;
  throw DeadlockReported(os.str());
}

class DeadlockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_handler_ = SetCheckFailureHandler(&ThrowingHandler);
    previous_enabled_ = SetDeadlockDetectorEnabled(true);
  }
  void TearDown() override {
    SetDeadlockDetectorEnabled(previous_enabled_);
    SetCheckFailureHandler(previous_handler_);
  }

  /// Runs fn, expecting it to trip the detector; returns the report
  /// (file:line prefix plus the message).
  template <typename Fn>
  std::string Report(Fn&& fn) {
    try {
      fn();
    } catch (const DeadlockReported& fired) {
      return fired.what();
    }
    ADD_FAILURE() << "no deadlock report fired";
    return std::string();
  }

 private:
  CheckFailureHandler previous_handler_ = nullptr;
  bool previous_enabled_ = false;
};

TEST_F(DeadlockTest, AbBaInversionIsCaughtBeforeBlocking) {
  Mutex a{"dl_inv_a"};
  Mutex b{"dl_inv_b"};
  // Establish the ordering a -> b.
  a.Lock();
  b.Lock();
  b.Unlock();
  a.Unlock();
  // The inverted acquisition fires at the a.Lock() below, while this
  // thread still holds b — before the native lock is even attempted.
  b.Lock();
  const std::string report = Report([&] { a.Lock(); });
  b.Unlock();
  EXPECT_NE(report.find("DEADLOCK"), std::string::npos) << report;
  EXPECT_NE(report.find("lock-order inversion"), std::string::npos) << report;
  // Both mutex names and the acquisition sites of both sides (all in
  // this file) appear in the report.
  EXPECT_NE(report.find("dl_inv_a"), std::string::npos) << report;
  EXPECT_NE(report.find("dl_inv_b"), std::string::npos) << report;
  EXPECT_NE(report.find("deadlock_test.cc"), std::string::npos) << report;
}

TEST_F(DeadlockTest, TransitiveCycleIsCaughtWithWitnessPath) {
  Mutex a{"dl_tr_a"};
  Mutex b{"dl_tr_b"};
  Mutex c{"dl_tr_c"};
  a.Lock();
  b.Lock();
  b.Unlock();
  a.Unlock();  // a -> b
  b.Lock();
  c.Lock();
  c.Unlock();
  b.Unlock();  // b -> c
  // Acquiring a while holding c closes the cycle a ~> c through b; the
  // witness path in the report names every mutex on it.
  c.Lock();
  const std::string report = Report([&] { a.Lock(); });
  c.Unlock();
  EXPECT_NE(report.find("lock-order inversion"), std::string::npos) << report;
  for (const char* name : {"dl_tr_a", "dl_tr_b", "dl_tr_c"}) {
    EXPECT_NE(report.find(name), std::string::npos)
        << name << " missing from: " << report;
  }
}

TEST_F(DeadlockTest, SelfLockIsCaught) {
  Mutex mu{"dl_self"};
  mu.Lock();
  const std::string report = Report([&] { mu.Lock(); });
  mu.Unlock();
  EXPECT_NE(report.find("self deadlock"), std::string::npos) << report;
  EXPECT_NE(report.find("dl_self"), std::string::npos) << report;
}

TEST_F(DeadlockTest, ConsistentOrderingPassesCleanly) {
  // The same nesting repeated must never fire: the graph records the
  // ordering once and every later acquisition agrees with it.
  Mutex outer{"dl_ok_outer"};
  Mutex inner{"dl_ok_inner"};
  for (int i = 0; i < 100; ++i) {
    MutexLock lock_outer(outer);
    MutexLock lock_inner(inner);
  }
  // TryLock never blocks, so it participates in no ordering: a failed
  // or successful try in inverted order is legal.
  inner.Lock();
  EXPECT_TRUE(outer.TryLock());
  outer.Unlock();
  inner.Unlock();
}

TEST_F(DeadlockTest, RuntimeToggleSuspendsOrderTracking) {
  SetDeadlockDetectorEnabled(false);
  Mutex a{"dl_off_a"};
  Mutex b{"dl_off_b"};
  a.Lock();
  b.Lock();
  b.Unlock();
  a.Unlock();
  // Inverted, but untracked while the detector is off: no report.
  b.Lock();
  a.Lock();
  a.Unlock();
  b.Unlock();
  // The self-lock and misuse checks are not part of the order graph and
  // stay armed regardless of the toggle.
  Mutex mu{"dl_off_self"};
  mu.Lock();
  const std::string report = Report([&] { mu.Lock(); });
  mu.Unlock();
  EXPECT_NE(report.find("self deadlock"), std::string::npos) << report;
}

TEST_F(DeadlockTest, CondVarWaitKeepsHeldStackConsistent) {
  struct State {
    Mutex mu{"dl_cv"};
    CondVar cv;
    bool ready GUARDED_BY(mu) = false;
  } state;
  // det-lint: allow(raw-threading) — a second thread must signal the wait
  std::thread signaler([&state] {
    MutexLock lock(state.mu);
    state.ready = true;
    state.cv.SignalAll();
  });
  {
    MutexLock lock(state.mu);
    state.cv.Wait(state.mu, [&state]() NO_THREAD_SAFETY_ANALYSIS {
      return state.ready;
    });
    // Wait() re-acquired the native lock without going through
    // Mutex::Lock; the held entry stayed in place, so the thread still
    // counts as holding mu — AssertHeld passes and taking another mutex
    // sees a consistent stack (and records the ordering mu -> nested).
    state.mu.AssertHeld();
    Mutex nested{"dl_cv_nested"};
    MutexLock inner(nested);
  }
  signaler.join();
}

TEST_F(DeadlockTest, AssertHeldFiresWhenNotHeld) {
  Mutex mu{"dl_assert"};
  const std::string report = Report([&] { mu.AssertHeld(); });
  EXPECT_NE(report.find("AssertHeld"), std::string::npos) << report;
  EXPECT_NE(report.find("dl_assert"), std::string::npos) << report;
  mu.Lock();
  mu.AssertHeld();  // held: silent
  mu.Unlock();
}

TEST_F(DeadlockTest, UnlockByNonHolderIsFlagged) {
  Mutex mu{"dl_unheld"};
  const std::string report = Report([&] { mu.Unlock(); });
  EXPECT_NE(report.find("does not hold"), std::string::npos) << report;
  EXPECT_NE(report.find("dl_unheld"), std::string::npos) << report;
}

TEST_F(DeadlockTest, HeldStackOverflowNamesTheLocksHeld) {
  std::deque<Mutex> held;
  held.emplace_back("dl_cap_first");
  while (held.size() < sync_internal::kMaxHeldLocks) {
    held.emplace_back("dl_cap");
  }
  Mutex one_more{"dl_cap_overflow"};
  const auto lock_all = [&held]() NO_THREAD_SAFETY_ANALYSIS {
    for (Mutex& mu : held) mu.Lock();
  };
  const auto unlock_all = [&held]() NO_THREAD_SAFETY_ANALYSIS {
    for (auto it = held.rbegin(); it != held.rend(); ++it) it->Unlock();
  };
  lock_all();
  const std::string report = Report(
      [&one_more]() NO_THREAD_SAFETY_ANALYSIS { one_more.Lock(); });
  unlock_all();
  EXPECT_NE(report.find("dl_cap_overflow"), std::string::npos) << report;
  EXPECT_NE(report.find("dl_cap_first"), std::string::npos) << report;
  EXPECT_NE(report.find("holding 32 locks"), std::string::npos) << report;
  // The report fired before the native lock was touched.
  const auto relock = [&one_more]() NO_THREAD_SAFETY_ANALYSIS {
    const bool locked = one_more.TryLock();
    if (locked) one_more.Unlock();
    return locked;
  };
  EXPECT_TRUE(relock());
}

TEST_F(DeadlockTest, ContentionCountersSurfaceInMetricsDump) {
  Mutex mu{"dl_profile"};
  for (int i = 0; i < 5; ++i) {
    MutexLock lock(mu);
  }

  auto profile_of = [](const char* name) {
    for (const MutexProfile& p : SnapshotMutexProfiles()) {
      if (std::string(p.name) == name) return p;
    }
    return MutexProfile{};
  };
  EXPECT_GE(profile_of("dl_profile").acquisitions, 5u);

  // Force at least one genuinely contended acquisition: the holder
  // takes the lock, the main thread queues up behind it. The handshake
  // plus sleep makes a miss (holder releasing before the main thread
  // attempts the lock) vanishingly unlikely; retry on the off chance.
  for (int attempt = 0; attempt < 50; ++attempt) {
    std::atomic<bool> held{false};
    // det-lint: allow(raw-threading) — contention needs a second thread
    std::thread holder([&] {
      mu.Lock();
      held.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      mu.Unlock();
    });
    while (!held.load()) {
    }
    mu.Lock();
    mu.Unlock();
    holder.join();
    if (profile_of("dl_profile").contended >= 1) break;
  }
  const MutexProfile profile = profile_of("dl_profile");
  EXPECT_GE(profile.contended, 1u);
  EXPECT_GT(profile.wait_ns, 0u);

  // The profile becomes three labeled counter series in the registry.
  MetricsRegistry registry;
  ExportSyncMetrics(&registry);
  std::ostringstream dump;
  registry.WriteJson(dump);
  const std::string json = dump.str();
  for (const char* series :
       {"sync_mutex_acquisitions_total{mutex=dl_profile}",
        "sync_mutex_contended_total{mutex=dl_profile}",
        "sync_mutex_wait_ticks_total{mutex=dl_profile}"}) {
    EXPECT_NE(json.find(series), std::string::npos)
        << series << " missing from dump: " << json;
  }

  // Idempotent export: a second call raises to the snapshot instead of
  // double-counting (no lock activity on dl_profile in between).
  Counter* acq = registry.GetCounter("sync_mutex_acquisitions_total",
                                     {{"mutex", "dl_profile"}});
  const uint64_t after_first = acq->value();
  ExportSyncMetrics(&registry);
  EXPECT_EQ(acq->value(), after_first);
}

}  // namespace
}  // namespace dhs

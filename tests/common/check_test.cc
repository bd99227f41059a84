#include "common/check.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/status.h"

namespace dhs {
namespace {

/// Thrown by the test failure handler so a failing CHECK unwinds back
/// into the test instead of aborting.
struct CheckFired : std::runtime_error {
  explicit CheckFired(const std::string& what) : std::runtime_error(what) {}
};

void ThrowingHandler(const char* file, int line, const std::string& message) {
  (void)file;
  (void)line;
  throw CheckFired(message);
}

class CheckTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_ = SetCheckFailureHandler(&ThrowingHandler); }
  void TearDown() override { SetCheckFailureHandler(previous_); }

  /// Runs `fn`, expecting it to trip a CHECK; returns the failure message.
  template <typename Fn>
  std::string FailureMessage(Fn&& fn) {
    try {
      fn();
    } catch (const CheckFired& fired) {
      return fired.what();
    }
    ADD_FAILURE() << "no CHECK fired";
    return std::string();
  }

 private:
  CheckFailureHandler previous_ = nullptr;
};

TEST_F(CheckTest, PassingChecksAreSilent) {
  CHECK(true);
  CHECK(1 + 1 == 2) << "never rendered";
  CHECK_EQ(4, 2 + 2);
  CHECK_NE(1, 2);
  CHECK_LT(1, 2);
  CHECK_LE(2, 2);
  CHECK_GT(3, 2);
  CHECK_GE(3, 3);
  CHECK_OK(Status::OK());
  DCHECK(true);
  DCHECK_OK(Status::OK());
}

TEST_F(CheckTest, FailureCarriesExpressionAndStreamedContext) {
  const std::string msg = FailureMessage([] {
    const int x = 41;
    CHECK(x == 42) << "x was " << x;
  });
  EXPECT_NE(msg.find("CHECK failed: x == 42"), std::string::npos) << msg;
  EXPECT_NE(msg.find("x was 41"), std::string::npos) << msg;
  EXPECT_EQ(msg, "CHECK failed: x == 42: x was 41");
  // Without streamed context the message ends at the expression.
  EXPECT_EQ(FailureMessage([] {
              const int y = 1;
              CHECK(y == 2);
            }),
            "CHECK failed: y == 2");
}

TEST_F(CheckTest, BinaryFailureRendersBothOperands) {
  const std::string msg = FailureMessage([] {
    const size_t a = 3;
    const size_t b = 7;
    CHECK_EQ(a, b) << "sizes diverged";
  });
  EXPECT_NE(msg.find("CHECK_EQ failed"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(3 vs 7)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("sizes diverged"), std::string::npos) << msg;
  EXPECT_EQ(msg, "CHECK_EQ failed: a == b (3 vs 7): sizes diverged");
}

TEST_F(CheckTest, CheckOkRendersStatusText) {
  const std::string msg = FailureMessage(
      [] { CHECK_OK(Status::NotFound("no such record")) << "during audit"; });
  EXPECT_NE(msg.find("CHECK_OK failed"), std::string::npos) << msg;
  EXPECT_NE(msg.find("no such record"), std::string::npos) << msg;
  EXPECT_NE(msg.find("during audit"), std::string::npos) << msg;
  EXPECT_EQ(msg,
            "CHECK_OK failed: Status::NotFound(\"no such record\") "
            "NotFound: no such record: during audit");
}

TEST_F(CheckTest, CheckOkAcceptsStatusOr) {
  StatusOr<int> good(7);
  CHECK_OK(good);
  const std::string msg = FailureMessage([] {
    StatusOr<int> bad(Status::InvalidArgument("bad input"));
    CHECK_OK(bad);
  });
  EXPECT_NE(msg.find("bad input"), std::string::npos) << msg;
}

TEST_F(CheckTest, CheckOkEvaluatesArgumentOnce) {
  int evaluations = 0;
  const auto make_status = [&evaluations] {
    ++evaluations;
    return Status::OK();
  };
  CHECK_OK(make_status());
  EXPECT_EQ(evaluations, 1);
}

TEST_F(CheckTest, UsableInUnbracedIfElse) {
  const bool flag = true;
  if (flag)
    CHECK(true) << "then-branch";
  else
    CHECK(false) << "else-branch";
  SUCCEED();
}

TEST_F(CheckTest, CharOperandsPrintNumerically) {
  const std::string msg = FailureMessage([] {
    const unsigned char got = 0x07;
    const unsigned char want = 0x0a;
    CHECK_EQ(got, want);
  });
  EXPECT_NE(msg.find("(7 vs 10)"), std::string::npos) << msg;
}

TEST_F(CheckTest, HandlerRestoreWorks) {
  // TearDown restores the previous handler; verify Set returns ours.
  CheckFailureHandler current = SetCheckFailureHandler(&ThrowingHandler);
  EXPECT_EQ(current, &ThrowingHandler);
}

TEST_F(CheckTest, HandlerInstallFromTwoThreadsIsRaceFree) {
  // The handler slot is a single atomic pointer: two threads installing
  // the same handler concurrently — while both also trip CHECKs — must
  // neither tear the slot nor lose a failure. Every Set call returns
  // some previously installed handler (here always &ThrowingHandler,
  // since both threads install it and SetUp already did).
  std::atomic<int> fired{0};
  std::atomic<bool> bad_previous{false};
  auto contender = [&fired, &bad_previous] {
    for (int i = 0; i < 500; ++i) {
      CheckFailureHandler prev = SetCheckFailureHandler(&ThrowingHandler);
      if (prev != &ThrowingHandler) bad_previous.store(true);
      try {
        CHECK(false) << "install race probe " << i;
      } catch (const CheckFired&) {
        fired.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  // det-lint: allow(raw-threading) — exercises the CHECK handler under real thread contention
  std::thread a(contender);
  // det-lint: allow(raw-threading) — exercises the CHECK handler under real thread contention
  std::thread b(contender);
  a.join();
  b.join();
  EXPECT_FALSE(bad_previous.load());
  EXPECT_EQ(fired.load(), 2 * 500);
  // TearDown restores the fixture's saved handler.
}

}  // namespace
}  // namespace dhs

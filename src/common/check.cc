#include "common/check.h"

#include <atomic>
#include <cstdio>

namespace dhs {
namespace {

void DefaultCheckFailureHandler(const char* file, int line,
                                const std::string& message) {
  std::fprintf(stderr, "%s:%d: %s\n", file, line, message.c_str());
  std::fflush(stderr);
  std::abort();
}

// Atomic so CHECKs failing on one thread race neither with each other
// nor with a concurrent SetCheckFailureHandler (tests install throwing
// handlers; the parallel trial runner can fail CHECKs on any worker).
std::atomic<CheckFailureHandler> g_handler{&DefaultCheckFailureHandler};

}  // namespace

CheckFailureHandler SetCheckFailureHandler(CheckFailureHandler handler) {
  return g_handler.exchange(
      handler != nullptr ? handler : &DefaultCheckFailureHandler,
      std::memory_order_acq_rel);
}

namespace check_internal {

FailureStream::FailureStream(const char* file, int line, const char* prefix,
                             const std::string& detail)
    : file_(file), line_(line) {
  message_ << prefix << detail;
}

FailureStream::~FailureStream() noexcept(false) {
  g_handler.load(std::memory_order_acquire)(file_, line_, message_.str());
  // A handler that returns would let execution continue past a violated
  // invariant; refuse.
  std::abort();
}

}  // namespace check_internal
}  // namespace dhs

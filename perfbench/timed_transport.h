// The traced run's transport: wraps the real backend, forwards every
// call unchanged, and times it. It also keeps a bounded sample of the
// frames it forwarded so the replay phase can time the codec, the
// store read and the routed lookup on real traffic.

#ifndef DHS_PERFBENCH_TIMED_TRANSPORT_H_
#define DHS_PERFBENCH_TIMED_TRANSPORT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dht/transport.h"

namespace dhs {
namespace perf {

class TimedTransport final : public Transport {
 public:
  enum Op : uint8_t { kRoute, kSend, kQuery };
  struct Captured {
    Op op = kRoute;
    uint64_t from = 0;  // origin (route), sender (send); unused for query
    uint64_t to = 0;    // receiver (send), queried node (query)
    std::string frame;
    std::string reply;  // empty when the call failed
  };

  TimedTransport(std::shared_ptr<Transport> inner, size_t capture_limit)
      : inner_(std::move(inner)), capture_limit_(capture_limit) {}

  const char* name() const override { return inner_->name(); }

  StatusOr<Delivery> Route(uint64_t origin_node,
                           const std::string& frame) override {
    const auto t0 = Clock::now();
    StatusOr<Delivery> out = inner_->Route(origin_node, frame);
    Account(t0);
    if (out.ok()) {
      ++routes_delivered_;
      route_hops_ += static_cast<uint64_t>(out->hops);
    }
    Capture(kRoute, origin_node, 0, frame,
            out.ok() ? &out->response : nullptr);
    return out;
  }

  StatusOr<Delivery> Send(uint64_t from_node, uint64_t to_node,
                          const std::string& frame) override {
    const auto t0 = Clock::now();
    StatusOr<Delivery> out = inner_->Send(from_node, to_node, frame);
    Account(t0);
    Capture(kSend, from_node, to_node, frame,
            out.ok() ? &out->response : nullptr);
    return out;
  }

  StatusOr<std::string> Query(uint64_t node,
                              const std::string& frame) override {
    const auto t0 = Clock::now();
    StatusOr<std::string> out = inner_->Query(node, frame);
    Account(t0);
    Capture(kQuery, 0, node, frame, out.ok() ? &out.value() : nullptr);
    return out;
  }

  /// Drops what was captured so far and captures from here on (the
  /// frames of set-up and warm-up are not the workload's).
  void StartCapture() {
    captured_.clear();
    capturing_ = true;
  }

  void set_frame_tap(FrameTap tap) override {
    inner_->set_frame_tap(std::move(tap));
  }

  uint64_t calls() const { return calls_; }
  double busy_s() const { return static_cast<double>(busy_ns_) * 1e-9; }
  uint64_t routes_delivered() const { return routes_delivered_; }
  uint64_t route_hops() const { return route_hops_; }
  const std::vector<Captured>& captured() const { return captured_; }

 private:
  using Clock = std::chrono::steady_clock;

  void Account(Clock::time_point t0) {
    busy_ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    ++calls_;
  }

  void Capture(Op op, uint64_t from, uint64_t to, const std::string& frame,
               const std::string* reply) {
    if (!capturing_ || captured_.size() >= capture_limit_) return;
    captured_.push_back(
        Captured{op, from, to, frame, reply != nullptr ? *reply : ""});
  }

  std::shared_ptr<Transport> inner_;
  size_t capture_limit_;
  bool capturing_ = false;
  uint64_t calls_ = 0;
  uint64_t busy_ns_ = 0;
  uint64_t routes_delivered_ = 0;
  uint64_t route_hops_ = 0;
  std::vector<Captured> captured_;
};

}  // namespace perf
}  // namespace dhs

#endif  // DHS_PERFBENCH_TIMED_TRANSPORT_H_

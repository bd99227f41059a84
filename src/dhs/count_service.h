// Count service: serves kCountRequest wire frames by running the local
// DhsClient's multi-metric count and encoding the result as a
// kCountResponse frame.
//
// This is the piece of frame serving that cannot live in the transport
// layer: answering a count means executing the paper's probe walks
// through a DhsClient, and src/dht/ sits below src/dhs/ in the layering
// DAG (ServeFrame in dht/transport.cc rejects kCountRequest for exactly
// this reason). A deployment stacks one DhsCountService per entry
// node on top of whatever Transport the node speaks; remote callers
// encode a kCountRequest, ship it over the wire, and decode estimates
// from the kCountResponse without holding any DHS state themselves.

#ifndef DHS_DHS_COUNT_SERVICE_H_
#define DHS_DHS_COUNT_SERVICE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/random.h"
#include "common/status.h"
#include "dhs/client.h"

namespace dhs {

class DhsCountService {
 public:
  /// The client must outlive the service.
  explicit DhsCountService(DhsClient* client) : client_(client) {}

  /// Decodes a kCountRequest frame, runs CountMany from origin_node and
  /// returns the encoded kCountResponse. Malformed frames and count
  /// failures surface as errors; a degraded count (gave_up) is still a
  /// successful response carrying the gave-up flag.
  [[nodiscard]] StatusOr<std::string> Handle(uint64_t origin_node,
                                             std::string_view request_frame,
                                             Rng& rng);

 private:
  DhsClient* client_;
};

}  // namespace dhs

#endif  // DHS_DHS_COUNT_SERVICE_H_

#include "dht/loopback.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <utility>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/status.h"
#include "dht/wire.h"

namespace dhs {

namespace {

constexpr uint8_t kOpRoute = 1;
constexpr uint8_t kOpSend = 2;
constexpr uint8_t kOpQuery = 3;

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  CHECK(flags >= 0) << "loopback: fcntl(F_GETFL) failed";
  CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0)
      << "loopback: fcntl(F_SETFL) failed";
}

// Nonblocking write of as much of buf[pos..] as the socket accepts.
size_t TryWrite(int fd, const std::string& buf, size_t pos) {
  size_t written = 0;
  while (pos + written < buf.size()) {
    const ssize_t n = ::write(fd, buf.data() + pos + written,
                              buf.size() - pos - written);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    CHECK(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        << "loopback: socket write failed";
    break;
  }
  return written;
}

// Nonblocking drain of everything currently readable into out. A read
// shorter than the chunk has emptied the socket (one thread does all the
// writing, so nothing arrives meanwhile); only a full chunk costs
// another read.
bool TryRead(int fd, std::string& out) {
  char chunk[16384];
  bool any = false;
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      out.append(chunk, static_cast<size_t>(n));
      any = true;
      if (static_cast<size_t>(n) < sizeof(chunk)) return true;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    CHECK(n != 0) << "loopback: socket closed mid-session";
    CHECK(errno == EAGAIN || errno == EWOULDBLOCK)
        << "loopback: socket read failed";
    return any;
  }
}

// True once buf holds one complete length-prefixed record; sets len.
bool HaveRecord(const std::string& buf, size_t& len) {
  if (buf.size() < 4) return false;
  len = LoadLE32(buf.data());
  return buf.size() >= 4 + len;
}

Status StatusFromRecord(uint8_t code, const std::string& message) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case StatusCode::kUnavailable:
      return Status::Unavailable(message);
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    case StatusCode::kInternal:
      return Status::Internal(message);
  }
  return Status::Internal("loopback: unknown status code in response");
}

// Encodes a response record (without the leading length field yet).
std::string ResponseRecord(const Status& status, uint64_t node, int hops,
                           const std::string& frame) {
  std::string body;
  body.push_back(status.ok() ? char{1} : char{0});
  body.push_back(static_cast<char>(status.code()));
  const std::string& msg = status.message();
  CHECK(msg.size() <= 0xffff) << "loopback: status message too long";
  AppendLE16(body, static_cast<uint16_t>(msg.size()));
  body.append(msg);
  AppendLE64(body, node);
  CHECK(hops >= 0 && hops <= 0xffff) << "loopback: hops out of range";
  AppendLE16(body, static_cast<uint16_t>(hops));
  body.append(frame);
  std::string record;
  AppendLE32(record, static_cast<uint32_t>(body.size()));
  record.append(body);
  return record;
}

}  // namespace

LoopbackTransport::LoopbackTransport(DhtNetwork* network)
    : sim_(network, "loopback") {
  int fds[2];
  CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0)
      << "loopback: socketpair failed";
  client_fd_ = fds[0];
  server_fd_ = fds[1];
  SetNonBlocking(client_fd_);
  SetNonBlocking(server_fd_);
}

LoopbackTransport::~LoopbackTransport() {
  if (client_fd_ >= 0) ::close(client_fd_);
  if (server_fd_ >= 0) ::close(server_fd_);
}

void LoopbackTransport::set_frame_tap(FrameTap tap) {
  // Frames are observed where they are served (the server half), which
  // is also where every MessageStats charge happens.
  sim_.set_frame_tap(std::move(tap));
}

std::string LoopbackTransport::ServeRecord(const std::string& record) {
  CHECK(record.size() >= 1 + 8 + 8) << "loopback: malformed request record";
  const uint8_t op = static_cast<uint8_t>(record[0]);
  const uint64_t from = LoadLE64(record.data() + 1);
  const uint64_t to = LoadLE64(record.data() + 9);
  const std::string frame = record.substr(17);
  switch (op) {
    case kOpRoute: {
      auto delivery = sim_.Route(from, frame);
      if (!delivery.ok()) {
        return ResponseRecord(delivery.status(), 0, 0, std::string());
      }
      return ResponseRecord(Status::OK(), delivery->node, delivery->hops,
                            delivery->response);
    }
    case kOpSend: {
      auto delivery = sim_.Send(from, to, frame);
      if (!delivery.ok()) {
        return ResponseRecord(delivery.status(), 0, 0, std::string());
      }
      return ResponseRecord(Status::OK(), delivery->node, delivery->hops,
                            delivery->response);
    }
    case kOpQuery: {
      auto response = sim_.Query(to, frame);
      if (!response.ok()) {
        return ResponseRecord(response.status(), 0, 0, std::string());
      }
      return ResponseRecord(Status::OK(), to, 0, *response);
    }
    default:
      return ResponseRecord(
          Status::InvalidArgument("loopback: unknown session op"), 0, 0,
          std::string());
  }
}

bool LoopbackTransport::ServerStep() {
  bool progressed = false;
  // Flush any staged response bytes first so the client can drain them.
  if (!server_out_.empty()) {
    const size_t n = TryWrite(server_fd_, server_out_, 0);
    if (n > 0) {
      server_out_.erase(0, n);
      progressed = true;
    }
  }
  if (TryRead(server_fd_, server_in_)) progressed = true;
  size_t len = 0;
  while (HaveRecord(server_in_, len)) {
    const std::string record = server_in_.substr(4, len);
    server_in_.erase(0, 4 + len);
    server_out_.append(ServeRecord(record));
    progressed = true;
  }
  if (!server_out_.empty()) {
    const size_t n = TryWrite(server_fd_, server_out_, 0);
    if (n > 0) {
      server_out_.erase(0, n);
      progressed = true;
    }
  }
  return progressed;
}

StatusOr<std::string> LoopbackTransport::RoundTrip(uint8_t op, uint64_t from,
                                                   uint64_t to,
                                                   const std::string& frame) {
  std::string request;
  std::string body;
  body.push_back(static_cast<char>(op));
  AppendLE64(body, from);
  AppendLE64(body, to);
  body.append(frame);
  CHECK(body.size() <= UINT32_MAX) << "loopback: request record too large";
  AppendLE32(request, static_cast<uint32_t>(body.size()));
  request.append(body);

  size_t sent = 0;
  std::string response;
  size_t len = 0;
  while (!HaveRecord(response, len)) {
    bool progressed = false;
    if (sent < request.size()) {
      const size_t n = TryWrite(client_fd_, request, sent);
      sent += n;
      if (n > 0) progressed = true;
    }
    if (ServerStep()) progressed = true;
    if (TryRead(client_fd_, response)) progressed = true;
    // Strictly sequential request/response over an in-process pair:
    // every iteration must move bytes somewhere until the response is
    // complete, or the session is wedged.
    CHECK(progressed) << "loopback: session made no progress";
  }
  socket_bytes_sent_ += request.size();
  socket_bytes_received_ += 4 + len;
  CHECK(response.size() == 4 + len)
      << "loopback: unexpected trailing response bytes";

  // Decode the response record.
  const char* p = response.data() + 4;
  const uint8_t ok = static_cast<uint8_t>(p[0]);
  const uint8_t code = static_cast<uint8_t>(p[1]);
  const uint16_t msg_len = LoadLE16(p + 2);
  CHECK(len >= size_t{14} + msg_len) << "loopback: malformed response record";
  const std::string message(p + 4, msg_len);
  if (ok == 0) {
    Status status = StatusFromRecord(code, message);
    CHECK(!status.ok()) << "loopback: error response with OK code";
    return status;
  }
  return response.substr(4, len);  // caller slices node/hops/frame
}

StatusOr<Transport::Delivery> LoopbackTransport::Route(
    uint64_t origin_node, const std::string& frame) {
  auto record = RoundTrip(kOpRoute, origin_node, 0, frame);
  if (!record.ok()) return record.status();
  const char* p = record->data();
  const uint16_t msg_len = LoadLE16(p + 2);
  Delivery delivery;
  delivery.node = LoadLE64(p + 4 + msg_len);
  delivery.hops = LoadLE16(p + 12 + msg_len);
  delivery.response = record->substr(size_t{14} + msg_len);
  return delivery;
}

StatusOr<Transport::Delivery> LoopbackTransport::Send(
    uint64_t from_node, uint64_t to_node, const std::string& frame) {
  auto record = RoundTrip(kOpSend, from_node, to_node, frame);
  if (!record.ok()) return record.status();
  const char* p = record->data();
  const uint16_t msg_len = LoadLE16(p + 2);
  Delivery delivery;
  delivery.node = LoadLE64(p + 4 + msg_len);
  delivery.hops = LoadLE16(p + 12 + msg_len);
  delivery.response = record->substr(size_t{14} + msg_len);
  return delivery;
}

StatusOr<std::string> LoopbackTransport::Query(uint64_t node,
                                               const std::string& frame) {
  auto record = RoundTrip(kOpQuery, 0, node, frame);
  if (!record.ok()) return record.status();
  const uint16_t msg_len = LoadLE16(record->data() + 2);
  return record->substr(size_t{14} + msg_len);
}

}  // namespace dhs

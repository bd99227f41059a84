// MD4 message digest (RFC 1320), implemented from the specification.
//
// The paper's evaluation creates node and item IDs with MD4 ("selected due
// to its speed on 32-bit CPUs"). MD4 is cryptographically broken and is
// used here only as the paper's pseudo-uniform hash; see hasher.h for the
// general hashing interface.

#ifndef DHS_HASHING_MD4_H_
#define DHS_HASHING_MD4_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dhs {

/// Incremental MD4 hasher. Usage:
///   Md4 md4;
///   md4.Update(data, len);
///   Md4::Digest d = md4.Finalize();
/// Finalize() may be called once; afterwards the object must be Reset().
class Md4 {
 public:
  using Digest = std::array<uint8_t, 16>;

  Md4() { Reset(); }

  /// Restores the initial state so the object can hash a new message.
  void Reset();

  /// Appends `len` bytes of message data.
  void Update(const void* data, size_t len);
  void Update(std::string_view data) { Update(data.data(), data.size()); }

  /// Completes padding and returns the 128-bit digest.
  Digest Finalize();

  /// One-shot convenience.
  static Digest Hash(std::string_view data);
  static Digest Hash(const void* data, size_t len);

  /// Digest rendered as 32 lowercase hex characters.
  static std::string ToHex(const Digest& digest);

  /// First 8 digest bytes interpreted as a little-endian uint64 — the
  /// L-bit ID derivation used by the DHT layer.
  static uint64_t DigestToU64(const Digest& digest);

  /// DigestToU64(Hash(8 little-endian bytes of value)), computed as the
  /// single padded block it is.
  static uint64_t HashU64(uint64_t value);

 private:
  void ProcessBlock(const uint8_t block[64]);

  /// The MD4 compression function over one block of 16 LE words.
  static void Compress(uint32_t state[4], const uint32_t x[16]);

  uint32_t state_[4];
  uint64_t total_len_ = 0;     // message length in bytes
  uint8_t buffer_[64];         // partial block
  size_t buffer_len_ = 0;
};

}  // namespace dhs

#endif  // DHS_HASHING_MD4_H_

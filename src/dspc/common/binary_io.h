// Little-endian binary readers/writers with CRC32 framing, used by the
// index and graph serialization code. All fallible operations return
// Status (never throw).

#ifndef DSPC_COMMON_BINARY_IO_H_
#define DSPC_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "dspc/common/status.h"

namespace dspc {

/// CRC32 (IEEE 802.3 polynomial, reflected) over a byte buffer; `seed`
/// allows incremental computation by chaining calls.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// CRC32C (Castagnoli polynomial, reflected) — the WAL record checksum.
/// Uses the SSE4.2 crc32 instruction when the build targets it (the
/// repo-wide -march=x86-64-v2 does), falling back to a table otherwise.
/// Same chaining convention as Crc32.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

/// Buffered binary writer. Accumulates into memory, then flushes to a file
/// with a trailing CRC32 so corrupt files are rejected at load time.
class BinaryWriter {
 public:
  void PutU8(uint8_t v) { Append(&v, 1); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// Length-prefixed string.
  void PutString(const std::string& s);
  /// Raw bytes, no length prefix.
  void Append(const void* data, size_t n);

  const std::vector<uint8_t>& buffer() const { return buffer_; }
  /// For encoders that fill a region in place (the snapshot arena).
  std::vector<uint8_t>* mutable_buffer() { return &buffer_; }

  /// Writes the buffer followed by its CRC32 to `path`.
  Status WriteToFile(const std::string& path) const;

 private:
  std::vector<uint8_t> buffer_;
};

/// Binary reader over an in-memory buffer. Out-of-bounds reads flip the
/// reader into a failed state instead of invoking UB; check status() after
/// a parse.
class BinaryReader {
 public:
  explicit BinaryReader(std::vector<uint8_t> data) : data_(std::move(data)) {}

  /// Reads `path`, verifies the trailing CRC32, and returns a reader over
  /// the payload.
  static Status ReadFromFile(const std::string& path, BinaryReader* out);

  uint8_t GetU8();
  uint32_t GetU32();
  uint64_t GetU64();
  std::string GetString();
  /// Raw byte run (counterpart of Append); same failure contract.
  bool GetBytes(void* out, size_t n);

  /// True when all payload bytes have been consumed and no read failed.
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }
  /// Hands back the whole buffer (read position ignored), for callers
  /// that pass a framed file's payload on to its own decoder.
  std::vector<uint8_t> Release() && { return std::move(data_); }
  Status status() const {
    return ok_ ? Status::OK() : Status::Corruption("binary reader overrun");
  }

 private:
  bool Ensure(size_t n);

  std::vector<uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace dspc

#endif  // DSPC_COMMON_BINARY_IO_H_

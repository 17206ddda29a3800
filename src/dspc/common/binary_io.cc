#include "dspc/common/binary_io.h"

#include <array>
#include <cstring>

#ifdef __SSE4_2__
#include <nmmintrin.h>
#endif

namespace dspc {

namespace {

std::array<uint32_t, 256> BuildCrcTable(uint32_t poly) {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (poly ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

const std::array<uint32_t, 256>& CrcTable() {
  static const std::array<uint32_t, 256> table = BuildCrcTable(0xEDB88320U);
  return table;
}

#ifndef __SSE4_2__
const std::array<uint32_t, 256>& Crc32cTable() {
  static const std::array<uint32_t, 256> table = BuildCrcTable(0x82F63B78U);
  return table;
}
#endif

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFU;
  const auto& table = CrcTable();
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFU;
#ifdef __SSE4_2__
  uint64_t c64 = c;
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    c64 = _mm_crc32_u64(c64, chunk);
    p += 8;
    n -= 8;
  }
  c = static_cast<uint32_t>(c64);
  while (n > 0) {
    c = _mm_crc32_u8(c, *p++);
    --n;
  }
#else
  const auto& table = Crc32cTable();
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
#endif
  return c ^ 0xFFFFFFFFU;
}

void BinaryWriter::PutU32(uint32_t v) {
  uint8_t b[4] = {static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8),
                  static_cast<uint8_t>(v >> 16), static_cast<uint8_t>(v >> 24)};
  Append(b, sizeof(b));
}

void BinaryWriter::PutU64(uint64_t v) {
  PutU32(static_cast<uint32_t>(v));
  PutU32(static_cast<uint32_t>(v >> 32));
}

void BinaryWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  Append(s.data(), s.size());
}

void BinaryWriter::Append(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  buffer_.insert(buffer_.end(), p, p + n);
}

Status BinaryWriter::WriteToFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open for writing: " + path);
  }
  bool ok = true;
  if (!buffer_.empty()) {
    ok = std::fwrite(buffer_.data(), 1, buffer_.size(), f) == buffer_.size();
  }
  const uint32_t crc = Crc32(buffer_.data(), buffer_.size());
  uint8_t tail[4] = {static_cast<uint8_t>(crc), static_cast<uint8_t>(crc >> 8),
                     static_cast<uint8_t>(crc >> 16),
                     static_cast<uint8_t>(crc >> 24)};
  ok = ok && std::fwrite(tail, 1, sizeof(tail), f) == sizeof(tail);
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return Status::IOError("short write: " + path);
  return Status::OK();
}

Status BinaryReader::ReadFromFile(const std::string& path, BinaryReader* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open for reading: " + path);
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::IOError("cannot seek: " + path);
  }
  const long size = std::ftell(f);
  if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IOError("cannot stat: " + path);
  }
  if (size < 4) {
    std::fclose(f);
    return Status::Corruption("file too small: " + path);
  }
  std::vector<uint8_t> data(static_cast<size_t>(size));
  const bool ok = std::fread(data.data(), 1, data.size(), f) == data.size();
  std::fclose(f);
  if (!ok) return Status::IOError("short read: " + path);

  const size_t payload = data.size() - 4;
  uint32_t stored = 0;
  std::memcpy(&stored, data.data() + payload, 4);
  uint32_t stored_le = static_cast<uint32_t>(data[payload]) |
                       (static_cast<uint32_t>(data[payload + 1]) << 8) |
                       (static_cast<uint32_t>(data[payload + 2]) << 16) |
                       (static_cast<uint32_t>(data[payload + 3]) << 24);
  (void)stored;
  if (Crc32(data.data(), payload) != stored_le) {
    return Status::Corruption("CRC mismatch: " + path);
  }
  data.resize(payload);
  *out = BinaryReader(std::move(data));
  return Status::OK();
}

bool BinaryReader::Ensure(size_t n) {
  if (!ok_ || pos_ + n > data_.size()) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t BinaryReader::GetU8() {
  if (!Ensure(1)) return 0;
  return data_[pos_++];
}

uint32_t BinaryReader::GetU32() {
  if (!Ensure(4)) return 0;
  uint32_t v = static_cast<uint32_t>(data_[pos_]) |
               (static_cast<uint32_t>(data_[pos_ + 1]) << 8) |
               (static_cast<uint32_t>(data_[pos_ + 2]) << 16) |
               (static_cast<uint32_t>(data_[pos_ + 3]) << 24);
  pos_ += 4;
  return v;
}

uint64_t BinaryReader::GetU64() {
  const uint64_t lo = GetU32();
  const uint64_t hi = GetU32();
  return lo | (hi << 32);
}

bool BinaryReader::GetBytes(void* out, size_t n) {
  if (!Ensure(n)) return false;
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

std::string BinaryReader::GetString() {
  const uint32_t n = GetU32();
  if (!Ensure(n)) return std::string();
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

}  // namespace dspc

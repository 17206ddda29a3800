#include "dspc/persist/framed_file.h"

#include <utility>

namespace dspc {

Status WriteFramedFileAtomic(FileSystem* fs, const std::string& dir,
                             const std::string& name,
                             const std::vector<uint8_t>& payload) {
  const std::string path = dir + "/" + name;
  const std::string tmp = path + ".tmp";
  auto file = fs->NewWritableFile(tmp);
  if (!file.ok()) return file.status();
  if (Status st = (*file)->Append(payload.data(), payload.size()); !st.ok()) {
    return st;
  }
  const uint32_t crc = Crc32c(payload.data(), payload.size());
  const uint8_t tail[4] = {
      static_cast<uint8_t>(crc), static_cast<uint8_t>(crc >> 8),
      static_cast<uint8_t>(crc >> 16), static_cast<uint8_t>(crc >> 24)};
  if (Status st = (*file)->Append(tail, sizeof(tail)); !st.ok()) return st;
  if (Status st = (*file)->Sync(); !st.ok()) return st;
  if (Status st = (*file)->Close(); !st.ok()) return st;
  return fs->RenameFile(tmp, path);
}

Status ReadFramedFile(FileSystem* fs, const std::string& path,
                      BinaryReader* out) {
  std::vector<uint8_t> data;
  if (Status st = fs->ReadFile(path, &data); !st.ok()) return st;
  if (data.size() < 4) {
    return Status::DataLoss("framed file too small: " + path);
  }
  const size_t payload = data.size() - 4;
  const uint8_t* tail = data.data() + payload;
  const uint32_t stored = static_cast<uint32_t>(tail[0]) |
                          (static_cast<uint32_t>(tail[1]) << 8) |
                          (static_cast<uint32_t>(tail[2]) << 16) |
                          (static_cast<uint32_t>(tail[3]) << 24);
  if (Crc32c(data.data(), payload) != stored) {
    return Status::DataLoss("checksum mismatch: " + path);
  }
  data.resize(payload);
  *out = BinaryReader(std::move(data));
  return Status::OK();
}

}  // namespace dspc

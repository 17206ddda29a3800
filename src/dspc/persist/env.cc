#include "dspc/persist/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace dspc {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const void* data, size_t n) override {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      const ssize_t w = ::write(fd_, p, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        return Errno("write", path_);
      }
      p += w;
      n -= static_cast<size_t>(w);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fdatasync(fd_) != 0) return Errno("fdatasync", path_);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int rc = ::close(fd_);
    fd_ = -1;
    if (rc != 0) return Errno("close", path_);
    return Status::OK();
  }

 private:
  int fd_;
  const std::string path_;
};

/// The generic-fallback region: owns a copy of the file bytes. Also what
/// FaultInjectingEnv hands out (its MapReadOnly inherits the base
/// implementation, whose reads pass through), keeping crash tests
/// deterministic — no page cache, no kernel mapping state.
class BufferRegion : public MappedRegion {
 public:
  explicit BufferRegion(std::vector<uint8_t> bytes)
      : bytes_(std::move(bytes)) {
    data_ = bytes_.data();
    size_ = bytes_.size();
  }

 private:
  const std::vector<uint8_t> bytes_;
};

/// A real mmap: the pages are shared with every other process mapping
/// the same file, and survive an unlink of the path (posix inode
/// semantics) — the property the snapshot GC protocol leans on.
class PosixMappedRegion : public MappedRegion {
 public:
  PosixMappedRegion(const void* addr, size_t size) {
    data_ = static_cast<const uint8_t*>(addr);
    size_ = size;
  }
  ~PosixMappedRegion() override {
    if (data_ != nullptr) {
      ::munmap(const_cast<uint8_t*>(data_), size_);
    }
  }

  PosixMappedRegion(const PosixMappedRegion&) = delete;
  PosixMappedRegion& operator=(const PosixMappedRegion&) = delete;
};

class PosixFileSystem : public FileSystem {
 public:
  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    const int fd =
        ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
    if (fd < 0) return Errno("open for writing", path);
    return std::unique_ptr<WritableFile>(
        std::make_unique<PosixWritableFile>(fd, path));
  }

  Status ReadFile(const std::string& path, std::vector<uint8_t>* out) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return Errno("open for reading", path);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Errno("stat", path);
    }
    out->resize(static_cast<size_t>(st.st_size));
    size_t off = 0;
    while (off < out->size()) {
      const ssize_t r = ::read(fd, out->data() + off, out->size() - off);
      if (r < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return Errno("read", path);
      }
      if (r == 0) break;  // shrank under us; serve what exists
      off += static_cast<size_t>(r);
    }
    out->resize(off);
    ::close(fd);
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Errno("rename to " + to + " from", from);
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& dir) override {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return Errno("open directory", dir);
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) return Errno("fsync directory", dir);
    return Status::OK();
  }

  Status CreateDir(const std::string& dir) override {
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return Errno("mkdir", dir);
    }
    return Status::OK();
  }

  StatusOr<std::vector<std::string>> ListDir(const std::string& dir) override {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return Errno("opendir", dir);
    std::vector<std::string> names;
    while (const dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      names.push_back(name);
    }
    ::closedir(d);
    return names;
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return Errno("unlink", path);
    return Status::OK();
  }

  Status TruncateFile(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return Errno("truncate", path);
    }
    return Status::OK();
  }

  StatusOr<uint64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) return Errno("stat", path);
    return static_cast<uint64_t>(st.st_size);
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  StatusOr<std::shared_ptr<const MappedRegion>> MapReadOnly(
      const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return Errno("open for mapping", path);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Errno("stat", path);
    }
    const size_t size = static_cast<size_t>(st.st_size);
    if (size == 0) {
      // mmap rejects zero-length maps; an empty region is still valid.
      ::close(fd);
      return std::shared_ptr<const MappedRegion>(
          std::make_shared<PosixMappedRegion>(nullptr, 0));
    }
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    // The fd is only needed to establish the mapping; the mapping itself
    // keeps the inode alive from here on.
    ::close(fd);
    if (addr == MAP_FAILED) return Errno("mmap", path);
    return std::shared_ptr<const MappedRegion>(
        std::make_shared<PosixMappedRegion>(addr, size));
  }
};

[[gnu::cold]] Status InjectedFault() {
  return Status::IOError("injected fault: simulated crash");
}

}  // namespace

bool ParseNumberedFileName(const std::string& name, const std::string& prefix,
                           const std::string& suffix, uint64_t* value) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *value = v;
  return true;
}

StatusOr<std::shared_ptr<const MappedRegion>> FileSystem::MapReadOnly(
    const std::string& path) {
  // Generic fallback: a private copy of the bytes behaves exactly like a
  // mapping as far as callers can tell (read-only, stable, outlives the
  // file). Virtual ReadFile keeps wrapper envs' read semantics intact.
  std::vector<uint8_t> bytes;
  if (Status st = ReadFile(path, &bytes); !st.ok()) return st;
  return std::shared_ptr<const MappedRegion>(
      std::make_shared<BufferRegion>(std::move(bytes)));
}

FileSystem* FileSystem::Default() {
  static PosixFileSystem* fs = new PosixFileSystem();  // never destroyed
  return fs;
}

// --- FaultInjectingEnv -----------------------------------------------------

/// Write-buffering wrapper: appended bytes live in `pending_` until a
/// successful (uninjected) Sync or Close hands them to the base file —
/// the in-memory stand-in for the page cache a crash would lose.
class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(FaultInjectingEnv* env, std::unique_ptr<WritableFile> base)
      : env_(env), base_(std::move(base)) {}

  Status Append(const void* data, size_t n) override {
    std::lock_guard<std::mutex> lock(mu_);
    bool leak_half = false;
    if (Status st = env_->Charge(&leak_half); !st.ok()) {
      // The torn-write case: the crash interrupts this very append, and
      // half of everything still unsynced (older buffered records plus
      // this record's prefix) made it to the platter.
      if (leak_half) {
        const auto* p = static_cast<const uint8_t*>(data);
        pending_.insert(pending_.end(), p, p + n);
        LeakHalfLocked();
      }
      return st;
    }
    const auto* p = static_cast<const uint8_t*>(data);
    pending_.insert(pending_.end(), p, p + n);
    return Status::OK();
  }

  Status Sync() override {
    std::lock_guard<std::mutex> lock(mu_);
    bool leak_half = false;
    if (Status st = env_->Charge(&leak_half); !st.ok()) {
      if (leak_half) LeakHalfLocked();
      return st;
    }
    if (Status st = FlushLocked(); !st.ok()) return st;
    return base_->Sync();
  }

  Status Close() override {
    std::lock_guard<std::mutex> lock(mu_);
    bool leak_half = false;
    if (Status st = env_->Charge(&leak_half); !st.ok()) {
      if (leak_half) LeakHalfLocked();
      return st;  // crashed: buffered bytes are lost, base fd leaks-closes
    }
    if (Status st = FlushLocked(); !st.ok()) return st;
    return base_->Close();
  }

 private:
  Status FlushLocked() {
    if (pending_.empty()) return Status::OK();
    Status st = base_->Append(pending_.data(), pending_.size());
    if (st.ok()) pending_.clear();
    return st;
  }

  void LeakHalfLocked() {
    if (pending_.empty()) return;
    (void)base_->Append(pending_.data(), pending_.size() / 2);
    pending_.clear();
  }

  FaultInjectingEnv* const env_;
  const std::unique_ptr<WritableFile> base_;
  std::mutex mu_;
  std::vector<uint8_t> pending_;
};

void FaultInjectingEnv::Arm(uint64_t index, bool short_write) {
  std::lock_guard<std::mutex> lock(mu_);
  ops_ = 0;
  arm_at_ = index;
  armed_ = true;
  short_write_ = short_write;
  tripped_ = false;
}

void FaultInjectingEnv::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  ops_ = 0;
  armed_ = false;
  tripped_ = false;
}

uint64_t FaultInjectingEnv::OperationCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

bool FaultInjectingEnv::Tripped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tripped_;
}

Status FaultInjectingEnv::Charge(bool* leak_half) {
  std::lock_guard<std::mutex> lock(mu_);
  *leak_half = false;
  if (tripped_) return InjectedFault();
  const uint64_t index = ops_++;
  if (armed_ && index >= arm_at_) {
    tripped_ = true;
    *leak_half = short_write_;
    return InjectedFault();
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<WritableFile>> FaultInjectingEnv::NewWritableFile(
    const std::string& path) {
  // Creating the fd is not a counted fault point (the interesting
  // instants are writes and metadata ops), but a dead env must not keep
  // creating files.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tripped_) return InjectedFault();
  }
  auto base = base_->NewWritableFile(path);
  if (!base.ok()) return base.status();
  return std::unique_ptr<WritableFile>(
      std::make_unique<FaultWritableFile>(this, std::move(*base)));
}

Status FaultInjectingEnv::ReadFile(const std::string& path,
                                   std::vector<uint8_t>* out) {
  return base_->ReadFile(path, out);
}

Status FaultInjectingEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  bool leak_half = false;
  if (Status st = Charge(&leak_half); !st.ok()) return st;
  return base_->RenameFile(from, to);
}

Status FaultInjectingEnv::SyncDir(const std::string& dir) {
  bool leak_half = false;
  if (Status st = Charge(&leak_half); !st.ok()) return st;
  return base_->SyncDir(dir);
}

Status FaultInjectingEnv::CreateDir(const std::string& dir) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tripped_) return InjectedFault();
  }
  return base_->CreateDir(dir);
}

StatusOr<std::vector<std::string>> FaultInjectingEnv::ListDir(
    const std::string& dir) {
  return base_->ListDir(dir);
}

Status FaultInjectingEnv::RemoveFile(const std::string& path) {
  bool leak_half = false;
  if (Status st = Charge(&leak_half); !st.ok()) return st;
  return base_->RemoveFile(path);
}

Status FaultInjectingEnv::TruncateFile(const std::string& path,
                                       uint64_t size) {
  bool leak_half = false;
  if (Status st = Charge(&leak_half); !st.ok()) return st;
  return base_->TruncateFile(path, size);
}

StatusOr<uint64_t> FaultInjectingEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

bool FaultInjectingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

}  // namespace dspc

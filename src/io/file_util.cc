#include "io/file_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/fault_injection.h"
#include "common/strings.h"

namespace exstream {

Status EnsureDir(const std::string& dir) {
  if (mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
    struct stat st;
    if (stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) return Status::OK();
    return Status::IOError(dir + " exists but is not a directory");
  }
  return Status::IOError(
      StrFormat("cannot create directory %s: %s", dir.c_str(), strerror(errno)));
}

Status WriteFileAtomic(const std::string& path, std::string data) {
  size_t write_bytes = data.size();
  if (auto fault =
          FaultInjector::Global().Intercept(FaultOp::kWrite, "file-write", path)) {
    switch (fault->mode) {
      case FaultMode::kFailOpen:
      case FaultMode::kReset:
        return Status::IOError("injected open failure writing " + path);
      case FaultMode::kNoSpace:
        return Status::IOError("injected ENOSPC writing " + path);
      case FaultMode::kTruncate:
        write_bytes = std::min(write_bytes, fault->truncate_to);
        break;
      case FaultMode::kCorruptBytes: {
        const size_t off = fault->corrupt_offset == SIZE_MAX
                               ? data.size() / 2
                               : std::min(fault->corrupt_offset, data.size() - 1);
        if (!data.empty()) data[off] = static_cast<char>(data[off] ^ 0x5A);
        break;
      }
      case FaultMode::kDelay:
        std::this_thread::sleep_for(std::chrono::milliseconds(fault->delay_ms));
        break;
    }
  }

  const std::string tmp = path + ".tmp";
  FILE* f = fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + tmp);
  const size_t written = fwrite(data.data(), 1, write_bytes, f);
  if (written != write_bytes) {
    fclose(f);
    remove(tmp.c_str());
    return Status::IOError(StrFormat("short write to %s (%zu of %zu bytes)",
                                     tmp.c_str(), written, write_bytes));
  }
  if (fflush(f) != 0 || fsync(fileno(f)) != 0) {
    fclose(f);
    remove(tmp.c_str());
    return Status::IOError("cannot fsync " + tmp);
  }
  fclose(f);
  if (rename(tmp.c_str(), path.c_str()) != 0) {
    remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  // The rename itself is only durable once the directory entry is on disk;
  // without this a post-rename crash can resurrect the old file, which would
  // break sync-then-ack consumers (the replication ledger ACKs only after
  // this returns).
  const size_t slash = path.find_last_of('/');
  return SyncDir(slash == std::string::npos ? "." : path.substr(0, slash));
}

Status SyncDir(const std::string& dir) {
  if (auto fault = FaultInjector::Global().Intercept(FaultOp::kWrite, "dir-sync", dir)) {
    switch (fault->mode) {
      case FaultMode::kFailOpen:
      case FaultMode::kReset:
      case FaultMode::kNoSpace:
        return Status::IOError("injected failure syncing directory " + dir);
      case FaultMode::kDelay:
        std::this_thread::sleep_for(std::chrono::milliseconds(fault->delay_ms));
        break;
      case FaultMode::kTruncate:
      case FaultMode::kCorruptBytes:
        break;  // no payload to damage
    }
  }
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError(
        StrFormat("cannot open directory %s: %s", dir.c_str(), strerror(errno)));
  }
  const int rc = fsync(fd);
  const int err = errno;
  close(fd);
  if (rc != 0 && err != EINVAL) {
    return Status::IOError(
        StrFormat("cannot fsync directory %s: %s", dir.c_str(), strerror(err)));
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  auto fault =
      FaultInjector::Global().Intercept(FaultOp::kRead, "file-read", path);
  if (fault.has_value()) {
    if (fault->mode == FaultMode::kFailOpen || fault->mode == FaultMode::kReset) {
      return Status::IOError("injected open failure reading " + path);
    }
    if (fault->mode == FaultMode::kDelay) {
      std::this_thread::sleep_for(std::chrono::milliseconds(fault->delay_ms));
    }
  }
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::string data;
  char buf[1 << 16];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  fclose(f);
  if (fault.has_value()) {
    if (fault->mode == FaultMode::kTruncate) {
      data.resize(std::min(data.size(), fault->truncate_to));
    } else if (fault->mode == FaultMode::kCorruptBytes && !data.empty()) {
      const size_t off = fault->corrupt_offset == SIZE_MAX
                             ? data.size() / 2
                             : std::min(fault->corrupt_offset, data.size() - 1);
      data[off] = static_cast<char>(data[off] ^ 0x5A);
    }
  }
  return data;
}

Result<std::vector<std::string>> ListDirFiles(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return names;
    return Status::IOError(
        StrFormat("cannot open directory %s: %s", dir.c_str(), strerror(errno)));
  }
  while (struct dirent* ent = readdir(d)) {
    const std::string name = ent->d_name;
    if (name == "." || name == "..") continue;
    struct stat st;
    const std::string path = dir + "/" + name;
    if (stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
    names.push_back(name);
  }
  closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

Status RemoveFileIfExists(const std::string& path) {
  if (auto fault = FaultInjector::Global().Intercept(FaultOp::kDelete,
                                                     "file-delete", path)) {
    if (fault->mode == FaultMode::kDelay) {
      std::this_thread::sleep_for(std::chrono::milliseconds(fault->delay_ms));
    } else {
      // Every non-delay mode behaves as "the unlink failed" — a deletion has
      // no bytes to truncate or corrupt.
      return Status::IOError("injected delete failure for " + path);
    }
  }
  if (remove(path.c_str()) == 0 || errno == ENOENT) return Status::OK();
  return Status::IOError(
      StrFormat("cannot remove %s: %s", path.c_str(), strerror(errno)));
}

MmapFile::~MmapFile() {
  if (data_ != nullptr) munmap(data_, map_size_);
}

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(other.data_), size_(other.size_), map_size_(other.map_size_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.map_size_ = 0;
}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) munmap(data_, map_size_);
    data_ = other.data_;
    size_ = other.size_;
    map_size_ = other.map_size_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.map_size_ = 0;
  }
  return *this;
}

Result<MmapFile> MmapFile::Open(const std::string& path) {
  const auto fault =
      FaultInjector::Global().Intercept(FaultOp::kRead, "mmap-read", path);
  if (fault.has_value()) {
    if (fault->mode == FaultMode::kFailOpen || fault->mode == FaultMode::kReset) {
      return Status::IOError("injected open failure mapping " + path);
    }
    if (fault->mode == FaultMode::kDelay) {
      std::this_thread::sleep_for(std::chrono::milliseconds(fault->delay_ms));
    }
  }

  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError(
        StrFormat("cannot open %s: %s", path.c_str(), strerror(errno)));
  }
  struct stat st;
  if (fstat(fd, &st) != 0) {
    const int err = errno;
    close(fd);
    return Status::IOError(
        StrFormat("cannot stat %s: %s", path.c_str(), strerror(err)));
  }
  MmapFile out;
  out.size_ = static_cast<size_t>(st.st_size);
  out.map_size_ = out.size_;
  if (out.size_ > 0) {
    // MAP_PRIVATE + PROT_WRITE: injected corruption flips a byte in this
    // process's COW copy only. The file descriptor can close right away —
    // the mapping keeps the pages alive.
    void* p = mmap(nullptr, out.map_size_, PROT_READ | PROT_WRITE, MAP_PRIVATE,
                   fd, 0);
    if (p == MAP_FAILED) {
      const int err = errno;
      close(fd);
      return Status::IOError(
          StrFormat("cannot mmap %s: %s", path.c_str(), strerror(err)));
    }
    out.data_ = static_cast<char*>(p);
  }
  close(fd);

  if (fault.has_value() && out.size_ > 0) {
    if (fault->mode == FaultMode::kTruncate) {
      out.size_ = std::min(out.size_, fault->truncate_to);
    } else if (fault->mode == FaultMode::kCorruptBytes) {
      const size_t off = fault->corrupt_offset == SIZE_MAX
                             ? out.size_ / 2
                             : std::min(fault->corrupt_offset, out.size_ - 1);
      out.data_[off] = static_cast<char>(out.data_[off] ^ 0x5A);
    }
  }
  return out;
}

}  // namespace exstream

// Small filesystem helpers shared by the WAL, checkpoints, and quarantine
// housekeeping. All write paths honor the global FaultInjector so durability
// tests can inject torn writes, ENOSPC, and corruption at the same seam the
// spill writers use.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace exstream {

/// \brief Creates `dir` (one level; parents must exist). OK if it already
/// exists as a directory.
Status EnsureDir(const std::string& dir);

/// \brief Writes `data` to `path` atomically: temp file + fsync + rename +
/// SyncDir of the parent directory. Honors injected write faults (same
/// contract as the spill writers: a kTruncate fault publishes only a prefix
/// under the final name, simulating post-rename media loss).
Status WriteFileAtomic(const std::string& path, std::string data);

/// \brief Fsyncs directory `dir`, making the renames and creations inside it
/// durable. Honors injected faults (op kWrite, site "dir-sync", path `dir`):
/// kFailOpen/kReset/kNoSpace fail the sync, kDelay adds latency. A filesystem
/// that cannot fsync directories (EINVAL) counts as synced.
Status SyncDir(const std::string& dir);

/// \brief Reads the raw bytes of `path`, honoring injected read faults.
Result<std::string> ReadFileToString(const std::string& path);

/// \brief Non-recursive listing of regular-file names (not paths) in `dir`,
/// sorted lexicographically. Missing directory is OK (empty listing).
Result<std::vector<std::string>> ListDirFiles(const std::string& dir);

/// \brief Deletes a file; OK if it does not exist.
Status RemoveFileIfExists(const std::string& path);

/// \brief Read-only memory mapping of a whole file — the archive's cold-read
/// path. Decoders parse straight out of the kernel page cache through
/// `view()` instead of a heap copy of the file bytes.
///
/// The mapping is MAP_PRIVATE with PROT_READ|PROT_WRITE so the fault
/// injector's kCorruptBytes mode can flip a byte in this process's COW copy
/// of the page — the file on disk is never touched. Open() makes exactly one
/// FaultInjector::Intercept call (op kRead, site "mmap-read"); kTruncate
/// shortens the visible view, kFailOpen/kReset fail the open.
///
/// Move-only; the destructor unmaps. An empty file maps to an empty view
/// (mmap of length 0 is not attempted).
class MmapFile {
 public:
  static Result<MmapFile> Open(const std::string& path);

  MmapFile() = default;
  ~MmapFile();
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// The mapped bytes (possibly shortened by an injected truncation).
  std::string_view view() const { return {data_, size_}; }

 private:
  char* data_ = nullptr;   ///< mmap base; nullptr for an empty file
  size_t size_ = 0;        ///< visible bytes (<= map_size_ under kTruncate)
  size_t map_size_ = 0;    ///< bytes to munmap
};

}  // namespace exstream

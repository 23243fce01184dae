// FaultInjector: test/bench-only hook for injecting I/O faults.
//
// Hook points are identified by an op class (file read/write/delete, socket
// connect/send/recv) plus a named *site* — the specific seam the code is
// executing ("spill-write", "wal-append", "repl-send", ...). One injector
// configuration covers every subsystem: the archive's spill files, the WAL,
// checkpoint files, and the replication sockets all consult the same
// process-global registry. In production nothing is ever armed, so the cost
// is a single relaxed atomic load per operation; tests arm a FaultPlan
// (which op class, which site, which paths, which failure mode, how many
// times) to exercise the retry, quarantine, reconnect, and degraded-scan
// machinery deterministically.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace exstream {

/// \brief What an injected fault does to the intercepted operation.
enum class FaultMode {
  kFailOpen,      ///< the operation fails outright (transient I/O error)
  kTruncate,      ///< the bytes are cut short (torn write / short read /
                  ///< frame truncated mid-send)
  kCorruptBytes,  ///< payload bytes are flipped (bit rot / corrupt link)
  kNoSpace,       ///< writes fail as if the disk were full (ENOSPC)
  kDelay,         ///< the operation succeeds but takes `delay_ms` longer
  kReset,         ///< the peer drops the connection (ECONNRESET); socket ops
                  ///< only — file sites treat it like kFailOpen
};

/// \brief Operation class the fault applies to. kRead/kWrite keep their
/// original file-I/O meaning so existing plans keep working; the socket and
/// delete classes were added when injection grew past file I/O.
enum class FaultOp {
  kRead,     ///< file/buffer read
  kWrite,    ///< file/buffer write
  kDelete,   ///< file deletion (WAL truncation, checkpoint GC)
  kConnect,  ///< socket connect
  kSend,     ///< socket send
  kRecv,     ///< socket recv
};

std::string_view FaultModeToString(FaultMode mode);
std::string_view FaultOpToString(FaultOp op);

/// \brief One armed fault: mode, target, and trigger schedule.
struct FaultPlan {
  FaultMode mode = FaultMode::kFailOpen;
  FaultOp op = FaultOp::kRead;
  /// Only operations at this site are intercepted ("" = every site of `op`).
  /// Site names are registered by the hook points themselves; see
  /// FaultInjector::sites() for the live registry.
  std::string site;
  /// Only paths/endpoints containing this substring are intercepted
  /// ("" = every path).
  std::string path_substring;
  /// Let this many matching operations through untouched first.
  int skip = 0;
  /// Stop injecting after this many hits; -1 = inject forever. `max_hits = 1`
  /// models a transient fault (fails once, then the retry succeeds).
  int max_hits = -1;
  /// kTruncate: number of leading bytes that survive.
  size_t truncate_to = 8;
  /// kCorruptBytes: byte offset to flip; SIZE_MAX = middle of the buffer.
  size_t corrupt_offset = SIZE_MAX;
  /// kDelay: added latency in milliseconds.
  int delay_ms = 5;
};

/// \brief A hook point that has announced itself to the injector.
struct FaultSite {
  std::string name;
  FaultOp op = FaultOp::kRead;
};

/// \brief Process-global fault injection registry (see file comment).
class FaultInjector {
 public:
  static FaultInjector& Global();

  /// Arms `plan`, replacing any previous plan and resetting counters.
  void Arm(FaultPlan plan);

  /// Disarms; subsequent operations run untouched.
  void Disarm();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Number of operations actually faulted since the last Arm.
  size_t hits() const;

  /// \brief Called by hook points: returns the plan to apply to this
  /// operation, if it matches and the trigger schedule says to fire (consumes
  /// one hit). `site` names the seam (registered on first use); `path` is the
  /// file path or endpoint label.
  std::optional<FaultPlan> Intercept(FaultOp op, std::string_view site,
                                     const std::string& path);

  /// Every (site, op) pair that has passed through Intercept while armed, in
  /// first-seen order. Lets tests and docs enumerate the seams. (Disarmed
  /// operations skip registration so the production path stays a single
  /// relaxed atomic load.)
  std::vector<FaultSite> sites() const;

 private:
  FaultInjector() = default;

  void RegisterSiteLocked(FaultOp op, std::string_view site);

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  FaultPlan plan_;
  int matched_ = 0;   ///< matching operations seen since Arm
  int injected_ = 0;  ///< faults actually delivered since Arm
  std::vector<FaultSite> sites_;
};

/// \brief RAII arm/disarm for tests.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(FaultPlan plan) {
    FaultInjector::Global().Arm(std::move(plan));
  }
  ~ScopedFaultInjection() { FaultInjector::Global().Disarm(); }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace exstream

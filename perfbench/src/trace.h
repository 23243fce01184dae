// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded around the benchmark's own calls into each layer's
// public functions (the program itself is not instrumented). Each span has a
// name, start and end on the steady clock, the span that caused it (the
// enclosing span on the same thread, or an explicit parent for work handed to
// another thread) and a request id shared by every span of one operation.
// Spans stay in memory until the run ends and are then written out as JSON
// lines.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t parent = kNoParent;
  uint64_t request = 0;
  uint32_t thread = 0;
};

/// Steady-clock nanoseconds.
int64_t NowNs();

class SpanRecorder {
 public:
  /// Opens a span; its parent is the innermost open span of this thread, or
  /// `parent` when that is given (work handed across threads). Returns the
  /// span id.
  uint32_t Begin(const std::string& name, uint64_t request,
                 uint32_t parent = kNoParent);
  void End(uint32_t id);

  /// Snapshot of every span recorded so far (open spans have end_ns == 0).
  std::vector<Span> spans() const;
  /// The innermost open span of the calling thread, or kNoParent.
  static uint32_t Current();

  /// Writes one JSON object per span to `path`.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null recorder records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t request = 0,
             uint32_t parent = kNoParent)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name, request, parent) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  uint32_t id_;
};

/// \brief Self time of every span: its duration minus the part of its
/// interval covered by its children. Children may nest and may overlap each
/// other (parallel work under one parent); the covered part is the union of
/// the children's intervals clipped to the parent's.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Sum of self time per span name, in seconds.
std::map<std::string, double> SelfSecondsByName(const std::vector<Span>& spans);

/// Total length of the union of [start, end) intervals, in ns.
int64_t UnionLengthNs(std::vector<std::pair<int64_t, int64_t>> intervals);

}  // namespace perfbench

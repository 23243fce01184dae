#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

thread_local std::vector<uint32_t> t_open;  // this thread's open spans

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t SpanRecorder::Current() { return t_open.empty() ? kNoParent : t_open.back(); }

uint32_t SpanRecorder::Begin(const std::string& name, uint64_t request,
                             uint32_t parent) {
  Span s;
  s.name = name;
  s.parent = parent != kNoParent ? parent : Current();
  s.request = request;
  s.thread = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  const auto id = static_cast<uint32_t>(spans_.size());
  t_open.push_back(id);
  spans_.push_back(std::move(s));
  spans_.back().start_ns = NowNs();  // the recorder's own bookkeeping stays outside
  return id;
}

void SpanRecorder::End(uint32_t id) {
  const int64_t end = NowNs();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = end;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    fprintf(f,
            "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
            "\"parent\":%lld,\"request\":%llu,\"thread\":%u}\n",
            i, s.name.c_str(), static_cast<long long>(s.start_ns),
            static_cast<long long>(s.end_ns),
            s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
            static_cast<unsigned long long>(s.request), s.thread);
  }
  return fclose(f) == 0;
}

int64_t UnionLengthNs(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (open && start <= cur_end) {
      cur_end = std::max(cur_end, end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = start;
    cur_end = end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent || s.parent >= spans.size()) continue;
    const Span& p = spans[s.parent];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[s.parent].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t dur = spans[i].end_ns - spans[i].start_ns;
    self[i] = std::max<int64_t>(0, dur - UnionLengthNs(std::move(children[i])));
  }
  return self;
}

std::map<std::string, double> SelfSecondsByName(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

}  // namespace perfbench

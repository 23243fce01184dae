// Measurement helpers: the percentile rule, open-loop lateness accounting,
// memory and disk probes, and the metric table the run prints.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// \brief The highest percentile of the ladder {50, 90, 95, 99, 99.9} that
/// has at least ten samples beyond it among `n` samples, or 0 when even the
/// median does not (fewer than 20 samples).
double HighestSupportedPercentile(size_t n);

/// True when percentile `p` has at least ten of `n` samples beyond it.
bool PercentileSupported(double p, size_t n);

/// Nearest-rank percentile of `values` (0 < p <= 100); NaN when empty.
double Percentile(std::vector<double> values, double p);

double Median(std::vector<double> values);

/// \brief Throughput over consecutive windows of `window` operations: for
/// each full window, the events it carried over its summed wall time.
/// `seconds[i]` and `events[i]` describe operation i. The median of these
/// rates is the sustained rate, robust to a stall that hits a few windows.
std::vector<double> WindowRates(const std::vector<double>& seconds,
                                const std::vector<size_t>& events, size_t window);

/// \brief Open-loop schedule accounting. Operation i is due at
/// start + i * interval; its latency counts from when it was due, so a stall
/// also charges the wait it imposes on every later operation, and the
/// generator's lateness is how far past the due time it actually sent.
struct OpenLoopClock {
  int64_t start_ns = 0;
  int64_t interval_ns = 0;

  int64_t DueNs(size_t i) const {
    return start_ns + static_cast<int64_t>(i) * interval_ns;
  }
  /// Latency of an operation due at `i` that completed at `done_ns`.
  int64_t LatencyNs(size_t i, int64_t done_ns) const { return done_ns - DueNs(i); }
  /// How late the generator sent operation `i` (0 when on time).
  int64_t LatenessNs(size_t i, int64_t sent_ns) const {
    const int64_t late = sent_ns - DueNs(i);
    return late > 0 ? late : 0;
  }
};

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMiB();

/// Total bytes of the regular files under `dir` (recursive; 0 if missing).
uint64_t DirectoryBytes(const std::string& dir);
/// Count of regular files under `dir` whose name ends with `suffix`.
size_t CountFiles(const std::string& dir, const std::string& suffix);

/// \brief One printed metric: value, unit, and the sample count behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
  std::string note;
};

/// Adds percentile `p` of `values` as metric `name`, or records it as
/// unsupported (value NaN) when too few samples lie beyond it.
void AddPercentile(std::vector<Metric>* out, const std::string& name, double p,
                   const std::vector<double>& values, const std::string& unit);

/// AddPercentile for the median and for the tail percentile `tail_p`.
void AddTiming(std::vector<Metric>* out, const std::string& p50_name,
               const std::string& tail_name, double tail_p,
               const std::vector<double>& values, const std::string& unit);

}  // namespace perfbench

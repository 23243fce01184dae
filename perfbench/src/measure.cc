#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace perfbench {

namespace {
constexpr double kLadder[] = {50.0, 90.0, 95.0, 99.0, 99.9};
}  // namespace

bool PercentileSupported(double p, size_t n) {
  // Samples strictly beyond the p-th percentile: n * (1 - p/100). Integer
  // arithmetic on tenths of a percent keeps the ladder's boundaries exact.
  const auto tenths = static_cast<uint64_t>(std::llround(p * 10.0));
  return static_cast<uint64_t>(n) * (1000 - tenths) >= 10 * 1000;
}

double HighestSupportedPercentile(size_t n) {
  double best = 0.0;
  for (const double p : kLadder) {
    if (PercentileSupported(p, n)) best = p;
  }
  return best;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

std::vector<double> WindowRates(const std::vector<double>& seconds,
                                const std::vector<size_t>& events, size_t window) {
  std::vector<double> rates;
  for (size_t start = 0; start + window <= seconds.size(); start += window) {
    double secs = 0.0;
    size_t n = 0;
    for (size_t i = start; i < start + window; ++i) {
      secs += seconds[i];
      n += events[i];
    }
    if (secs > 0.0) rates.push_back(static_cast<double>(n) / secs);
  }
  return rates;
}

double PeakRssMiB() {
  FILE* f = fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (fgets(line, sizeof(line), f) != nullptr) {
    if (strncmp(line, "VmHWM:", 6) == 0) kib = atof(line + 6);
  }
  fclose(f);
  return kib / 1024.0;
}

uint64_t DirectoryBytes(const std::string& dir) {
  std::error_code ec;
  uint64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

size_t CountFiles(const std::string& dir, const std::string& suffix) {
  std::error_code ec;
  size_t n = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (it->is_regular_file(ec) && name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      ++n;
    }
  }
  return n;
}

void AddPercentile(std::vector<Metric>* out, const std::string& name, double p,
                   const std::vector<double>& values, const std::string& unit) {
  const size_t n = values.size();
  char note[64];
  snprintf(note, sizeof(note), "highest supported percentile: p%g",
           HighestSupportedPercentile(n));
  out->push_back({name, PercentileSupported(p, n) ? Percentile(values, p) : std::nan(""),
                  unit, n, note});
}

void AddTiming(std::vector<Metric>* out, const std::string& p50_name,
               const std::string& tail_name, double tail_p,
               const std::vector<double>& values, const std::string& unit) {
  AddPercentile(out, p50_name, 50.0, values, unit);
  AddPercentile(out, tail_name, tail_p, values, unit);
}

}  // namespace perfbench

// The benchmark's own tests: the percentile rule, self-time arithmetic with
// nested and overlapping child spans, and open-loop lateness accounting.
// `perfbench --self-test` runs them; run.py runs them before every benchmark
// run.

#include <cmath>
#include <cstdio>
#include <string>

#include "measure.h"
#include "trace.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
  }
}

void ExpectEq(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
         what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

void TestPercentileRule() {
  // p is supported when at least ten samples lie beyond it: n * (1 - p) >= 10.
  ExpectEq(HighestSupportedPercentile(0), 0, "no samples");
  ExpectEq(HighestSupportedPercentile(19), 0, "19 samples: not even the median");
  ExpectEq(HighestSupportedPercentile(20), 50, "20 samples: median");
  ExpectEq(HighestSupportedPercentile(99), 50, "99 samples: p90 has 9.9 beyond");
  ExpectEq(HighestSupportedPercentile(100), 90, "100 samples: p90");
  ExpectEq(HighestSupportedPercentile(199), 90, "199 samples");
  ExpectEq(HighestSupportedPercentile(200), 95, "200 samples: p95");
  ExpectEq(HighestSupportedPercentile(999), 95, "999 samples");
  ExpectEq(HighestSupportedPercentile(1000), 99, "1000 samples: p99");
  ExpectEq(HighestSupportedPercentile(10000), 99.9, "10000 samples: p99.9");
  Expect(PercentileSupported(99, 1000) && !PercentileSupported(99, 999), "p99 boundary");

  // Nearest rank.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted 100..1
  ExpectEq(Percentile(v, 50), 50, "p50 of 1..100");
  ExpectEq(Percentile(v, 99), 99, "p99 of 1..100");
  ExpectEq(Percentile(v, 100), 100, "p100 of 1..100");
  ExpectEq(Percentile({7}, 50), 7, "single sample");
  Expect(std::isnan(Percentile({}, 50)), "empty percentile is NaN");

  // Window rates: full windows only, events over summed time.
  const std::vector<double> rates =
      WindowRates({1.0, 1.0, 2.0, 0.5, 0.5, 0.5, 9.0}, {10, 10, 20, 5, 5, 5, 1}, 2);
  Expect(rates.size() == 3 && rates[0] == 10.0 && rates[1] == 10.0 && rates[2] == 10.0,
         "three full windows; the partial one is dropped");
  Expect(WindowRates({1.0}, {1}, 2).empty(), "a partial window yields no rate");

  // A percentile is reported only when the sample count supports it.
  std::vector<Metric> out;
  AddTiming(&out, "lat_p50", "lat_p99", 99, v, "ms");
  Expect(out.size() == 2 && out[0].value == 50 && std::isnan(out[1].value) &&
             out[1].samples == 100,
         "p99 of 100 samples is reported as unsupported");
}

Span MakeSpan(const char* name, int64_t start, int64_t end, uint32_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void TestSelfTime() {
  ExpectEq(UnionLengthNs({{0, 10}, {5, 15}, {20, 30}}), 25, "union with overlap");
  ExpectEq(UnionLengthNs({{0, 10}, {2, 3}, {10, 12}}), 12, "contained and touching");
  ExpectEq(UnionLengthNs({}), 0, "empty union");

  // root [0,100): child a [10,40) with grandchild [20,30); children b [30,60)
  // and c [50,120) overlap a and each other, c runs past the root's end.
  std::vector<Span> spans = {
      MakeSpan("root", 0, 100, kNoParent),  // 0
      MakeSpan("a", 10, 40, 0),             // 1
      MakeSpan("a.inner", 20, 30, 1),       // 2
      MakeSpan("b", 30, 60, 0),             // 3
      MakeSpan("c", 50, 120, 0),            // 4
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  // Root children cover [10,100) after clipping c to the root: 90 of 100.
  ExpectEq(static_cast<double>(self[0]), 10, "root self time");
  ExpectEq(static_cast<double>(self[1]), 20, "nested child self time");
  ExpectEq(static_cast<double>(self[2]), 10, "leaf self time");
  ExpectEq(static_cast<double>(self[3]), 30, "overlapping sibling keeps its own time");
  ExpectEq(static_cast<double>(self[4]), 70, "child past its parent");

  // Same-name spans sum.
  spans.push_back(MakeSpan("a", 200, 205, kNoParent));
  const auto by_name = SelfSecondsByName(spans);
  ExpectEq(by_name.at("a") * 1e9, 25, "self time summed by name");

  // Recorded spans nest by thread: a span opened inside another is its child.
  SpanRecorder rec;
  {
    ScopedSpan outer(&rec, "outer", 7);
    ScopedSpan inner(&rec, "inner", 7);
  }
  const std::vector<Span> got = rec.spans();
  Expect(got.size() == 2 && got[1].parent == 0 && got[0].parent == kNoParent &&
             got[1].request == 7 && got[0].end_ns >= got[1].end_ns,
         "recorder nests spans on one thread");
  ScopedSpan untraced(nullptr, "nothing");  // a null recorder records nothing
}

void TestOpenLoopLateness() {
  OpenLoopClock clock;
  clock.start_ns = 1000;
  clock.interval_ns = 100;
  ExpectEq(static_cast<double>(clock.DueNs(0)), 1000, "first due time");
  ExpectEq(static_cast<double>(clock.DueNs(3)), 1300, "fourth due time");
  // On time: latency is the service time, no lateness.
  ExpectEq(static_cast<double>(clock.LatenessNs(1, 1100)), 0, "sent on time");
  ExpectEq(static_cast<double>(clock.LatencyNs(1, 1130)), 30, "service time only");
  // Early sends are never negative lateness.
  ExpectEq(static_cast<double>(clock.LatenessNs(2, 1150)), 0, "early send");
  // A stall: op 1 takes 250ns, so op 2 (due 1200) and op 3 (due 1300) are
  // sent late and their latency counts from the due time, not the send.
  ExpectEq(static_cast<double>(clock.LatencyNs(1, 1350)), 250, "stalled op");
  ExpectEq(static_cast<double>(clock.LatenessNs(2, 1350)), 150, "generator late by 150");
  ExpectEq(static_cast<double>(clock.LatencyNs(2, 1360)), 160, "waiting counted");
  ExpectEq(static_cast<double>(clock.LatenessNs(3, 1360)), 60, "still late");
  ExpectEq(static_cast<double>(clock.LatencyNs(3, 1370)), 70, "backlog drains");
}

}  // namespace

int RunSelfTest() {
  TestPercentileRule();
  TestSelfTime();
  TestOpenLoopLateness();
  if (g_failures == 0) fprintf(stderr, "self-test passed\n");
  return g_failures == 0 ? 0 : 1;
}

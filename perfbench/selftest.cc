// Self-test of the benchmark's arithmetic (stats.h): the percentile
// rule, failure accounting, bytes-per-user-byte ratios and the self time
// of nested spans. run.py runs it before every measured run; a nonzero
// exit stops the run.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

using namespace perfbench;

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the percentile must sort
}

void PercentileRule() {
  // 1000 samples support p99: rank 990 leaves exactly 10 beyond it.
  Percentile p = PercentileOf(OneTo(1000), 0.99);
  Expect(Near(p.value, 990) && Near(p.q, 0.99) && p.n == 1000,
         "p99 of 1..1000 is 990");
  // 500 samples do not: the rule lowers it to rank 490 (p98).
  p = PercentileOf(OneTo(500), 0.99);
  Expect(Near(p.value, 490) && Near(p.q, 0.98), "p99 of 500 lowers to p98");
  // 30 samples, p90 requested: rank 20 keeps ten beyond it.
  p = PercentileOf(OneTo(30), 0.90);
  Expect(Near(p.value, 20), "p90 of 30 lowers to rank 20");
  // Too few samples for any tail: the median, never lower.
  p = PercentileOf(OneTo(12), 0.90);
  Expect(Near(p.value, 6) && Near(p.q, 0.5), "p90 of 12 is the median");
  p = PercentileOf(OneTo(15), 0.5);
  Expect(Near(p.value, 8), "median of 1..15 is 8");
  Expect(Near(Median({3, 1, 2, 4}), 2), "median of an even count is the "
                                         "lower middle (nearest rank)");
  p = PercentileOf({}, 0.5);
  Expect(p.n == 0 && p.value == 0, "no samples reads 0");
}

void FailureAccounting() {
  Tally t;
  Expect(Near(t.FailedFrac(), 1.0), "nothing attempted counts as failed");
  for (int i = 0; i < 7; ++i) t.Add(true);
  t.Add(false);  // a wrong answer
  Expect(t.attempted == 8 && t.failed == 1, "tally counts attempts");
  Expect(Near(t.FailedFrac(), 0.125), "failed_frac = failed / attempted");
}

void ByteRatios() {
  // 4 page writes of 4112 bytes plus 8000 WAL bytes for 1000 user bytes.
  Expect(Near(WriteAmp(8000, 4, 4112, 1000), 24.448), "write amp");
  Expect(Near(WriteAmp(8000, 0, 0, 2000), 4.0), "wal bytes per user byte");
  Expect(WriteAmp(8000, 4, 4112, 0) == 0, "no user bytes reads 0");
  Expect(Near(SpacePerUserByte(3000, 1000), 3.0), "space per user byte");
}

void SelfTime() {
  // root [0,100) with children [10,30) and [20,50) (overlapping, so 40
  // covered) and [60,70); the first child has a grandchild [12,18).
  std::vector<Span> spans = {
      {"root", 1, -1, 0, 100},  {"a", 1, 0, 10, 30}, {"b", 1, 0, 20, 50},
      {"c", 1, 0, 60, 70},      {"a.x", 1, 1, 12, 18},
  };
  std::vector<int64_t> self = SelfTimes(spans);
  Expect(self[0] == 50, "root self = 100 - (40 + 10)");
  Expect(self[1] == 14, "child self = 20 - grandchild 6");
  Expect(self[2] == 30 && self[3] == 10 && self[4] == 6, "leaf self = span");
  // A child running past its parent counts only inside the parent.
  spans = {{"p", 2, -1, 0, 10}, {"late", 2, 0, 5, 20}};
  self = SelfTimes(spans);
  Expect(self[0] == 5, "clip child to parent");
}

}  // namespace

int main() {
  PercentileRule();
  FailureAccounting();
  ByteRatios();
  SelfTime();
  if (failures == 0) std::printf("perfbench selftest ok\n");
  return failures == 0 ? 0 : 1;
}

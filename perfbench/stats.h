// The benchmark's own arithmetic: percentiles under the tail rule,
// failure accounting, bytes-per-user-byte ratios and span self time.
// Header-only so perfbench_selftest checks exactly what perfbench runs.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only where at least this many samples
/// lie beyond it; with fewer samples the percentile is lowered.
inline constexpr size_t kTailBeyond = 10;

struct Percentile {
  double value = 0;  // the sample at the effective rank (0 when empty)
  double q = 0;      // the quantile actually reported (rank / n)
  size_t n = 0;      // samples
};

/// 1-based nearest rank of quantile q among n samples.
inline size_t NearestRank(double q, size_t n) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(r < 1 ? 1 : static_cast<size_t>(r), 1, n);
}

/// The requested quantile q, lowered to the highest rank that leaves at
/// least kTailBeyond samples beyond it, but never below the median.
inline Percentile PercentileOf(std::vector<double> samples, double q) {
  Percentile p;
  p.n = samples.size();
  if (p.n == 0) return p;
  size_t rank = NearestRank(q, p.n);
  if (p.n - rank < kTailBeyond) {
    rank = std::max(p.n > kTailBeyond ? p.n - kTailBeyond : 0,
                    NearestRank(0.5, p.n));
  }
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  p.q = static_cast<double>(rank) / static_cast<double>(p.n);
  return p;
}

inline double Median(std::vector<double> samples) {
  return PercentileOf(std::move(samples), 0.5).value;
}

/// Operations attempted and failed. A wrong answer is a failed
/// operation, so failed_frac counts it alongside errors.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Failed ÷ attempted; a run that attempted nothing has failed.
  double FailedFrac() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Bytes the store wrote (log + page slots) per byte the user appended.
inline double WriteAmp(uint64_t wal_bytes, uint64_t page_writes,
                       uint64_t page_slot_bytes, uint64_t user_bytes) {
  if (user_bytes == 0) return 0;
  return static_cast<double>(wal_bytes + page_writes * page_slot_bytes) /
         static_cast<double>(user_bytes);
}

/// Bytes the store occupies on disk per byte of user data it holds.
inline double SpacePerUserByte(uint64_t bytes_on_disk, uint64_t user_bytes) {
  if (user_bytes == 0) return 0;
  return static_cast<double>(bytes_on_disk) / static_cast<double>(user_bytes);
}

/// One recorded span. `parent` indexes the same vector (-1 for a root).
struct Span {
  const char* name = "";
  uint64_t op = 0;  // spans of one operation share this id
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Each span's duration minus the part of its interval that its direct
/// children cover (overlapping children are counted once).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[s.parent];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[s.parent].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    int64_t busy = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) busy += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) busy += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - busy;
  }
  return self;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

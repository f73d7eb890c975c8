// Benchmark-side spans around the public calls each workload makes.
//
// Spans are recorded on the client thread only. Every root span starts
// a new operation id, and the spans it encloses carry the same id. When
// a root closes, its tree is folded into per-name totals (count, total
// and self time, every duration) and, up to a cap, kept for the Chrome
// trace written when the run ends. A disabled recorder costs one branch
// per scope.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Total {
    const char* name = "";
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    std::vector<double> durations_us;  // every span of this name
  };

  /// Closes the span it opened when it goes out of scope.
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name)
        : rec_(rec != nullptr && rec->enabled_ ? rec : nullptr) {
      if (rec_ != nullptr) index_ = rec_->Open(name);
    }
    ~Scope() {
      if (rec_ != nullptr) rec_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int32_t index_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  const std::vector<Total>& totals() const { return totals_; }
  const std::vector<Span>& kept() const { return kept_; }

  /// Chrome trace-event JSON of the kept spans (timestamps in µs from
  /// the first kept span).
  std::string ChromeTraceJson() const {
    std::string out = "{\"traceEvents\":[";
    const int64_t base = kept_.empty() ? 0 : kept_.front().start_ns;
    char buf[256];
    for (size_t i = 0; i < kept_.size(); ++i) {
      const Span& s = kept_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                    i == 0 ? "" : ",", s.name,
                    static_cast<double>(s.start_ns - base) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    static_cast<unsigned long long>(s.op));
      out += buf;
    }
    out += "]}\n";
    return out;
  }

 private:
  static constexpr size_t kMaxKept = 50000;

  int32_t Open(const char* name) {
    Span s;
    s.name = name;
    s.op = op_;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = NowNs();
    tree_.push_back(s);
    open_.push_back(static_cast<int32_t>(tree_.size() - 1));
    return open_.back();
  }

  void Close(int32_t index) {
    tree_[index].end_ns = NowNs();
    open_.pop_back();
    if (!open_.empty()) return;
    const std::vector<int64_t> self = SelfTimes(tree_);
    for (size_t i = 0; i < tree_.size(); ++i) {
      Total& t = TotalFor(tree_[i].name);
      ++t.count;
      const int64_t dur = tree_[i].end_ns - tree_[i].start_ns;
      t.total_ns += dur;
      t.self_ns += self[i];
      t.durations_us.push_back(static_cast<double>(dur) / 1e3);
    }
    if (kept_.size() + tree_.size() <= kMaxKept) {
      const int32_t shift = static_cast<int32_t>(kept_.size());
      for (Span s : tree_) {
        if (s.parent >= 0) s.parent += shift;
        kept_.push_back(s);
      }
    }
    tree_.clear();
    ++op_;
  }

  Total& TotalFor(const char* name) {
    for (Total& t : totals_) {
      if (t.name == name || std::strcmp(t.name, name) == 0) return t;
    }
    totals_.emplace_back();
    totals_.back().name = name;
    return totals_.back();
  }

  bool enabled_ = false;
  uint64_t op_ = 1;
  std::vector<Span> tree_;     // spans of the operation in progress
  std::vector<int32_t> open_;  // indices into tree_ of open spans
  std::vector<Total> totals_;
  std::vector<Span> kept_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_

// Timing arithmetic shared by every workload: the span ledger (name,
// start, end, parent, epoch), self time as span minus child coverage,
// tail-percentile selection, and open-loop lateness. Kept free of any
// pipeline type so tests/ledger_test.cc can check it on hand-made spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Ns = std::int64_t;

inline Ns now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Cost of one now_ns() call on this host: the median of back-to-back
// readings, measured once per process.
Ns clock_overhead_ns();

// One timed call. `parent` indexes the same ledger (-1 = top level);
// `epoch` is the identifier every span of one reporting epoch shares.
struct Span {
  std::uint16_t name = 0;
  std::uint16_t thread = 0;
  std::int32_t parent = -1;
  std::uint32_t epoch = 0;
  Ns start = 0;
  Ns end = 0;
  Ns duration() const { return end - start; }
};

// Append-only span store for one recording thread. Spans stay in memory
// until the run ends; nothing is written while the window is open.
class Ledger {
 public:
  explicit Ledger(std::uint16_t thread) : thread_(thread) {}

  // Opens a span and returns its index (close it with `close`).
  std::int32_t open(std::uint16_t name, std::uint32_t epoch,
                    std::int32_t parent = -1) {
    spans_.push_back(Span{name, thread_, parent, epoch, now_ns(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t index) { spans_[index].end = now_ns(); }

  // Records an already-timed interval.
  std::int32_t add(std::uint16_t name, std::uint32_t epoch, Ns start, Ns end,
                   std::int32_t parent = -1) {
    spans_.push_back(Span{name, thread_, parent, epoch, start, end});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint16_t thread_;
  std::vector<Span> spans_;
};

// Length of the union of `intervals` clipped to [lo, hi]. Overlapping
// and nested intervals count once.
Ns covered(std::vector<std::pair<Ns, Ns>> intervals, Ns lo, Ns hi);

// Self time of every span: its duration minus the part of it that its
// direct children cover (children that overlap each other count once,
// and a child sticking out of its parent counts only inside it).
std::vector<Ns> self_times(std::span<const Span> spans);

// Value at percentile `permille` / 10 by the nearest-rank rule (the
// ceil(p * n)-th smallest). `values` is reordered. 0 when empty.
double percentile(std::vector<double>& values, unsigned permille);

// The highest percentile (in permille, from 999, 990, 950, 900, 500) that
// has at least ten samples beyond its nearest rank among `n` samples;
// 0 when even the median has fewer than ten beyond it.
unsigned highest_supported_permille(std::size_t n);

// Open-loop schedule: packet `i` is due `i * gap_ns` after `t0`.
inline Ns due_time(Ns t0, std::uint64_t i, double gap_ns) {
  return t0 + static_cast<Ns>(static_cast<double>(i) * gap_ns);
}

// How late a send at `sent` was against its due time. Measured from the
// due time, never from the previous send, so one stall shows on every
// packet it delays; an early send (clock granularity) counts as on time.
inline Ns lateness(Ns due, Ns sent) { return sent > due ? sent - due : 0; }

// Median of `values` (reordered); 0 when empty.
double median(std::vector<double>& values);

}  // namespace perfbench

#include "ledger.h"

#include <algorithm>

namespace perfbench {

Ns clock_overhead_ns() {
  static const Ns cost = [] {
    std::vector<double> gaps;
    for (int i = 0; i < 1001; ++i) {
      const Ns a = now_ns();
      gaps.push_back(static_cast<double>(now_ns() - a));
    }
    return static_cast<Ns>(median(gaps));
  }();
  return cost;
}

Ns covered(std::vector<std::pair<Ns, Ns>> intervals, Ns lo, Ns hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  Ns total = 0;
  Ns reach = lo;  // everything before `reach` is already counted
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    const Ns from = std::max(a, reach);
    if (b > from) {
      total += b - from;
      reach = b;
    }
  }
  return total;
}

std::vector<Ns> self_times(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<Ns, Ns>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[s.parent].emplace_back(s.start, s.end);
    }
  }
  std::vector<Ns> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = s.duration() - covered(std::move(children[i]), s.start, s.end);
  }
  return self;
}

double percentile(std::vector<double>& values, unsigned permille) {
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  // Nearest rank: the ceil(p * n)-th smallest, 1-based, at least 1.
  std::size_t rank = (static_cast<std::size_t>(permille) * n + 999) / 1000;
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

unsigned highest_supported_permille(std::size_t n) {
  for (const unsigned p : {999u, 990u, 950u, 900u, 500u}) {
    const std::size_t rank = (static_cast<std::size_t>(p) * n + 999) / 1000;
    if (rank >= 1 && n - rank >= 10) return p;
  }
  return 0;
}

double median(std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench

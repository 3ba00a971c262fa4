// The benchmark's own arithmetic: self time over nested and overlapping
// spans, the highest percentile with ten samples beyond it, and open-loop
// lateness measured from the due time.
#include <gtest/gtest.h>

#include <vector>

#include "ledger.h"

namespace perfbench {
namespace {

Span span(std::int32_t parent, Ns start, Ns end) {
  Span s;
  s.parent = parent;
  s.start = start;
  s.end = end;
  return s;
}

TEST(Covered, UnionCountsOverlapOnceAndClips) {
  EXPECT_EQ(covered({}, 0, 100), 0);
  EXPECT_EQ(covered({{10, 20}, {30, 40}}, 0, 100), 20);
  EXPECT_EQ(covered({{10, 30}, {20, 40}}, 0, 100), 30);  // overlap
  EXPECT_EQ(covered({{10, 50}, {20, 30}}, 0, 100), 40);  // nested
  EXPECT_EQ(covered({{-10, 20}, {90, 120}}, 0, 100), 30);  // clipped
  EXPECT_EQ(covered({{110, 120}}, 0, 100), 0);             // outside
}

TEST(SelfTimes, LeafSpanIsAllSelf) {
  const std::vector<Span> spans = {span(-1, 0, 100)};
  EXPECT_EQ(self_times(spans), std::vector<Ns>{100});
}

TEST(SelfTimes, NestedSpansSubtractOnlyDirectChildren) {
  // root [0,100) > child [10,60) > grandchild [20,40)
  const std::vector<Span> spans = {span(-1, 0, 100), span(0, 10, 60),
                                   span(1, 20, 40)};
  EXPECT_EQ(self_times(spans), (std::vector<Ns>{50, 30, 20}));
}

TEST(SelfTimes, OverlappingChildrenCountOnce) {
  // Two children of one parent overlap on [30,40): covered = [10,50).
  const std::vector<Span> spans = {span(-1, 0, 100), span(0, 10, 40),
                                   span(0, 30, 50)};
  EXPECT_EQ(self_times(spans)[0], 60);
}

TEST(SelfTimes, ChildOutsideParentCountsOnlyInside) {
  // A child that ends after its parent (clock skew across threads).
  const std::vector<Span> spans = {span(-1, 0, 100), span(0, 90, 130)};
  EXPECT_EQ(self_times(spans)[0], 90);
  EXPECT_EQ(self_times(spans)[1], 40);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 500), 50);
  EXPECT_EQ(percentile(v, 990), 99);
  EXPECT_EQ(percentile(v, 999), 100);
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 500), 0);
}

TEST(HighestSupported, TenSamplesBeyondTheRank) {
  EXPECT_EQ(highest_supported_permille(0), 0u);
  EXPECT_EQ(highest_supported_permille(19), 0u);    // median rank 10: 9 beyond
  EXPECT_EQ(highest_supported_permille(20), 500u);  // rank 10: 10 beyond
  EXPECT_EQ(highest_supported_permille(100), 900u);   // p90 rank 90
  EXPECT_EQ(highest_supported_permille(199), 900u);   // p95 rank 190: 9
  EXPECT_EQ(highest_supported_permille(200), 950u);   // p95 rank 190: 10
  EXPECT_EQ(highest_supported_permille(999), 950u);   // p99 rank 990: 9
  EXPECT_EQ(highest_supported_permille(1000), 990u);  // p99 rank 990: 10
  EXPECT_EQ(highest_supported_permille(9999), 990u);  // p99.9 rank 9990: 9
  EXPECT_EQ(highest_supported_permille(10000), 999u);
}

TEST(Lateness, MeasuredFromDueTime) {
  // Packets due every 10 ns from t0 = 1000; the generator stalls 35 ns
  // before packet 1, and each send then costs 1 ns until it catches up.
  const double gap = 10.0;
  const Ns t0 = 1000;
  std::vector<Ns> due;
  for (int i = 0; i < 6; ++i) due.push_back(due_time(t0, i, gap));
  EXPECT_EQ(due, (std::vector<Ns>{1000, 1010, 1020, 1030, 1040, 1050}));
  const std::vector<Ns> sent = {1000, 1045, 1046, 1047, 1048, 1050};
  std::vector<Ns> late;
  for (std::size_t i = 0; i < due.size(); ++i) {
    late.push_back(lateness(due[i], sent[i]));
  }
  // The stall shows on every packet it delayed, not just the first:
  // lateness from the previous send would read 45, 1, 1, 1, 2.
  EXPECT_EQ(late, (std::vector<Ns>{0, 35, 26, 17, 8, 0}));
  EXPECT_EQ(lateness(1000, 990), 0);  // early counts as on time
}

TEST(Median, EvenAndOdd) {
  std::vector<double> odd = {3, 1, 2};
  std::vector<double> even = {4, 1, 3, 2};
  EXPECT_EQ(median(odd), 2);
  EXPECT_EQ(median(even), 2.5);
}

}  // namespace
}  // namespace perfbench

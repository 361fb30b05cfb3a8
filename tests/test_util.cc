#include "test_util.h"

#include <gtest/gtest.h>

#include "core/memory_arbiter.h"
#include "geometry/extent.h"

namespace sj {
namespace testing_util {

DatasetRef MakeDataset(TestDisk* td, const std::vector<RectF>& rects,
                       const std::string& name,
                       std::vector<std::unique_ptr<Pager>>* keepalive) {
  auto pager = td->NewPager(name);
  StreamWriter<RectF> writer(pager.get());
  const PageId first = writer.first_page();
  for (const RectF& r : rects) writer.Append(r);
  auto n = writer.Finish();
  DatasetRef ref;
  ref.range = StreamRange{pager.get(), first, n.value()};
  ref.extent = ComputeExtent(rects);
  keepalive->push_back(std::move(pager));
  return ref;
}

void ExpectSameDisk(const DiskStats& got, const DiskStats& want,
                    const std::string& what) {
  EXPECT_EQ(got.read_requests, want.read_requests) << what;
  EXPECT_EQ(got.sequential_read_requests, want.sequential_read_requests)
      << what;
  EXPECT_EQ(got.random_read_requests, want.random_read_requests) << what;
  EXPECT_EQ(got.write_requests, want.write_requests) << what;
  EXPECT_EQ(got.sequential_write_requests, want.sequential_write_requests)
      << what;
  EXPECT_EQ(got.random_write_requests, want.random_write_requests) << what;
  EXPECT_EQ(got.pages_read, want.pages_read) << what;
  EXPECT_EQ(got.pages_written, want.pages_written) << what;
  EXPECT_EQ(got.io_seconds, want.io_seconds) << what;
}

std::pair<size_t, size_t> SweepGrant(const JoinStats& stats) {
  for (const MemoryComponentStats& c : stats.memory_components) {
    if (c.component == grants::kSweep) {
      return {c.used_high_water, c.granted_high_water};
    }
  }
  return {0, 0};
}

std::vector<IdPair> BruteForcePairs(const std::vector<RectF>& a,
                                    const std::vector<RectF>& b) {
  std::vector<IdPair> out;
  for (const RectF& ra : a) {
    for (const RectF& rb : b) {
      if (ra.Intersects(rb)) out.push_back({ra.id, rb.id});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<IdPair> BruteForceExactPairs(const std::vector<RectF>& a,
                                         const std::vector<RectF>& b,
                                         const std::vector<Segment>& ga,
                                         const std::vector<Segment>& gb) {
  std::vector<IdPair> out;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      if (a[i].Intersects(b[j]) && SegmentsIntersect(ga[i], gb[j])) {
        out.push_back({a[i].id, b[j].id});
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace testing_util
}  // namespace sj

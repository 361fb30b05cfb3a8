#ifndef USJ_TESTS_TEST_UTIL_H_
#define USJ_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "geometry/rect.h"
#include "geometry/segment.h"
#include "io/disk_model.h"
#include "io/pager.h"
#include "io/stream.h"
#include "join/join_types.h"
#include "sort/external_sort.h"
#include "util/thread_pool.h"

namespace sj {
namespace testing_util {

/// A DiskModel + pager bundle for tests (Machine 3 by default: fastest,
/// so modeled times are small but nonzero).
struct TestDisk {
  TestDisk() : disk(MachineModel::Machine3()) {}
  explicit TestDisk(MachineModel m) : disk(std::move(m)) {}

  std::unique_ptr<Pager> NewPager(const std::string& name) {
    return MakeMemoryPager(&disk, name);
  }

  DiskModel disk;
};

/// Writes rects as a stream on a fresh pager and returns the DatasetRef.
DatasetRef MakeDataset(TestDisk* td, const std::vector<RectF>& rects,
                       const std::string& name,
                       std::vector<std::unique_ptr<Pager>>* keepalive);

/// All intersecting cross pairs by brute force, sorted.
std::vector<IdPair> BruteForcePairs(const std::vector<RectF>& a,
                                    const std::vector<RectF>& b);

/// The filter-and-refine reference oracle: pairs whose MBRs *and* exact
/// segments (ga[i] is the geometry of a[i]) intersect, sorted.
std::vector<IdPair> BruteForceExactPairs(const std::vector<RectF>& a,
                                         const std::vector<RectF>& b,
                                         const std::vector<Segment>& ga,
                                         const std::vector<Segment>& gb);

/// Expects every deterministic DiskStats field of `got` to equal `want`'s
/// (io_wall_seconds is measured time and not compared).
void ExpectSameDisk(const DiskStats& got, const DiskStats& want,
                    const std::string& what);

/// The sweep grant's used and granted high-water marks in `stats`
/// ({0, 0} when the join held none).
std::pair<size_t, size_t> SweepGrant(const JoinStats& stats);

/// A shared pool whose only worker is held by a blocking task for the
/// pool's lifetime, so no task submitted to it ever gets a worker.
class SaturatedPool {
 public:
  SaturatedPool() : pool_(1) {
    std::shared_future<void> gate = release_.get_future().share();
    blocker_ = pool_.Submit([gate] { gate.wait(); });
  }
  ~SaturatedPool() {
    release_.set_value();
    blocker_.wait();
  }
  ThreadPool* get() { return &pool_; }

 private:
  ThreadPool pool_;
  std::promise<void> release_;
  std::future<void> blocker_;
};

/// Sorts a pair list (for order-insensitive comparison).
inline std::vector<IdPair> Sorted(std::vector<IdPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

}  // namespace testing_util
}  // namespace sj

#endif  // USJ_TESTS_TEST_UTIL_H_

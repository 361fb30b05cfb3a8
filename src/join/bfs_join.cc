#include "join/bfs_join.h"

#include <algorithm>
#include <vector>

#include "io/buffer_pool.h"
#include "join/entry_sweep.h"
#include "rtree/node.h"

namespace sj {
namespace {

/// A node pair queued for one level of the breadth-first join. The MBRs
/// are the parents' entry rectangles, used for search-space restriction.
struct NodePair {
  PageId page_a;
  PageId page_b;
  RectF mbr_a;
  RectF mbr_b;
};

class BFSRunner {
 public:
  BFSRunner(const RTree& a, const RTree& b, const JoinOptions& options,
            JoinSink* sink)
      : tree_a_(a),
        tree_b_(b),
        pool_(options.buffer_pool_pages),
        sink_(sink) {}

  Status Run(size_t* max_pairs_bytes) {
    if (tree_a_.meta().entry_count == 0 || tree_b_.meta().entry_count == 0) {
      return Status::OK();
    }
    if (!tree_a_.bounding_box().Intersects(tree_b_.bounding_box())) {
      return Status::OK();
    }
    uint16_t level_a = static_cast<uint16_t>(tree_a_.height() - 1);
    uint16_t level_b = static_cast<uint16_t>(tree_b_.height() - 1);
    std::vector<NodePair> pairs = {NodePair{tree_a_.root(), tree_b_.root(),
                                            tree_a_.bounding_box(),
                                            tree_b_.bounding_box()}};
    while (!pairs.empty()) {
      *max_pairs_bytes =
          std::max(*max_pairs_bytes, pairs.size() * sizeof(NodePair));
      // The global optimization: fetch nodes in layout order.
      std::sort(pairs.begin(), pairs.end(),
                [](const NodePair& x, const NodePair& y) {
                  if (x.page_a != y.page_a) return x.page_a < y.page_a;
                  return x.page_b < y.page_b;
                });
      std::vector<NodePair> next;
      const bool descend_a = level_a >= level_b;
      const bool descend_b = level_b >= level_a;
      const bool at_leaves = level_a == 0 && level_b == 0;
      for (const NodePair& pair : pairs) {
        SJ_RETURN_IF_ERROR(
            ProcessPair(pair, descend_a, descend_b, at_leaves, &next));
      }
      if (at_leaves) break;
      if (descend_a && level_a > 0) level_a--;
      if (descend_b && level_b > 0) level_b--;
      pairs = std::move(next);
    }
    return Status::OK();
  }

  BufferPoolStats pool_stats() const { return pool_.stats(); }
  uint64_t emitted() const { return emitted_; }

 private:
  Status LoadOverlapping(const RTree& tree, PageId page, const RectF& window,
                         std::vector<RectF>* out) {
    uint8_t buf[kPageSize];
    SJ_RETURN_IF_ERROR(pool_.Get(tree.pager(), page, buf));
    const NodeView node(buf);
    out->clear();
    out->reserve(node.count());
    for (uint32_t i = 0; i < node.count(); ++i) {
      const RectF e = node.Entry(i);
      if (e.Intersects(window)) out->push_back(e);
    }
    std::sort(out->begin(), out->end(), OrderByXLo());
    return Status::OK();
  }

  Status ProcessPair(const NodePair& pair, bool descend_a, bool descend_b,
                     bool at_leaves, std::vector<NodePair>* next) {
    const RectF window = pair.mbr_a.IntersectionWith(pair.mbr_b);
    if (at_leaves) {
      SJ_RETURN_IF_ERROR(
          LoadOverlapping(tree_a_, pair.page_a, window, &ents_a_));
      SJ_RETURN_IF_ERROR(
          LoadOverlapping(tree_b_, pair.page_b, window, &ents_b_));
      SweepEntryLists(ents_a_, ents_b_, [this](const RectF& a, const RectF& b) {
        sink_->EmitPair(a, b);
        emitted_++;
      });
      return Status::OK();
    }
    if (descend_a && descend_b) {
      SJ_RETURN_IF_ERROR(
          LoadOverlapping(tree_a_, pair.page_a, window, &ents_a_));
      SJ_RETURN_IF_ERROR(
          LoadOverlapping(tree_b_, pair.page_b, window, &ents_b_));
      SweepEntryLists(ents_a_, ents_b_,
                      [&next](const RectF& a, const RectF& b) {
                        next->push_back(NodePair{a.id, b.id, a, b});
                      });
      return Status::OK();
    }
    if (descend_a) {
      SJ_RETURN_IF_ERROR(
          LoadOverlapping(tree_a_, pair.page_a, window, &ents_a_));
      for (const RectF& ea : ents_a_) {
        if (!ea.Intersects(pair.mbr_b)) continue;
        next->push_back(NodePair{ea.id, pair.page_b, ea, pair.mbr_b});
      }
      return Status::OK();
    }
    SJ_RETURN_IF_ERROR(
        LoadOverlapping(tree_b_, pair.page_b, window, &ents_b_));
    for (const RectF& eb : ents_b_) {
      if (!eb.Intersects(pair.mbr_a)) continue;
      next->push_back(NodePair{pair.page_a, eb.id, pair.mbr_a, eb});
    }
    return Status::OK();
  }

  const RTree& tree_a_;
  const RTree& tree_b_;
  BufferPool pool_;
  JoinSink* sink_;
  uint64_t emitted_ = 0;
  // Scratch entry lists reused across pairs.
  std::vector<RectF> ents_a_;
  std::vector<RectF> ents_b_;
};

}  // namespace

Result<JoinStats> BFSJoin(const RTree& a, const RTree& b, DiskModel* disk,
                          const JoinOptions& options, JoinSink* sink) {
  JoinMeasurement measurement(disk);
  const uint64_t index_reads_before =
      disk->device_stats()[a.pager()->device_id()].pages_read +
      disk->device_stats()[b.pager()->device_id()].pages_read;

  BFSRunner runner(a, b, options, sink);
  size_t max_pairs_bytes = 0;
  SJ_RETURN_IF_ERROR(runner.Run(&max_pairs_bytes));

  JoinStats stats = measurement.Finish();
  stats.output_count = runner.emitted();
  stats.index_pages_read =
      disk->device_stats()[a.pager()->device_id()].pages_read +
      disk->device_stats()[b.pager()->device_id()].pages_read -
      index_reads_before;
  const BufferPoolStats pool_stats = runner.pool_stats();
  stats.pool_requests = pool_stats.requests;
  stats.pool_hits = pool_stats.hits;
  stats.max_queue_bytes = max_pairs_bytes;
  return stats;
}

}  // namespace sj

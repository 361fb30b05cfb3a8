// Differential suite for the external sort's one pipeline. Run formation
// splits the input into units that sort and write on the worker pool
// (inline on the caller at one thread) and then replays the modeled
// charges; the merge runs on a loser tree. Every thread count, fan-in and
// backend must produce the page images, modeled io_seconds and request
// counts of a record-at-a-time StreamReader -> StreamWriter formation
// loop — the determinism contract the whole-join differential harness
// relies on.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/memory_arbiter.h"
#include "datagen/synthetic.h"
#include "io/pager.h"
#include "io/prefetch.h"
#include "io/storage.h"
#include "io/stream.h"
#include "sort/external_sort.h"
#include "sort/loser_tree.h"
#include "sort/run_layout.h"
#include "sort/sort_config.h"
#include "test_util.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace sj {
namespace {

using testing_util::ExpectSameDisk;
using testing_util::TestDisk;

StreamRange WriteRects(Pager* pager, const std::vector<RectF>& rects) {
  StreamWriter<RectF> writer(pager);
  const PageId first = writer.first_page();
  for (const RectF& r : rects) writer.Append(r);
  auto n = writer.Finish();
  SJ_CHECK(n.ok());
  return StreamRange{pager, first, n.value()};
}

std::vector<RectF> ReadRects(const StreamRange& range) {
  std::vector<RectF> out;
  StreamReader<RectF> reader(range.pager, range.first_page, range.count);
  while (auto r = reader.Next()) out.push_back(*r);
  return out;
}

/// Raw page images of a sorted range — "byte-identical" means the pages,
/// not just the record sequence (page-tail slack included).
std::vector<uint8_t> ReadPages(const StreamRange& range) {
  constexpr uint32_t per_page = StreamWriter<RectF>::kRecordsPerPage;
  const uint64_t npages = (range.count + per_page - 1) / per_page;
  std::vector<uint8_t> bytes(npages * kPageSize);
  for (uint64_t p = 0; p < npages; ++p) {
    SJ_CHECK_OK(range.pager->backend()->ReadPage(
        static_cast<PageId>(range.first_page + p),
        bytes.data() + p * kPageSize));
  }
  return bytes;
}

/// Input, scratch and output pagers on one fresh DiskModel, memory- or
/// file-backed, with `rects` written as the input stream. A padding
/// stream precedes the input so its first page is not page 0.
struct SortRig {
  SortRig(const std::vector<RectF>& rects, bool file_backend) {
    StorageFactory* storage = nullptr;
    if (file_backend) {
      auto made = TmpFileStorageFactory::Make();
      SJ_CHECK(made.ok()) << made.status().ToString();
      factory = std::move(made).value();
      storage = factory.get();
    }
    auto make = [&](const char* name) {
      Result<std::unique_ptr<Pager>> pager =
          MakePager(storage, &td.disk, name);
      SJ_CHECK(pager.ok()) << pager.status().ToString();
      return std::move(pager).value();
    };
    input = make("input");
    scratch = make("scratch");
    output = make("output");
    WriteRects(input.get(), UniformRects(1000, RectF(0, 0, 10, 10), 1.0f,
                                         /*seed=*/5));
    in = WriteRects(input.get(), rects);
    td.disk.ResetStats();
  }

  TestDisk td;
  std::unique_ptr<TmpFileStorageFactory> factory;
  std::unique_ptr<Pager> input;
  std::unique_ptr<Pager> scratch;
  std::unique_ptr<Pager> output;
  StreamRange in;
};

/// The formation oracle: runs formed record at a time through a
/// StreamReader and a StreamWriter, each chunk flushed as soon as it
/// reaches the run capacity. FormRuns must reproduce its run extents,
/// page images and modeled charge sequence at every thread count.
std::vector<StreamRange> ReferenceFormRuns(const StreamRange& input,
                                           Pager* scratch,
                                           size_t memory_bytes) {
  const RunLayout layout = RunLayout::For(memory_bytes, sizeof(RectF));
  StreamReader<RectF> reader(input.pager, input.first_page, input.count);
  std::vector<StreamRange> runs;
  std::vector<RectF> chunk;
  while (!reader.Done()) {
    chunk.clear();
    while (chunk.size() < layout.run_records && !reader.Done()) {
      chunk.push_back(*reader.Next());
    }
    std::sort(chunk.begin(), chunk.end(), OrderByYLo());
    StreamWriter<RectF> writer(scratch, layout.write_block_pages);
    const PageId first = writer.first_page();
    for (const RectF& r : chunk) writer.Append(r);
    auto n = writer.Finish();
    SJ_CHECK(n.ok()) << n.status().ToString();
    runs.push_back(StreamRange{scratch, first, n.value()});
  }
  return runs;
}

struct Formation {
  std::vector<StreamRange> runs;
  std::vector<std::vector<uint8_t>> pages;  // One image per run.
  DiskStats disk;
};

/// Forms runs over `rects` with the sorter at `threads` (or, with
/// threads == 0, with the reference loop) on a fresh rig.
Formation Form(const std::vector<RectF>& rects, size_t memory_bytes,
               uint32_t threads, bool file_backend) {
  SortRig rig(rects, file_backend);
  Formation f;
  if (threads == 0) {
    f.runs = ReferenceFormRuns(rig.in, rig.scratch.get(), memory_bytes);
  } else {
    SortConfig config;
    config.threads = threads;
    ExternalSorter<RectF, OrderByYLo> sorter(memory_bytes, rig.scratch.get(),
                                             OrderByYLo(), nullptr,
                                             PrefetchContext(), config);
    SJ_CHECK_OK(sorter.FormRuns(rig.in, &f.runs));
  }
  f.disk = rig.td.disk.stats();
  for (const StreamRange& run : f.runs) f.pages.push_back(ReadPages(run));
  return f;
}

// Formation against the oracle at every thread count and backend: same
// run extents, same scratch page images, same modeled charges in the
// same order (io_seconds compared exactly). Sizes cover an empty input,
// one short unit, an exact multiple of the run capacity and a ragged
// tail.
TEST(FormRunsDifferential, MatchesStreamLoopReference) {
  const size_t memory = 3000 * sizeof(RectF);
  const uint64_t cap = RunLayout::For(memory, sizeof(RectF)).run_records;
  for (const uint64_t n : {uint64_t{0}, cap / 3, 4 * cap, uint64_t{30000}}) {
    const auto rects =
        UniformRects(n, RectF(0, 0, 1000, 1000), 4.0f, /*seed=*/n + 3);
    const Formation ref = Form(rects, memory, /*threads=*/0, false);
    EXPECT_EQ(ref.runs.size(), (n + cap - 1) / cap);
    for (const uint32_t threads : {1u, 2u, 8u}) {
      for (const bool file_backend : {false, true}) {
        const Formation got = Form(rects, memory, threads, file_backend);
        const std::string label = "n=" + std::to_string(n) +
                                  " threads=" + std::to_string(threads) +
                                  " file=" + std::to_string(file_backend);
        ASSERT_EQ(got.runs.size(), ref.runs.size()) << label;
        for (size_t i = 0; i < ref.runs.size(); ++i) {
          EXPECT_EQ(got.runs[i].first_page, ref.runs[i].first_page) << label;
          EXPECT_EQ(got.runs[i].count, ref.runs[i].count) << label;
          EXPECT_TRUE(got.pages[i] == ref.pages[i]) << label << " run " << i;
        }
        ExpectSameDisk(got.disk, ref.disk, label);
      }
    }
  }
}

struct RunOutcome {
  std::vector<uint8_t> pages;
  DiskStats disk;
  size_t peak_memory = 0;
  SortStats sort;
};

struct RunConfig {
  uint32_t threads = 1;
  uint32_t fan_in = 0;  // 0 = auto.
  bool file_backend = false;
  bool prefetch = false;
};

/// One full sort under `config` on a fresh DiskModel; ~10 runs at the
/// given budget so both formation parallelism and multi-group merging
/// engage.
RunOutcome RunOnce(const std::vector<RectF>& rects, size_t memory_bytes,
                   const RunConfig& config) {
  SortRig rig(rects, config.file_backend);
  MemoryArbiter arbiter(memory_bytes, /*strict=*/false);
  SortConfig sort_config;
  sort_config.threads = config.threads;
  sort_config.merge_fan_in = config.fan_in;
  PrefetchContext prefetch;
  prefetch.enabled = config.prefetch;

  ExternalSorter<RectF, OrderByYLo> sorter(memory_bytes, rig.scratch.get(),
                                           OrderByYLo(), &arbiter, prefetch,
                                           sort_config);
  auto sorted = sorter.Sort(rig.in, rig.output.get());
  SJ_CHECK(sorted.ok()) << sorted.status().ToString();

  RunOutcome outcome;
  outcome.pages = ReadPages(*sorted);
  outcome.disk = rig.td.disk.stats();
  outcome.peak_memory = arbiter.peak_bytes();
  outcome.sort = sorter.stats();
  return outcome;
}

// The seeded whole-sort differential: {1,2,8} threads x {fan-in 2, auto,
// max} x {memory, file} backends. Formation is pinned to the stream-loop
// oracle above; here every config must match the one-thread memory sort
// of the same fan-in page for page and charge for charge, and its pages
// must decode to std::sort's sequence. The arbiter peak stays within the
// grant.
TEST(ParallelSortDifferential, AllConfigsMatchSingleThreadReference) {
  const uint64_t n = 30000;
  const size_t memory = 3000 * sizeof(RectF);  // ~10+ formation units.
  auto rects = UniformRects(n, RectF(0, 0, 1000, 1000), 4.0f, /*seed=*/42);

  // std::sort oracle: the output record sequence every config must hit.
  std::vector<RectF> oracle = rects;
  std::sort(oracle.begin(), oracle.end(), OrderByYLo());

  // fan_in: 2 (narrowest), 0 (auto), 64 (clamped to the layout max).
  for (uint32_t fan_in : {0u, 2u, 64u}) {
    RunConfig ref_config;
    ref_config.fan_in = fan_in;
    const RunOutcome ref = RunOnce(rects, memory, ref_config);
    ASSERT_FALSE(ref.pages.empty());
    EXPECT_LE(ref.peak_memory, memory);
    EXPECT_GT(ref.sort.runs, 1u);

    // The oracle check once per fan-in (pages decode to the sorted
    // sequence).
    {
      TestDisk td;
      auto pager = td.NewPager("decode");
      const PageId first = pager->Allocate(
          static_cast<uint32_t>(ref.pages.size() / kPageSize));
      for (size_t p = 0; p < ref.pages.size() / kPageSize; ++p) {
        SJ_CHECK_OK(pager->backend()->WritePage(
            static_cast<PageId>(first + p), ref.pages.data() + p * kPageSize));
      }
      const std::vector<RectF> decoded =
          ReadRects(StreamRange{pager.get(), first, n});
      ASSERT_EQ(decoded.size(), oracle.size());
      for (size_t i = 0; i < oracle.size(); ++i) {
        ASSERT_EQ(decoded[i], oracle[i]) << "fan_in " << fan_in << " at " << i;
      }
    }

    for (uint32_t threads : {1u, 2u, 8u}) {
      for (bool file_backend : {false, true}) {
        RunConfig config;
        config.threads = threads;
        config.fan_in = fan_in;
        config.file_backend = file_backend;
        const RunOutcome got = RunOnce(rects, memory, config);
        const std::string label = "threads=" + std::to_string(threads) +
                                  " fan_in=" + std::to_string(fan_in) +
                                  " file=" + std::to_string(file_backend);
        ASSERT_EQ(got.pages.size(), ref.pages.size()) << label;
        EXPECT_EQ(std::memcmp(got.pages.data(), ref.pages.data(),
                              ref.pages.size()),
                  0)
            << label;
        ExpectSameDisk(got.disk, ref.disk, label);
        EXPECT_LE(got.peak_memory, memory) << label;
        EXPECT_EQ(got.sort.runs, ref.sort.runs) << label;
        EXPECT_EQ(got.sort.merge_fan_in, ref.sort.merge_fan_in) << label;
        EXPECT_EQ(got.sort.merge_passes, ref.sort.merge_passes) << label;
      }
    }
  }
}

// Prefetch composes with parallel formation without changing modeled I/O.
TEST(ParallelSortDifferential, PrefetchPlusParallelFormation) {
  const size_t memory = 2000 * sizeof(RectF);
  auto rects = UniformRects(15000, RectF(0, 0, 500, 500), 3.0f, /*seed=*/9);
  RunConfig ref_config;
  const RunOutcome ref = RunOnce(rects, memory, ref_config);
  RunConfig config;
  config.threads = 4;
  config.prefetch = true;
  const RunOutcome got = RunOnce(rects, memory, config);
  ASSERT_EQ(got.pages.size(), ref.pages.size());
  EXPECT_EQ(std::memcmp(got.pages.data(), ref.pages.data(), ref.pages.size()),
            0);
  ExpectSameDisk(got.disk, ref.disk, "prefetch + 4 threads");
}

// A shared morsel pool (service mode) must behave like private teams.
TEST(ParallelSortDifferential, SharedPoolMatchesPrivateTeam) {
  const size_t memory = 2000 * sizeof(RectF);
  auto rects = UniformRects(15000, RectF(0, 0, 500, 500), 3.0f, /*seed=*/13);
  RunConfig ref_config;
  const RunOutcome ref = RunOnce(rects, memory, ref_config);

  SortRig rig(rects, /*file_backend=*/false);
  ThreadPool pool(4);
  SortConfig config;
  config.threads = 4;
  config.pool = &pool;
  ExternalSorter<RectF, OrderByYLo> sorter(memory, rig.scratch.get(),
                                           OrderByYLo(), nullptr,
                                           PrefetchContext(), config);
  auto sorted = sorter.Sort(rig.in, rig.output.get());
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  EXPECT_GT(sorter.stats().runs, 1u);
  const std::vector<uint8_t> pages = ReadPages(*sorted);
  ASSERT_EQ(pages.size(), ref.pages.size());
  EXPECT_EQ(std::memcmp(pages.data(), ref.pages.data(), pages.size()), 0);
  ExpectSameDisk(rig.td.disk.stats(), ref.disk, "shared pool");
}

// FormRuns reports the *reserved* run-buffer capacity up front (not the
// transient fill of each chunk), so a strict arbiter — which aborts on
// usage above the grant — accepts runs whose short final chunk still
// holds the full reservation.
TEST(ParallelSortDifferential, StrictArbiterAcceptsReservedChunkAccounting) {
  const size_t memory = 2000 * sizeof(RectF);
  // 2.2 runs' worth: the last run is short but reserves full capacity.
  auto rects = UniformRects(4000, RectF(0, 0, 500, 500), 3.0f, /*seed=*/17);
  TestDisk td;
  auto input = td.NewPager("input");
  auto scratch = td.NewPager("scratch");
  auto output = td.NewPager("output");
  const StreamRange in = WriteRects(input.get(), rects);
  MemoryArbiter arbiter(memory, /*strict=*/true);
  ExternalSorter<RectF, OrderByYLo> sorter(memory, scratch.get(),
                                           OrderByYLo(), &arbiter);
  ASSERT_TRUE(sorter.Sort(in, output.get()).ok());
  // The sort component reported its reserved capacity, never above it
  // (strict mode would have aborted on an overshoot).
  size_t used = 0, granted = 0;
  for (const MemoryComponentStats& c : arbiter.ComponentStats()) {
    if (c.component == grants::kSortRuns) {
      used = c.used_high_water;
      granted = c.granted_high_water;
    }
  }
  EXPECT_GT(used, 0u);
  EXPECT_LE(used, granted);
}

// --- Input read errors during run formation ---------------------------

/// Memory backend whose reads of pages at or after `fail_from` fail: the
/// sort's input device going bad under it. Writes always succeed.
class FailingReadBackend final : public StorageBackend {
 public:
  Status ReadPage(uint64_t page, void* buf) override {
    if (page >= fail_from) return Status::IoError("injected read failure");
    return inner_.ReadPage(page, buf);
  }
  Status WritePage(uint64_t page, const void* buf) override {
    return inner_.WritePage(page, buf);
  }
  uint64_t PageCount() const override { return inner_.PageCount(); }

  uint64_t fail_from = std::numeric_limits<uint64_t>::max();

 private:
  MemoryBackend inner_;
};

// A failed input read while forming runs comes back from FormRuns and
// Sort as IoError — at one thread, at four, and with a single unit at
// four — instead of aborting the process. The failure is on the input's
// last page, so earlier units read cleanly first. Scratch and output
// stay healthy: only formation reads are under test.
TEST(FormRunsReadError, ReturnsIoErrorAtEveryThreadCount) {
  const size_t memory = 2000 * sizeof(RectF);
  const uint64_t cap = RunLayout::For(memory, sizeof(RectF)).run_records;
  struct Case {
    uint32_t threads;
    uint64_t records;
  };
  for (const Case c : {Case{1, 5 * cap}, Case{4, 5 * cap}, Case{4, cap / 2}}) {
    const std::string label = "threads=" + std::to_string(c.threads) +
                              " records=" + std::to_string(c.records);
    DiskModel disk(MachineModel::Machine3());
    auto backend = std::make_unique<FailingReadBackend>();
    FailingReadBackend* failer = backend.get();
    Pager input(std::move(backend), &disk, "input");
    auto scratch = MakeMemoryPager(&disk, "scratch");
    auto output = MakeMemoryPager(&disk, "output");
    const StreamRange in = WriteRects(
        &input, UniformRects(c.records, RectF(0, 0, 500, 500), 3.0f,
                             /*seed=*/c.records));
    failer->fail_from = input.page_count() - 1;

    SortConfig config;
    config.threads = c.threads;
    ExternalSorter<RectF, OrderByYLo> sorter(memory, scratch.get(),
                                             OrderByYLo(), nullptr,
                                             PrefetchContext(), config);
    std::vector<StreamRange> runs;
    EXPECT_EQ(sorter.FormRuns(in, &runs).code(), StatusCode::kIoError)
        << label;
    EXPECT_EQ(sorter.Sort(in, output.get()).status().code(),
              StatusCode::kIoError)
        << label;
  }
}

// --- Loser tree unit tests ---------------------------------------------

struct IntLess {
  bool operator()(int a, int b) const { return a < b; }
};

TEST(LoserTree, MergesWithSourceStableTies) {
  // Three sources with equal keys: ties must pop in source order.
  std::vector<std::optional<int>> heads = {5, 5, 5};
  LoserTree<int, IntLess> tree(std::move(heads), IntLess());
  EXPECT_EQ(tree.TopSource(), 0u);
  tree.ReplaceTop(std::nullopt);
  EXPECT_EQ(tree.TopSource(), 1u);
  tree.ReplaceTop(std::nullopt);
  EXPECT_EQ(tree.TopSource(), 2u);
  tree.ReplaceTop(std::nullopt);
  EXPECT_TRUE(tree.Empty());
}

TEST(LoserTree, SingleSourceAndEmpty) {
  {
    LoserTree<int, IntLess> tree({std::optional<int>(3)}, IntLess());
    EXPECT_FALSE(tree.Empty());
    EXPECT_EQ(tree.Top(), 3);
    tree.ReplaceTop(7);
    EXPECT_EQ(tree.Top(), 7);
    tree.ReplaceTop(std::nullopt);
    EXPECT_TRUE(tree.Empty());
  }
  {
    LoserTree<int, IntLess> tree({}, IntLess());
    EXPECT_TRUE(tree.Empty());
  }
}

// Five sources (not a power of two) with keys repeated within and across
// sources: the pop sequence is the stable (key, source) order.
TEST(LoserTree, MatchesStableKeySourceOrder) {
  const size_t k = 5;
  std::vector<std::vector<int>> runs(k);
  std::vector<std::pair<int, size_t>> expected;
  uint64_t state = 12345;
  for (size_t s = 0; s < k; ++s) {
    for (int i = 0; i < 200; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      runs[s].push_back(static_cast<int>((state >> 33) % 100));
      expected.emplace_back(runs[s].back(), s);
    }
    std::sort(runs[s].begin(), runs[s].end());
  }
  std::sort(expected.begin(), expected.end());

  std::vector<size_t> cursor(k, 1);
  std::vector<std::optional<int>> heads;
  for (size_t s = 0; s < k; ++s) heads.push_back(runs[s][0]);
  LoserTree<int, IntLess> tree(std::move(heads), IntLess());
  std::vector<std::pair<int, size_t>> popped;
  while (!tree.Empty()) {
    const size_t s = tree.TopSource();
    popped.emplace_back(tree.Top(), s);
    tree.ReplaceTop(cursor[s] < runs[s].size()
                        ? std::optional<int>(runs[s][cursor[s]++])
                        : std::nullopt);
  }
  EXPECT_EQ(popped, expected);
}

}  // namespace
}  // namespace sj

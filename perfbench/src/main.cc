// sjbench: the repository benchmark program.
//
//   sjbench --workload <tiger-stream|tiger-indexed|service-refine>
//           --seed <n> --seconds <s> --trace <0|1>
//           [--scale <f>] [--tmp-dir <dir>]
//           [--trace-out <file>]
//
// Generates the workload's data from the seed, warms up, then measures a
// closed loop for --seconds. Every query's output is checked; the last
// stdout line is one JSON object with the end-to-end metrics (--trace 0)
// or the per-layer metrics of a traced run (--trace 1). Exits nonzero
// when any check failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace sjbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"latency_s_kinds_p50", "s"}, {"latency_s_tail", "s"},
    {"queries_per_s", "1/s"}, {"pairs_per_s", "1/s"}, {"modeled_io_s", "s"},
    {"peak_grant_mb", "MiB"},
};

constexpr MetricDef kLayers[] = {
    {"sort.form_s", "s"},
    {"sort.merge_s", "s"},
    {"sort.records_per_s", "1/s"},
    {"sort.runs", "count"},
    {"sort.merge_passes", "count"},
    {"sweep.s", "s"},
    {"sweep.forward_s", "s"},
    {"sweep.pairs_per_s", "1/s"},
    {"sweep.max_active", "count"},
    {"sweep.structure_mb", "MiB"},
    {"emit.s", "s"},
    {"join.sssj_s", "s"},
    {"join.pbsm_s", "s"},
    {"join.st_s", "s"},
    {"join.pq_s", "s"},
    {"join.pq_mixed_s", "s"},
    {"join.sssj_self_s", "s"},
    {"pbsm.partitions", "count"},
    {"pbsm.overflowed", "count"},
    {"pbsm.write_amp", "ratio"},
    {"pbsm.plan_s", "s"},
    {"core.query_overhead_s", "s"},
    {"plan.s", "s"},
    {"plan.estimate_error", "ratio"},
    {"rtree.bulkload_s", "s"},
    {"rtree.nodes", "count"},
    {"rtree.traverse_s", "s"},
    {"st.pool_hit_ratio", "ratio"},
    {"st.index_pages_read", "count"},
    {"pq.pages_per_node", "ratio"},
    {"pq.max_queue_mb", "MiB"},
    {"io.pages_read", "count"},
    {"io.pages_written", "count"},
    {"io.random_read_ratio", "ratio"},
    {"io.wall_s", "s"},
    {"io.wall_share", "ratio"},
    {"refine.s", "s"},
    {"refine.selectivity", "ratio"},
    {"refine.pages_per_candidate", "ratio"},
    {"op.overhead_s", "s"},
    {"service.inflation.refine", "ratio"},
    {"service.inflation.within", "ratio"},
    {"service.inflation.st", "ratio"},
    {"service.inflation.pq_mixed", "ratio"},
    {"service.inflation.pipeline", "ratio"},
    {"service.degraded_ratio", "ratio"},
    {"service.queue_s", "s"},
    {"service.rejected", "count"},
    {"service.pool_hit_ratio", "ratio"},
    {"service.io_leak_ratio", "ratio"},
    {"pool.cpu_per_wall", "ratio"},
    {"mem.peak_rss_mb", "MiB"},
    {"datagen.s", "s"},
    {"trace.overhead", "ratio"},
};

void Usage() {
  std::fprintf(stderr,
               "usage: sjbench --workload <tiger-stream|tiger-indexed|service-refine> "
               "--seed <n> --seconds <s> --trace <0|1> [--scale <f>] "
               "[--tmp-dir <dir>] [--trace-out <file>]\n");
}

}  // namespace

void ReportEndToEnd(const Values& values, Report* report) {
  for (const MetricDef& m : kEndToEnd) {
    auto it = values.find(m.name);
    if (it == values.end()) {
      report->Fail(std::string("end-to-end metric ") + m.name + " was not measured");
      continue;
    }
    report->Set(m.name, it->second, m.unit);
  }
}

void ReportLayers(const Values& values, Report* report) {
  for (const MetricDef& m : kLayers) {
    auto it = values.find(m.name);
    report->Set(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const MetricDef& m : kLayers) known = known || name == m.name;
    if (!known) report->Fail("per-layer metric " + name + " is not declared");
  }
}

}  // namespace sjbench

int main(int argc, char** argv) {
  using namespace sjbench;
  Options opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* val = argv[++i];
    if (arg == "--workload") {
      opts.workload = val;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(val, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(val, nullptr);
      have_seconds = true;
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(val, "1") == 0;
      have_trace = std::strcmp(val, "0") == 0 || opts.trace;
    } else if (arg == "--scale") {
      opts.scale = std::strtod(val, nullptr);
    } else if (arg == "--tmp-dir") {
      opts.tmp_dir = val;
    } else if (arg == "--trace-out") {
      opts.trace_out = val;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_seed || !have_seconds || !have_trace || !(opts.seconds > 0) ||
      !(opts.scale > 0)) {
    Usage();
    return 2;
  }
  std::printf("sjbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0);

  Report report;
  int rc = 0;
  if (opts.workload == "tiger-stream" || opts.workload == "tiger-indexed") {
    rc = RunStreamOrIndexed(opts, &report);
  } else if (opts.workload == "service-refine") {
    rc = RunServiceRefine(opts, &report);
  } else {
    Usage();
    return 2;
  }
  if (rc != 0) {
    std::fprintf(stderr, "sjbench: workload aborted\n");
    return rc;
  }
  if (report.attempted() == 0) report.Fail("no query was attempted");
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <warehouse_scan|idle_site|many_sites> --seed <n>
//             --seconds <s> --trace <0|1> --out-dir <dir>
//
// Prints one JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Progress and the per-layer self-time summary go to stderr.
// Exits 1 when an output check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<warehouse_scan|idle_site|many_sites> --seed <n> --seconds "
               "<s> --trace <0|1> --out-dir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.out_dir.empty()) return Usage("--out-dir is required");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
  std::filesystem::create_directories(args.out_dir);

  perfbench::Report report;
  if (args.workload == "warehouse_scan") {
    perfbench::RunWarehouseScan(args, &report);
  } else if (args.workload == "idle_site") {
    perfbench::RunIdleSite(args, &report);
  } else if (args.workload == "many_sites") {
    perfbench::RunManySites(args, &report);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  std::printf("%s\n", report.Json(args.trace).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

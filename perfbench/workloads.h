// The benchmark's workloads. Each generates its inputs from args.seed
// (untimed), drives them through StreamingServer, checks the outputs into
// `report`, and adds the end-to-end metrics — plus the per-layer metrics
// when args.trace is set.
#pragma once

#include "common.h"

namespace perfbench {

void RunWarehouseScan(const Args& args, Report* report);
void RunIdleSite(const Args& args, Report* report);
void RunManySites(const Args& args, Report* report);

}  // namespace perfbench

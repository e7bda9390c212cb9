// The benchmark's workloads and the traced per-layer sweep.
#pragma once

#include <memory>

#include "util.h"

namespace perfbench {

// Fault campaigns on C-NN, P-BICG, A-SRAD and L-Transformer (small),
// miss-weighted 1 block x 2 bits, under `none` and under `correct`
// covering the first Table III object. Every pass runs the same trials
// in-process at jobs=1; every other pass runs them at jobs=2 and every
// fourth pass runs one pair sharded over two `dcrm shard-worker`
// processes.
std::unique_ptr<Workload> MakeCampaignWorkload(const Options& opts);

// profile -> RunTiming none/detect/correct -> AnalyzeVulnerability ->
// analysis::Analyze, plus a trace Save/Load round trip, per app.
std::unique_ptr<Workload> MakeOfflineWorkload(const Options& opts);

// An in-process service::Server on a Unix socket, driven by an
// open-loop generator at a fixed offered rate; the seed's schedule is
// played several times on a fresh daemon each time.
std::unique_ptr<Workload> MakeServeWorkload(const Options& opts);

// Fills every per-layer metric into out.layers that the workload's
// own loop did not, measured on the workload's own configuration.
void MeasureLayers(const Options& opts, RunResult& out);

}  // namespace perfbench

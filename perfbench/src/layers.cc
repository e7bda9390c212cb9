// The traced per-layer sweep: times each layer's public entry points
// directly, on the configuration of the workload being traced, so that
// every per-layer metric is measured on every workload.
#include <unistd.h>

#include <filesystem>
#include <functional>

#include "analysis/analysis.h"
#include "analysis/vulnerability.h"
#include "apps/driver.h"
#include "common/rng.h"
#include "core/hot_classifier.h"
#include "core/protection.h"
#include "fault/parallel_campaign.h"
#include "fault/shard_coordinator.h"
#include "mem/fault_model.h"
#include "service/handlers.h"
#include "service/proto.h"
#include "spans.h"
#include "trace/trace_io.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dcrm;

// What the sweep runs on, per workload: the workload's primary app at
// its scale, with its scheme and campaign settings.
struct SweepConfig {
  std::string app;
  apps::AppScale scale = apps::AppScale::kSmall;
  sim::Scheme scheme = sim::Scheme::kDetectCorrect;
  unsigned cover = 1;  // 0 = every hot object
  fault::CampaignConfig campaign;
};

SweepConfig ConfigFor(const Options& opts) {
  SweepConfig c;
  c.campaign.target = fault::Target::kMissWeighted;
  c.campaign.bits_per_block = 2;
  c.campaign.seed = Mix(opts.seed, 77);
  if (opts.workload == "campaign") {
    c.app = "C-NN";
  } else if (opts.workload == "offline") {
    c.app = "A-SRAD";
    c.scale = apps::AppScale::kMedium;
    c.cover = 0;
  } else {
    c.app = "P-ATAX";
    c.scale = apps::AppScale::kTiny;
    c.scheme = sim::Scheme::kDetectOnly;
    c.cover = 0;
  }
  return c;
}

// Median wall time of `reps` calls, in ms, each inside a span.
double TimeMs(const char* span, int reps, const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t = NowNs();
    {
      ScopedSpan s(span);
      fn();
    }
    ms.push_back(MillisSince(t));
  }
  return Median(ms);
}

class Sweep {
 public:
  Sweep(const Options& opts, RunResult& out)
      : opts_(opts), cfg_(ConfigFor(opts)), out_(out) {}

  void Run() {
    app_ = apps::MakeApp(cfg_.app, cfg_.scale);
    Core();
    Exec();
    Mem();
    Trace();
    Sim();
    Analysis();
    Fault();
    Service();
  }

 private:
  void Put(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples) {
    out_.layers.try_emplace(name, Metric{value, unit, samples});
  }

  unsigned Cover() const {
    if (cfg_.scheme == sim::Scheme::kNone) return 0;
    return cfg_.cover != 0
               ? cfg_.cover
               : static_cast<unsigned>(profile_.hot.hot_objects.size());
  }

  void Core() {
    profile_ = apps::ProfileApp(*app_, gpu_);
    const double full = TimeMs("core.profile", 3, [&] {
      auto a = apps::MakeApp(cfg_.app, cfg_.scale);
      apps::ProfileApp(*a, gpu_);
    });
    // With a preloaded store ProfileApp skips only the trace build.
    const double preloaded = TimeMs("core.profile_preloaded", 3, [&] {
      auto a = apps::MakeApp(cfg_.app, cfg_.scale);
      apps::ProfileApp(*a, gpu_, {}, profile_.trace_store);
    });
    Put("core.profile_ms", full, "ms", 3);
    Put("trace.build_ms", full - preloaded, "ms", 3);
    Put("core.classify_ms", TimeMs("core.classify", 5, [&] {
          core::ClassifyHot(profile_.profiler, profile_.dev->space());
        }),
        "ms", 5);
    Put("core.protection_setup_ms",
        TimeMs("core.protection_setup", 3, [&] {
          setup_ = apps::MakeProtectionSetup(*app_, profile_, cfg_.scheme,
                                             Cover());
        }),
        "ms", 3);
  }

  void Exec() {
    exec::DirectDataPlane direct(*profile_.dev);
    Put("exec.run_ms", TimeMs("exec.run", 5, [&] {
          apps::RunKernels(*app_, direct, nullptr);
        }),
        "ms", 5);
    core::ProtectedDataPlane prot(*setup_.dev, setup_.plan);
    Put("exec.protected_run_ms", TimeMs("exec.protected_run", 5, [&] {
          apps::RunKernels(*app_, prot, nullptr);
        }),
        "ms", 5);
  }

  // ReadBytes per 4-byte load over every named object, clean and then
  // with one stuck-at bit and SECDED decoding on every word.
  void Mem() {
    mem::DeviceMemory& dev = *profile_.dev;
    std::vector<Addr> addrs;
    for (const mem::DataObject& o : dev.space().Objects()) {
      for (Addr a = o.base; a + 4 <= o.end(); a += 4) addrs.push_back(a);
    }
    constexpr std::size_t kLoads = 1u << 21;
    auto sweep = [&](const char* span) {
      return TimeMs(span, 5, [&] {
               std::uint8_t v[4];
               for (std::size_t i = 0; i < kLoads; ++i) {
                 dev.ReadBytes(addrs[i % addrs.size()], v, 4);
               }
             }) *
             1e6 / kLoads;
    };
    Put("mem.read_ns", sweep("mem.read"), "ns", 5);
    Rng rng(cfg_.campaign.seed);
    const Addr block = dev.space().Objects().front().base;
    for (const auto& f : mem::MakeWordFaults(block, 1, rng)) {
      dev.faults().Add(f);
    }
    dev.set_ecc_mode(mem::EccMode::kSecded);
    Put("mem.read_faulted_ns", sweep("mem.read_faulted"), "ns", 5);
    dev.set_ecc_mode(mem::EccMode::kNone);
    dev.faults().Clear();
  }

  void Trace() {
    std::string bytes;
    Put("trace.save_ms", TimeMs("trace.save", 5, [&] {
          bytes = trace::SaveTraceToString(*profile_.trace_store);
        }),
        "ms", 5);
    Put("trace.load_ms", TimeMs("trace.load", 5, [&] {
          trace::LoadTraceFromString(bytes);
        }),
        "ms", 5);
    Put("trace.bytes", static_cast<double>(bytes.size()), "bytes", 1);
  }

  void Sim() {
    sim::GpuStats stats;
    const double ms = TimeMs("sim.replay", 3, [&] {
      stats = apps::RunTiming(*app_, profile_, gpu_, setup_.plan);
    });
    const std::uint64_t txns = stats.transactions + stats.replica_transactions;
    Put("sim.replay_ms", ms, "ms", 3);
    Put("sim.ns_per_txn", ms * 1e6 / static_cast<double>(txns), "ns", 3);
    Put("sim.cycles", static_cast<double>(stats.cycles), "count", 1);
    Put("sim.txns", static_cast<double>(stats.transactions), "count", 1);
    Put("sim.replica_txns", static_cast<double>(stats.replica_transactions),
        "count", 1);
    auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    Put("sim.l1_miss_ratio", ratio(stats.l1_misses, stats.l1_accesses),
        "ratio", 1);
    Put("sim.l2_miss_ratio", ratio(stats.l2_misses, stats.l2_accesses),
        "ratio", 1);
    Put("sim.dram_row_hit_ratio",
        ratio(stats.dram_row_hits, stats.dram_reads + stats.dram_writes),
        "ratio", 1);
    const auto base = apps::MakeProtectionSetup(*app_, profile_,
                                                sim::Scheme::kNone, 0);
    const sim::GpuStats none = apps::RunTiming(*app_, profile_, gpu_, base.plan);
    Put("sim.protect_overhead_pct",
        100.0 * (ratio(stats.cycles, none.cycles) - 1.0), "%", 1);
  }

  void Analysis() {
    Put("analysis.vuln_ms", TimeMs("analysis.vuln", 3, [&] {
          analysis::AnalyzeVulnerability(*profile_.trace_store,
                                         setup_.dev->space(),
                                         app_->OutputObjects());
        }),
        "ms", 3);
    analysis::AnalyzerInput in;
    in.traces = profile_.trace_store.get();
    in.space = &setup_.dev->space();
    in.plan = &setup_.plan;
    in.cfg = gpu_;
    Put("analysis.analyze_ms",
        TimeMs("analysis.analyze", 3, [&] { analysis::Analyze(in); }), "ms",
        3);
  }

  void Fault() {
    std::unique_ptr<fault::FaultCampaign> campaign;
    Put("fault.tables_ms", TimeMs("fault.tables", 3, [&] {
          campaign = std::make_unique<fault::FaultCampaign>(
              *app_, profile_, cfg_.scheme, Cover());
        }),
        "ms", 3);
    const fault::CampaignConfig& cc = cfg_.campaign;
    std::vector<double> ms;
    fault::CampaignCounts counts;
    const std::int64_t t0 = NowNs();
    for (std::uint64_t t = 0; t < 400 && (t < 20 || MillisSince(t0) < 2000);
         ++t) {
      const std::int64_t s = NowNs();
      fault::TrialResult r;
      {
        ScopedSpan span("fault.trial");
        r = campaign->RunTrial(cc, t);
      }
      ms.push_back(MillisSince(s));
      fault::MergeTrialResult(counts, r);
    }
    Put("fault.trial_ms_p50", Median(ms), "ms", ms.size());
    Put("fault.trial_ms_p99", Percentile(ms, 99), "ms", ms.size());
    Put("fault.masked_ratio",
        static_cast<double>(counts.masked) / counts.runs, "ratio",
        counts.runs);
    Put("fault.sdc_pct", 100.0 * counts.sdc / counts.runs, "%", counts.runs);
    if (out_.layers.count("fault.shard_overhead_ratio") == 0) Fanout();
    Recovery();
  }

  // The detect-to-recover pipeline on A-SRAD (small): detect-only over
  // the first object, hot-block target, 3 stuck bits per word so SECDED
  // miscorrects or flags a DUE, a re-execution budget of 2 and Tier-2
  // escalation every 16 trials.
  void Recovery() {
    constexpr unsigned kEpoch = 16;
    auto app = apps::MakeApp("A-SRAD", apps::AppScale::kSmall);
    const apps::ProfileResult profile = apps::ProfileApp(*app, gpu_);
    fault::CampaignSpec spec;
    spec.make_app = [] {
      return apps::MakeApp("A-SRAD", apps::AppScale::kSmall);
    };
    spec.profile = &profile;
    spec.scheme = sim::Scheme::kDetectOnly;
    spec.cover_objects = 1;
    spec.ecc = mem::EccMode::kSecded;
    fault::CampaignConfig cc;
    cc.target = fault::Target::kHotBlocks;
    cc.bits_per_block = 3;
    cc.runs = 2 * kEpoch;
    cc.seed = cfg_.campaign.seed;
    cc.recovery.enabled = true;
    cc.recovery.max_retries = 2;
    cc.escalation_epoch = kEpoch;
    fault::ParallelCampaign pc(spec, 1);
    fault::CampaignCounts counts;
    TimeMs("fault.run_recovery", 1, [&] { counts = pc.Run(cc); });
    Put("core.recovery.reexec", static_cast<double>(counts.recovery.retries),
        "count", counts.runs);
    Put("core.recovery.retired",
        static_cast<double>(counts.recovery.retired_blocks), "count",
        counts.runs);
    Put("core.recovery.escalations",
        static_cast<double>(counts.recovery.escalations), "count",
        counts.runs);
  }

  // jobs=1 vs jobs=2 vs two shard workers on one trial range.
  void Fanout() {
    constexpr unsigned kTrials = 16;
    fault::CampaignSpec spec;
    const std::string name = cfg_.app;
    const apps::AppScale scale = cfg_.scale;
    spec.make_app = [name, scale] { return apps::MakeApp(name, scale); };
    spec.profile = &profile_;
    spec.scheme = cfg_.scheme;
    spec.cover_objects = Cover();
    fault::CampaignConfig cc = cfg_.campaign;
    cc.runs = kTrials;
    fault::ParallelCampaign j1(spec, 1);
    spec.shared_tables = j1.front().tables();
    fault::ParallelCampaign j2(spec, 2);
    fault::CampaignCounts counts;
    const double j1_ms =
        TimeMs("fault.run_jobs1", 1, [&] { counts = j1.Run(cc); });
    const double j2_ms = TimeMs("fault.run_jobs2", 1, [&] { j2.Run(cc); });
    fault::ShardCampaignSpec ss;
    ss.app = cfg_.app;
    ss.scale = cfg_.scale;
    ss.scheme = cfg_.scheme;
    ss.cover = Cover();
    ss.target = cc.target;
    ss.faulty_blocks = cc.faulty_blocks;
    ss.bits_per_block = cc.bits_per_block;
    ss.runs = kTrials;
    ss.seed = cc.seed;
    ss.gpu = gpu_;
    fault::CoordinatorOptions co;
    co.dcrm_binary = opts_.dcrm_bin;
    co.workdir = opts_.out_dir + "/sweep-shard-" + std::to_string(::getpid());
    co.shards = 2;
    co.workers = 2;
    co.max_retries = 0;
    fault::ShardCampaignOutcome o;
    const double shard_ms = TimeMs("fault.shard", 1, [&] {
      o = fault::RunShardCoordinator(ss, co);
    });
    std::filesystem::remove_all(co.workdir);
    out_.Check(o.exit_code == fault::kExitOk && o.counts == counts,
               "sweep shard run failed or differs from jobs=1");
    Put("fault.jobs2_trials_per_s", 1000.0 * kTrials / j2_ms, "1/s", 1);
    Put("fault.shard_trials_per_s", 1000.0 * kTrials / shard_ms, "1/s", 1);
    Put("fault.parallel_efficiency", j1_ms / j2_ms / 2.0, "ratio", 1);
    Put("fault.shard_overhead_ratio", shard_ms / j1_ms, "ratio", 1);
  }

  // Protocol and executor costs on the serve mix's request vocabulary.
  void Service() {
    service::RequestSpec req;
    req.type = service::RequestType::kTiming;
    req.campaign.app = "P-ATAX";
    req.campaign.scale = apps::AppScale::kTiny;
    req.campaign.scheme = sim::Scheme::kDetectOnly;
    req.campaign.runs = 16;
    req.campaign.seed = cfg_.campaign.seed;
    constexpr int kOps = 2000;
    auto per_op_us = [&](const char* span, const std::function<void()>& fn) {
      return TimeMs(span, 5, [&] {
               for (int i = 0; i < kOps; ++i) fn();
             }) *
             1000.0 / kOps;
    };
    std::string wire = service::EncodeRequest(req);
    Put("service.decode_us", per_op_us("service.decode", [&] {
          service::DecodeRequest(wire);
        }),
        "us", 5 * kOps);

    service::ExecOptions eo;
    eo.gpu = gpu_;
    {
      service::ExecContext cold(eo);
      service::RequestSpec p = req;
      p.type = service::RequestType::kProfile;
      Put("service.exec_ms.profile",
          TimeMs("service.execute", 1, [&] { cold.Execute(p); }), "ms", 1);
    }
    service::ExecContext ctx(eo);
    service::RequestSpec warm = req;
    warm.type = service::RequestType::kProfile;
    ctx.Execute(warm);
    service::ServedResult timing;
    for (const char* t : {"timing", "analyze", "avf", "campaign"}) {
      service::RequestSpec r = req;
      r.type = *service::RequestTypeFromName(t);
      service::ServedResult res;
      Put(std::string("service.exec_ms.") + t,
          TimeMs("service.execute", 1, [&] { res = ctx.Execute(r); }), "ms",
          1);
      out_.Check(res.ok, std::string("service execute failed: ") + t);
      if (r.type == service::RequestType::kTiming) timing = res;
    }
    service::Response resp;
    resp.ok = true;
    resp.exit_code = timing.exit_code;
    resp.text = timing.text;
    resp.csv = timing.csv;
    Put("service.encode_us", per_op_us("service.encode", [&] {
          service::EncodeResponse(resp);
        }),
        "us", 5 * kOps);
    bool hit = true;
    Put("service.probe_us", per_op_us("service.probe", [&] {
          hit = hit && ctx.TryCached(req).has_value();
        }),
        "us", 5 * kOps);
    out_.Check(hit, "cache probe missed a request it had just served");
  }

  const Options& opts_;
  SweepConfig cfg_;
  RunResult& out_;
  sim::GpuConfig gpu_;
  std::unique_ptr<apps::App> app_;
  apps::ProfileResult profile_;
  apps::ProtectionSetup setup_;
};

}  // namespace

void MeasureLayers(const Options& opts, RunResult& out) {
  if (out.layers.count("service.hit_ratio") == 0) {
    // A short open-loop session for the daemon's own counters.
    RunResult serve;
    auto w = MakeServeWorkload(opts);
    w->Setup();
    w->Measure(2.0, serve);
    for (auto& [name, m] : serve.layers) out.layers.try_emplace(name, m);
    for (auto& f : serve.check_failures) out.check_failures.push_back(f);
  }
  Sweep(opts, out).Run();
}

}  // namespace perfbench

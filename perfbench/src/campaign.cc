// The `campaign` workload: the fault trial loop.
#include <unistd.h>

#include <filesystem>
#include <iostream>

#include "apps/driver.h"
#include "fault/cross_check.h"
#include "fault/parallel_campaign.h"
#include "fault/shard_coordinator.h"
#include "spans.h"
#include "trace/trace_io.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dcrm;

constexpr apps::AppScale kScale = apps::AppScale::kSmall;

struct AppState {
  std::string name;
  apps::ProfileResult profile;
  std::string trace_path;  // the saved store the shard workers load
};

// Runs one engine call at jobs=1 and returns each trial's wall time.
// The engine calls `after_trial` on the calling thread at jobs=1.
fault::CampaignCounts TimedRun(fault::ParallelCampaign& pc,
                               const fault::CampaignConfig& cfg,
                               std::vector<double>& trial_ms) {
  std::int64_t last = 0;
  const std::function<void(unsigned)> hook = [&](unsigned) {
    const std::int64_t now = NowNs();
    trial_ms.push_back(static_cast<double>(now - last) / 1e6);
    last = now;
  };
  fault::EngineOptions eo;
  eo.after_trial = &hook;
  ScopedSpan span("fault.run_jobs1");
  last = NowNs();
  return pc.Run(cfg, eo);
}

double SdcPct(const fault::CampaignCounts& c) {
  return c.runs == 0 ? 0 : 100.0 * c.sdc / c.runs;
}

class CampaignWorkload final : public Workload {
 public:
  explicit CampaignWorkload(const Options& opts) : opts_(opts) {}
  ~CampaignWorkload() override {
    pairs_.clear();
    RemoveTraces();
  }

  void Setup() override {
    pairs_.clear();
    RemoveTraces();
    for (const char* name : {"C-NN", "P-BICG", "A-SRAD", "L-Transformer"}) {
      auto a = std::make_unique<AppState>();
      a->name = name;
      auto app = apps::MakeApp(name, kScale);
      {
        ScopedSpan span("core.profile");
        a->profile = apps::ProfileApp(*app, gpu_);
      }
      a->trace_path = opts_.out_dir + "/trace-" + a->name + "-" +
                      std::to_string(::getpid()) + ".bin";
      {
        ScopedSpan span("trace.save");
        trace::SaveTraceFile(*a->profile.trace_store, a->trace_path);
      }
      for (sim::Scheme scheme :
           {sim::Scheme::kNone, sim::Scheme::kDetectCorrect}) {
        Pair p;
        p.app = a.get();
        p.scheme = scheme;
        p.cover = scheme == sim::Scheme::kNone ? 0 : 1;
        p.label = a->name + "/" + fault::SchemeFlagName(scheme);
        fault::CampaignSpec spec;
        spec.make_app = [name] { return apps::MakeApp(name, kScale); };
        spec.profile = &a->profile;
        spec.scheme = scheme;
        spec.cover_objects = p.cover;
        ScopedSpan span("fault.tables");
        p.j1 = std::make_unique<fault::ParallelCampaign>(spec, 1);
        spec.shared_tables = p.j1->front().tables();
        p.j2 = std::make_unique<fault::ParallelCampaign>(spec, 2);
        pairs_.push_back(std::move(p));
      }
      apps_.push_back(std::move(a));
    }
  }

  // Every pass runs the same trials of every pair at jobs=1, timed per
  // trial; every other pass runs them again at jobs=2, and every
  // fourth pass runs one pair sharded. Passes are short, so the host's
  // slow stretches (seconds long) miss some of them: a trial's cost is
  // the fastest of its passes, and the work measured stays the one
  // fixed set of trials the seed chose.
  void Measure(double seconds, RunResult& out) override {
    const std::int64_t t0 = NowNs();
    std::vector<std::vector<double>> quiet(pairs_.size());
    std::vector<fault::CampaignCounts> first(pairs_.size());
    std::vector<double> j1_pass_ms, j2_pass_ms, shard_ratio;
    std::vector<std::vector<double>> shard_ms(pairs_.size());
    unsigned pass = 0;
    while (pass < kMinPasses || MillisSince(t0) < seconds * 1000) {
      double j1_total = 0;
      std::vector<double> j1_pair(pairs_.size(), 0);
      for (std::size_t i = 0; i < pairs_.size(); ++i) {
        Pair& p = pairs_[i];
        std::vector<double> ms;
        const fault::CampaignCounts c1 = TimedRun(*p.j1, Config(i), ms);
        Host().Sample();
        out.attempted += c1.runs;
        for (double m : ms) j1_pair[i] += m;
        j1_total += j1_pair[i];
        if (pass == 0) {
          quiet[i] = ms;
          first[i] = c1;
        } else {
          for (std::size_t t = 0; t < ms.size(); ++t) {
            quiet[i][t] = std::min(quiet[i][t], ms[t]);
          }
          out.Check(c1 == first[i], "counts changed between passes for " +
                                        p.label);
        }
      }
      j1_pass_ms.push_back(j1_total);
      if (pass % 2 == 0) {
        const std::int64_t s2 = NowNs();
        for (std::size_t i = 0; i < pairs_.size(); ++i) {
          fault::CampaignCounts c2;
          {
            ScopedSpan span("fault.run_jobs2");
            c2 = pairs_[i].j2->Run(Config(i));
          }
          out.attempted += c2.runs;
          out.Check(c2 == first[i], "jobs=1 and jobs=2 counts differ for " +
                                        pairs_[i].label);
        }
        j2_pass_ms.push_back(MillisSince(s2));
      }
      if (pass % 4 == 1) {
        const std::size_t i = (pass / 4) % pairs_.size();
        const double ms = RunSharded(pairs_[i], Config(i), first[i], pass, out);
        shard_ms[i].push_back(ms);
        shard_ratio.push_back(ms / j1_pair[i]);
      }
      ++pass;
    }

    Digest digest;
    fault::CampaignCounts all, protected_counts;
    std::vector<double> per_pair;
    double cost = 0;
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      const Pair& p = pairs_[i];
      {
        ScopedSpan span("fault.cross_check");
        const auto check =
            fault::CrossCheckCounts(p.j1->front(), Config(i), first[i]);
        out.Check(check.Pass(), "cross-check bounds violated for " + p.label);
      }
      AddCounts(digest, first[i]);
      all += first[i];
      if (p.scheme != sim::Scheme::kNone) protected_counts += first[i];
      for (double m : quiet[i]) cost += m;
      per_pair.push_back(Median(quiet[i]));
      std::cout << "campaign: " << p.label << " median trial ms "
                << per_pair.back() << "; sdc " << first[i].sdc << " crash "
                << first[i].crash << " masked " << first[i].masked << "\n";
    }
    const std::uint64_t n = std::uint64_t{kTrials} * pairs_.size();
    out.e2e["throughput_per_s"] = {1000.0 * n / cost, "1/s", n * pass,
                                   Scale::kRate};
    out.e2e["latency_ms"] = {GeoMean(per_pair), "ms", n * pass, Scale::kTime};
    // Too few trials per pair for a percentile: the tail is the
    // slowest pair's median trial.
    out.e2e["tail_latency_ms"] = {
        *std::max_element(per_pair.begin(), per_pair.end()), "ms", n * pass,
        Scale::kTime};

    const double j1_best =
        *std::min_element(j1_pass_ms.begin(), j1_pass_ms.end());
    const double j2_best =
        *std::min_element(j2_pass_ms.begin(), j2_pass_ms.end());
    double shard_trials = 0, shard_best = 0;
    for (const auto& v : shard_ms) {
      if (v.empty()) continue;
      shard_trials += kTrials;
      shard_best += *std::min_element(v.begin(), v.end());
    }
    out.layers["fault.jobs2_trials_per_s"] = {1000.0 * n / j2_best, "1/s",
                                              j2_pass_ms.size()};
    out.layers["fault.shard_trials_per_s"] = {
        1000.0 * shard_trials / shard_best, "1/s", shard_ratio.size()};
    out.layers["fault.parallel_efficiency"] = {j1_best / j2_best / 2.0,
                                               "ratio", j2_pass_ms.size()};
    out.layers["fault.shard_overhead_ratio"] = {Median(shard_ratio), "ratio",
                                                shard_ratio.size()};
    out.layers["fault.masked_ratio"] = {
        static_cast<double>(all.masked) / all.runs, "ratio", all.runs};
    out.layers["fault.sdc_pct"] = {SdcPct(protected_counts), "%",
                                   protected_counts.runs};
    out.digests.emplace_back("campaign.counts", digest.value());
    std::cout << "campaign: " << pass << " passes over " << n
              << " trials (" << pairs_.size() << " pairs x " << kTrials
              << "); sdc_pct under correct " << SdcPct(protected_counts)
              << " over " << protected_counts.runs << " trials\n";
  }

 private:
  static constexpr unsigned kTrials = 8;  // per pair and pass
  static constexpr unsigned kMinPasses = 2;

  struct Pair {
    AppState* app = nullptr;
    sim::Scheme scheme = sim::Scheme::kNone;
    unsigned cover = 0;
    std::string label;
    std::unique_ptr<fault::ParallelCampaign> j1, j2;
  };

  void RemoveTraces() {
    for (const auto& a : apps_) std::filesystem::remove(a->trace_path);
    apps_.clear();
  }

  fault::CampaignConfig Config(std::size_t pair) const {
    fault::CampaignConfig cfg;
    cfg.target = fault::Target::kMissWeighted;
    cfg.faulty_blocks = 1;
    cfg.bits_per_block = 2;
    cfg.runs = kTrials;
    cfg.seed = Mix(opts_.seed, pair);
    return cfg;
  }

  double RunSharded(const Pair& p, const fault::CampaignConfig& cfg,
                    const fault::CampaignCounts& expect, unsigned pass,
                    RunResult& out) {
    fault::ShardCampaignSpec spec;
    spec.app = p.app->name;
    spec.scale = kScale;
    spec.scheme = p.scheme;
    spec.cover = p.cover;
    spec.target = cfg.target;
    spec.faulty_blocks = cfg.faulty_blocks;
    spec.bits_per_block = cfg.bits_per_block;
    spec.runs = cfg.runs;
    spec.seed = cfg.seed;
    spec.gpu = gpu_;
    fault::CoordinatorOptions co;
    co.dcrm_binary = opts_.dcrm_bin;
    co.workdir = opts_.out_dir + "/shard-" + std::to_string(::getpid()) +
                 "-" + std::to_string(pass);
    co.trace_path = p.app->trace_path;
    co.shards = 2;
    co.workers = 2;
    co.max_retries = 0;
    const std::int64_t s = NowNs();
    fault::ShardCampaignOutcome o;
    {
      ScopedSpan span("fault.shard");
      o = fault::RunShardCoordinator(spec, co);
    }
    const double ms = MillisSince(s);
    std::filesystem::remove_all(co.workdir);
    out.attempted += cfg.runs;
    out.Check(o.exit_code == fault::kExitOk,
              "sharded campaign exited " + std::to_string(o.exit_code) +
                  " for " + p.label);
    out.Check(o.counts == expect,
              "sharded counts differ from jobs=1 for " + p.label);
    return ms;
  }

  Options opts_;
  sim::GpuConfig gpu_;
  std::vector<std::unique_ptr<AppState>> apps_;
  std::vector<Pair> pairs_;
};

}  // namespace

std::unique_ptr<Workload> MakeCampaignWorkload(const Options& opts) {
  return std::make_unique<CampaignWorkload>(opts);
}

}  // namespace perfbench

// The `serve` workload: an in-process reliability daemon on a Unix
// socket, driven by an open-loop request generator.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <iterator>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "service/client.h"
#include "service/handlers.h"
#include "service/proto.h"
#include "service/server.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dcrm;
using service::RequestSpec;
using service::RequestType;

// Offered load, connection count and the latency limit goodput is
// counted against. The rate sits well below the executor's saturation
// on the miss share of the mix, so the backlog does not grow.
constexpr double kRatePerS = 100;
constexpr unsigned kConnections = 4;
constexpr double kLimitMs = 250;
// The schedule repeats every kPeriod slots. Each connection carries one
// kind of request, so a slow response never holds up a hit:
constexpr std::size_t kPeriod = 40;
constexpr unsigned kColdConn = 0;              // cold misses
constexpr unsigned kCampaignConns[] = {1, 2};  // one burst
constexpr unsigned kHitConn = 3;               // repeat requests
// A burst is due this long after the cold timing request that opens
// its period, so it queues behind that request and coalesces into one
// engine run every time. The quickest cold timing request takes ~7 ms.
constexpr double kBurstDelayMs = 3;
// One play of the schedule, and the fewest plays a run makes.
constexpr double kPlaySeconds = 4;
constexpr unsigned kMinPlays = 2;
// How often the reference loop is timed while a play runs.
constexpr auto kReferenceEvery = std::chrono::milliseconds(100);
// How long before a due time a connection stops sleeping and spins.
constexpr std::int64_t kSpinNs = 300'000;
// Small enough that the cold requests evict one another.
constexpr std::uint64_t kCacheBytes = 6ull << 20;

RequestSpec Spec(RequestType type, const std::string& app, unsigned runs,
                 std::uint64_t seed) {
  RequestSpec r;
  r.type = type;
  r.campaign.app = app;
  r.campaign.scale = apps::AppScale::kTiny;
  r.campaign.scheme = sim::Scheme::kDetectOnly;
  r.campaign.runs = runs;
  r.campaign.seed = seed;
  return r;
}

// Repeat requests: after warm-up every one of these is a cache hit.
std::vector<RequestSpec> RepeatSet() {
  std::vector<RequestSpec> out;
  for (const char* app : {"P-ATAX", "P-BICG", "P-MVT"}) {
    for (RequestType t :
         {RequestType::kProfile, RequestType::kAvf, RequestType::kTiming}) {
      out.push_back(Spec(t, app, 1, 1));
    }
  }
  return out;
}

// Cold requests: apps outside the repeat set, cycled so the small
// cache evicts them before they come round again.
const char* const kColdApps[] = {"P-GESUMMV", "A-Laplacian", "A-Meanfilter",
                                 "A-Sobel",   "C-ConvRows",  "C-Histogram"};

struct Planned {
  RequestSpec spec;
  double due_ms = 0;  // offset from the start of the schedule
  unsigned conn = kHitConn;
  bool campaign = false;
  bool cold = false;
};

// The open-loop schedule: kRatePerS requests a second in periods of
// kPeriod slots. Slot 0 of a period is a cold timing request and slot
// 20 a cold AVF request. Slots 1 and 2 are a burst of two campaigns on
// one fresh seed with different trial counts, both due kBurstDelayMs
// after slot 0, which the scheduler coalesces into one engine run. The
// other slots are repeat requests drawn from the seed, due on their
// slot. The misses sit at fixed slots, so their mix does not change
// with the seed.
std::vector<Planned> MakeSchedule(std::uint64_t seed, double seconds) {
  const auto repeat = RepeatSet();
  constexpr std::size_t kCold = std::size(kColdApps);
  Rng rng(seed);
  std::vector<Planned> out;
  const auto n = static_cast<std::size_t>(seconds * kRatePerS);
  const double slot_ms = 1000.0 / kRatePerS;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t period = i / kPeriod, slot = i % kPeriod;
    Planned p;
    p.due_ms = slot_ms * static_cast<double>(i);
    if (slot == 0 || slot == kPeriod / 2) {
      p.spec = Spec(slot == 0 ? RequestType::kTiming : RequestType::kAvf,
                    kColdApps[period % kCold], 1, 1);
      p.conn = kColdConn;
      p.cold = true;
    } else if (slot <= std::size(kCampaignConns)) {
      p.spec = Spec(RequestType::kCampaign, "P-ATAX",
                    32 * static_cast<unsigned>(slot), Mix(seed, 5000 + period));
      p.due_ms = slot_ms * static_cast<double>(i - slot) + kBurstDelayMs;
      p.conn = kCampaignConns[slot - 1];
      p.campaign = true;
    } else {
      p.spec = repeat[rng.Below(repeat.size())];
    }
    out.push_back(std::move(p));
  }
  return out;
}

struct Outcome {
  double latency_ms = 0;  // from due time to response
  double late_ms = 0;     // send time minus due time
  bool ok = false;
  bool cached = false;
  service::Response resp;
};

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(const Options& opts) : opts_(opts) {}
  ~ServeWorkload() override { Stop(); }

  void Setup() override {
    Stop();
    service::ServerOptions so;
    so.socket_path = opts_.out_dir + "/serve-" + std::to_string(::getpid()) +
                     ".sock";
    so.exec.cache_bytes = kCacheBytes;
    so.exec.gpu = gpu_;
    {
      ScopedSpan span("service.start");
      server_ = std::make_unique<service::Server>(std::move(so));
      server_->Start();
    }
    // Warm-up: every repeat request once, so the timed mix hits.
    auto client = service::Client::Connect(server_->socket_path());
    for (const RequestSpec& r : RepeatSet()) {
      ScopedSpan span("service.warmup");
      const service::Response resp = client.Call(r);
      if (!resp.ok) throw std::runtime_error("warm-up failed: " + resp.error);
    }
  }

  // The seed's schedule is played several times, each time on a fresh
  // daemon with a fresh cache, so every repetition does the same work.
  // A request's latency is the fastest of its repetitions: the host's
  // slow stretches last seconds, and one repetition is a few seconds.
  // The number of plays follows from `seconds` alone, because the
  // fastest of n plays falls as n grows.
  void Measure(double seconds, RunResult& out) override {
    const std::vector<Planned> plan = MakeSchedule(opts_.seed, kPlaySeconds);
    std::vector<double> quiet(plan.size(), 0), late, goodput;
    std::vector<Outcome> first;
    service::CacheStats cs;
    service::BatchStats bs;
    const unsigned plays = std::max(
        kMinPlays, static_cast<unsigned>(std::floor(seconds / kPlaySeconds)));
    unsigned rep = 0;
    for (; rep < plays; ++rep) {
      if (rep > 0) Setup();
      const std::int64_t start = NowNs();
      std::vector<Outcome> outcomes = Play(plan, out);
      const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
      Host().Sample();
      std::uint64_t good = 0;
      for (std::size_t i = 0; i < plan.size(); ++i) {
        const Outcome& o = outcomes[i];
        late.push_back(o.late_ms);
        if (o.ok && o.latency_ms <= kLimitMs) ++good;
        quiet[i] = rep == 0 ? o.latency_ms : std::min(quiet[i], o.latency_ms);
        if (rep > 0) {
          const service::Response& a = first[i].resp;
          out.Check(o.resp.text == a.text && o.resp.csv == a.csv &&
                        o.resp.exit_code == a.exit_code,
                    "a repeated request was answered differently");
        }
      }
      goodput.push_back(static_cast<double>(good) / wall_s);
      cs = server_->context().cache().stats();
      bs = server_->context().batch_stats();
      if (rep == 0) first = std::move(outcomes);
    }
    Stop();

    std::vector<double> misses;
    std::uint64_t cached = 0, repeats = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (first[i].cached) ++cached;
      if (plan[i].campaign || plan[i].cold) {
        misses.push_back(quiet[i]);
      } else {
        ++repeats;
      }
    }
    // A cold request answered from the cache would not hold its burst
    // back, and the burst would not coalesce.
    out.Check(cached == repeats,
              "the cache answered " + std::to_string(cached) +
                  " requests, not the " + std::to_string(repeats) + " repeats");
    const std::uint64_t n = plan.size() * rep;
    out.e2e["throughput_per_s"] = {Median(goodput), "1/s", n};
    // A hit takes about 0.1-0.2 ms, nearly all of it thread wake-ups
    // whose cost doubled from one run to the next on a shared host. So
    // the typical latency is taken over the requests that execute:
    // the geometric mean of the campaigns' and the cold requests'
    // latencies, which execution and queueing set. The hit path's own
    // work is in the per-layer service.*_us metrics, its latency in
    // service.p50_ms.
    out.e2e["latency_ms"] = {GeoMean(misses), "ms", misses.size() * rep,
                             Scale::kTime};
    // The tail is the mean of the slowest 5%, not a percentile: the
    // slowest requests fall into groups (each burst's campaigns, each
    // cold timing request), and a percentile at the edge of a group
    // jumps between groups from one run to the next.
    out.e2e["tail_latency_ms"] = {TailMean(quiet, 95), "ms", n, Scale::kTime};
    out.layers["service.p50_ms"] = {Median(quiet), "ms", n};
    out.layers["service.hit_ratio"] = {
        static_cast<double>(cached) / static_cast<double>(plan.size()),
        "ratio", plan.size()};
    out.layers["service.evictions"] = {static_cast<double>(cs.evictions),
                                       "count", plan.size()};
    out.layers["service.cache_bytes"] = {static_cast<double>(cs.bytes),
                                         "bytes", plan.size()};
    out.layers["service.trials_saved"] = {
        static_cast<double>(bs.trials_saved), "count", plan.size()};
    out.layers["service.batch_groups"] = {static_cast<double>(bs.groups),
                                          "count", plan.size()};
    out.layers["service.generator_late_ms_p99"] = {Percentile(late, 99), "ms",
                                                   late.size()};
    std::cout << "serve: " << rep << " plays of " << plan.size()
              << " requests at " << kRatePerS << "/s over " << kConnections
              << " connections; tail is the slowest 5%; hit p50 "
              << Median(quiet) << " ms; cached " << cached << "; evictions "
              << cs.evictions << "; batch groups " << bs.groups << "\n";
    VerifyServed(plan, first, out);
  }

  // Plays the schedule once against the running daemon. The host's
  // speed drifts within seconds, so the reference loop is timed all
  // through the play on a thread of its own, not only between plays.
  std::vector<Outcome> Play(const std::vector<Planned>& plan,
                            RunResult& out) {
    std::vector<Outcome> outcomes(plan.size());
    const std::int64_t t0 = NowNs() + 20'000'000;  // 20 ms to connect
    std::vector<std::thread> threads;
    std::mutex err_mu;
    std::vector<std::string> errors;
    for (unsigned c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        try {
          auto client = service::Client::Connect(server_->socket_path());
          for (std::size_t i = 0; i < plan.size(); ++i) {
            if (plan[i].conn != c) continue;
            const std::int64_t due =
                t0 + static_cast<std::int64_t>(plan[i].due_ms * 1e6);
            // Sleep until just before the due time, then spin: a late
            // wake-up of the generator would otherwise count as latency.
            const std::int64_t wake = due - kSpinNs;
            if (NowNs() < wake) {
              std::this_thread::sleep_for(
                  std::chrono::nanoseconds(wake - NowNs()));
            }
            while (NowNs() < due) {
            }
            Outcome& o = outcomes[i];
            o.late_ms = static_cast<double>(NowNs() - due) / 1e6;
            {
              ScopedSpan span("service.request", i + 1);
              o.resp = client.Call(plan[i].spec);
            }
            o.latency_ms = static_cast<double>(NowNs() - due) / 1e6;
            o.ok = o.resp.ok;
            o.cached = o.resp.cached;
          }
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(err_mu);
          errors.push_back(e.what());
        }
      });
    }
    std::atomic<bool> playing{true};
    std::vector<double> reference_ms;
    std::thread sampler([&] {
      for (;;) {
        const std::int64_t wake =
            NowNs() + std::chrono::nanoseconds(kReferenceEvery).count();
        while (playing.load() && NowNs() < wake) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        if (!playing.load()) return;
        reference_ms.push_back(ReferenceMs());
      }
    });
    for (auto& t : threads) t.join();
    playing.store(false);
    sampler.join();
    for (double ms : reference_ms) Host().Record(ms);
    for (const std::string& e : errors) out.Check(false, "connection: " + e);
    std::uint64_t failed = 0;
    for (const Outcome& o : outcomes) failed += o.ok ? 0 : 1;
    out.attempted += plan.size();
    out.Check(failed == 0, std::to_string(failed) + " requests failed");
    return outcomes;
  }

 private:
  void Stop() {
    if (server_ != nullptr) {
      server_->RequestStop();
      server_->Join();
      server_.reset();
    }
  }

  // Served bytes must equal an in-process execution of the same spec.
  // Every distinct repeat and cold spec is checked, and the campaigns
  // of the first burst.
  void VerifyServed(const std::vector<Planned>& plan,
                    const std::vector<Outcome>& outcomes, RunResult& out) {
    service::ExecOptions eo;
    eo.gpu = gpu_;
    service::ExecContext ctx(eo);
    std::vector<std::string> seen;
    Digest digest;
    std::uint64_t first_burst_seed = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const Planned& p = plan[i];
      if (!outcomes[i].ok) continue;
      if (p.campaign) {
        if (first_burst_seed == 0) first_burst_seed = p.spec.campaign.seed;
        if (p.spec.campaign.seed != first_burst_seed) continue;
      }
      const std::string key = service::EncodeRequest(p.spec);
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);
      service::ServedResult direct;
      {
        ScopedSpan span("service.verify_execute");
        direct = ctx.Execute(p.spec);
      }
      const service::Response& r = outcomes[i].resp;
      out.Check(direct.ok && direct.text == r.text && direct.csv == r.csv &&
                    direct.exit_code == r.exit_code,
                "served bytes differ from in-process execution for " +
                    std::string(service::RequestTypeName(p.spec.type)) + " " +
                    p.spec.campaign.app);
      if (!p.campaign) {
        digest.AddString(key).AddString(r.text).AddString(r.csv);
      }
    }
    out.digests.emplace_back("serve.responses", digest.value());
  }

  Options opts_;
  sim::GpuConfig gpu_;
  std::unique_ptr<service::Server> server_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload(const Options& opts) {
  return std::make_unique<ServeWorkload>(opts);
}

}  // namespace perfbench

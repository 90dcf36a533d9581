// many_sites: 32 small sites fed by one producer thread in an open loop, at
// a fixed rate well below saturation. The server runs in Start()/Stop()
// mode with 2 pool lanes; raw-event, location-update, fire-code and
// colocation subscriptions are registered. Records arrive out of order
// within the lateness bound, and a fixed share arrives far beyond it. An
// operator thread scrapes StatsJson and MetricsPrometheus periodically, and
// in the traced run also calls Checkpoint after each scrape.
//
// The per-record serving cost dominates (ingest, queue, synchronizer, bus,
// operators, telemetry, checkpoint pauses); each epoch's inference is small.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "common.h"
#include "core/experiment.h"
#include "model/cone_sensor.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace rfid;

constexpr int kSites = 32;
constexpr SiteId kFirstSite = 1;
constexpr double kEpochSeconds = 1.0;
constexpr double kLatenessSeconds = 2.0;
constexpr int kLanes = 2;
/// Offered load, records per second (about a third of what 2 lanes
/// sustain on a 4-core host: well below saturation).
constexpr double kOfferedRate = 8000.0;
/// Share of readings made late within the bound (moved one epoch later).
constexpr double kInBoundLateShare = 0.1;
/// Every this-many-th reading of a site is sent three epochs late, far
/// beyond the bound, and must be dropped.
constexpr int kFarLateEvery = 50;
/// A pass whose producer falls further behind its schedule than this is
/// refused: the offered load was not what the workload claims. A run
/// replaces refused passes, and fails after kMaxRefusedPasses of them.
constexpr double kMaxGeneratorLagMs = 50.0;
constexpr int kMaxRefusedPasses = 5;
/// Operator actions per pass, at fixed fractions of the pass's schedule so
/// every pass (and every seed) makes the same ones: a StatsJson and
/// Prometheus scrape at each of kScrapes evenly spaced points (about once a
/// second) and, in the traced run, a Checkpoint after each scrape.
/// The untraced run does not checkpoint: a checkpoint stalls every site for
/// its disk-bound write + fsync, which swung 26-262 ms across runs on a
/// shared 4-core host and made p99 a measure of the disk (see README).
constexpr int kScrapes = 3;
/// Run time per timed pass: --seconds / this = timed passes. A pass takes
/// ~6.1 s (its schedule at kOfferedRate). Six passes make p99 steady: over
/// five seeds the p99 of per-epoch minima spread 0.21 with four passes and
/// 0.05 with six.
constexpr double kRunSecondsPerPass = 6.0;

struct Site {
  WarehouseLayout layout;
  std::vector<ServeRecord> records;  ///< This site's records, send order.
};

struct Input {
  std::vector<Site> sites;
  std::vector<ServeRecord> schedule;  ///< All sites, send order.
  /// Per site: epoch step -> index in `schedule` of its closing record.
  std::vector<std::map<int64_t, size_t>> closing;
  uint64_t made_late = 0;  ///< Records the generator sent beyond the bound.
  size_t readings_in_bound = 0;
};

Input MakeInput(uint64_t seed) {
  Input in;
  in.sites.resize(kSites);
  // Per site: record batches per epoch, then the out-of-order moves.
  std::vector<std::vector<std::vector<ServeRecord>>> batches(kSites);
  size_t epochs = 0;
  for (int s = 0; s < kSites; ++s) {
    const SiteId site = kFirstSite + static_cast<SiteId>(s);
    WarehouseConfig wc;
    wc.num_shelves = 2;
    wc.shelf_length = 8.0;
    wc.objects_per_shelf = 20;
    wc.shelf_tags_per_shelf = 2;
    in.sites[s].layout = BuildWarehouse(wc).value();
    RobotConfig robot;
    // Two rounds: ~2500 epoch closings per pass, so p99 rests on ~25 of
    // them. With one round it swung 0.34-0.66 ms with the seed alone.
    robot.rounds = 2;
    TraceGenerator gen(in.sites[s].layout, robot, {}, ConeSensorModel(),
                       seed * 1000 + static_cast<uint64_t>(s));
    std::vector<ServeRecord> flat;
    std::vector<size_t> begin;
    AppendTraceRecords(gen.Generate(), site, 0.0, &flat, &begin);
    auto& b = batches[s];
    b.resize(begin.size());
    for (size_t e = 0; e < begin.size(); ++e) {
      const size_t end = e + 1 < begin.size() ? begin[e + 1] : flat.size();
      b[e].assign(flat.begin() + static_cast<ptrdiff_t>(begin[e]),
                  flat.begin() + static_cast<ptrdiff_t>(end));
    }
    // Every record of epoch e carries time e, and epoch e closes once a
    // record of time >= e + 1 + lateness arrives. A reading moved behind
    // epoch e+1's records is within the bound; one moved behind epoch
    // e+3's is beyond it and is dropped.
    Rng rng(seed ^ (0x5eedULL + static_cast<uint64_t>(s)));
    std::vector<std::vector<ServeRecord>> moved(b.size() + 4);
    int reading_count = 0;
    for (size_t e = 0; e < b.size(); ++e) {
      std::vector<ServeRecord> kept;
      for (const ServeRecord& r : b[e]) {
        if (r.kind != ServeRecord::Kind::kReading) {
          kept.push_back(r);
          continue;
        }
        ++reading_count;
        if (reading_count % kFarLateEvery == 0 && e + 3 < b.size()) {
          moved[e + 3].push_back(r);
          ++in.made_late;
        } else if (e + 1 < b.size() && rng.Bernoulli(kInBoundLateShare)) {
          moved[e + 1].push_back(r);
          ++in.readings_in_bound;
        } else {
          kept.push_back(r);
          ++in.readings_in_bound;
        }
      }
      b[e] = std::move(kept);
    }
    for (size_t e = 0; e < b.size(); ++e) {
      b[e].insert(b[e].end(), moved[e].begin(), moved[e].end());
      in.sites[s].records.insert(in.sites[s].records.end(), b[e].begin(),
                                 b[e].end());
    }
    epochs = std::max(epochs, b.size());
  }
  // Interleave the sites epoch by epoch into one schedule.
  std::vector<std::vector<size_t>> site_index(kSites);
  for (size_t e = 0; e < epochs; ++e) {
    for (int s = 0; s < kSites; ++s) {
      if (e >= batches[s].size()) continue;
      for (const ServeRecord& r : batches[s][e]) {
        site_index[s].push_back(in.schedule.size());
        in.schedule.push_back(r);
      }
    }
  }
  in.closing.resize(kSites);
  for (int s = 0; s < kSites; ++s) {
    for (const auto& [step, i] : ClosingRecords(
             in.sites[s].records, kEpochSeconds, kLatenessSeconds)) {
      in.closing[s][step] = site_index[s][i];
    }
  }
  return in;
}

std::vector<SiteSpec> Specs(const Input& in) {
  std::vector<SiteSpec> specs;
  for (int s = 0; s < kSites; ++s) {
    specs.push_back({kFirstSite + static_cast<SiteId>(s),
                     MakeWorldModel(in.sites[s].layout,
                                    std::make_unique<ConeSensorModel>())});
  }
  return specs;
}

ServeConfig Config(int lanes) {
  ServeConfig c;
  c.num_shards = 4;
  c.num_threads = lanes;
  c.queue_capacity = 8192;
  c.pump_batch = 512;
  c.epoch_seconds = kEpochSeconds;
  c.max_lateness_seconds = kLatenessSeconds;
  c.engine.factored.num_reader_particles = 50;
  c.engine.factored.num_object_particles = 400;
  c.engine.factored.seed = 71;
  c.engine.emitter.delay_seconds = 10.0;
  return c;
}

/// Everything the subscriptions delivered in one pass, per site.
struct Outputs {
  std::vector<SiteCapture> raw = std::vector<SiteCapture>(kSites);
  std::vector<std::vector<LocationEvent>> updates =
      std::vector<std::vector<LocationEvent>>(kSites);
  std::vector<std::vector<FireCodeAlert>> alerts =
      std::vector<std::vector<FireCodeAlert>>(kSites);
};

void Subscribe(StreamingServer* server, Outputs* out) {
  CaptureEvents(server, &out->raw, kFirstSite, kEpochSeconds);
  server->bus().SubscribeLocationUpdates(
      kMinChangeFeet, [out](SiteId site, const LocationEvent& e) {
        out->updates[site - kFirstSite].push_back(e);
      });
  server->bus().SubscribeFireCode(
      FireConfig(), TagWeight, [out](SiteId site, const FireCodeAlert& a) {
        out->alerts[site - kFirstSite].push_back(a);
      });
  server->bus().SubscribeColocation(ColocationConfig{});
}

struct Pass {
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< First due time to Stop() return.
  double cpu_s = 0.0;
  double lag_ms_max = 0.0;
  /// Quantiles over epochs of the time from the closing record's due time
  /// (record_*) or its Ingest() (epoch_*) to the callback with the events.
  /// Keyed by (site index, epoch step); the same keys in every pass, since
  /// every site's event stream is checked identical.
  std::map<std::pair<int, int64_t>, double> record_ms, epoch_ms;
  Status checkpoint_status;  ///< The last failed Checkpoint()'s.
  uint64_t checkpoints_failed = 0;
  uint64_t ingest_refused = 0;  ///< Ingest() calls returning false.
  uint64_t queue_depth_max = 0;
  std::vector<double> checkpoint_ms, stats_ms, prometheus_ms;
  size_t stats_bytes = 0, prometheus_bytes = 0;
  Outputs outputs;
  ServerStatsSnapshot stats;
  std::unique_ptr<StreamingServer> server;
};

Pass RunPass(const Input& in, const std::string& checkpoint_dir,
             bool checkpoint) {
  Pass pass;
  const uint64_t setup_t0 = NowNs();
  pass.server = StreamingServer::Create(Specs(in), Config(kLanes)).value();
  StreamingServer* server = pass.server.get();
  Subscribe(server, &pass.outputs);
  server->Start();
  pass.setup_s = static_cast<double>(NowNs() - setup_t0) * 1e-9;

  const size_t n = in.schedule.size();
  std::vector<uint64_t> sent_ns(n, 0);
  const double period_ns = 1e9 / kOfferedRate;
  const double cpu0 = CpuSeconds();
  const uint64_t start = NowNs() + 2'000'000;  // First record due in 2 ms.
  const auto due_at = [start, period_ns](double j) {
    return start + static_cast<uint64_t>(j * period_ns);
  };

  // Operator: scrapes and checkpoints at fixed points of the schedule.
  std::thread operator_thread([&] {
    for (int k = 1; k <= kScrapes; ++k) {
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
              due_at(static_cast<double>(n) * k / (kScrapes + 1)))));
      uint64_t t0 = NowNs();
      std::string json;
      {
        spans::Scope span("serve.stats", k);
        const ServerStatsSnapshot stats = server->Stats();
        json = stats.ToJson();
        for (const ShardStatsSnapshot& shard : stats.shards) {
          pass.queue_depth_max = std::max<uint64_t>(
              pass.queue_depth_max, shard.queue.pushed - shard.queue.popped);
        }
      }
      pass.stats_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      pass.stats_bytes = json.size();
      t0 = NowNs();
      {
        spans::Scope span("obs.prometheus", k);
        pass.prometheus_bytes = server->MetricsPrometheus().size();
      }
      pass.prometheus_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      if (checkpoint) {
        t0 = NowNs();
        spans::Scope span("serve.checkpoint", k);
        const Status saved = server->Checkpoint(checkpoint_dir);
        if (!saved.ok()) {
          pass.checkpoint_status = saved;
          ++pass.checkpoints_failed;
        }
        pass.checkpoint_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      }
    }
  });

  // Producer: sends every record at its due time, regardless of how the
  // server keeps up; sleeps while nothing is due.
  uint64_t lag_ns = 0;
  for (size_t j = 0; j < n;) {
    const uint64_t now = NowNs();
    const uint64_t due = due_at(static_cast<double>(j));
    if (now < due) {
      if (due - now > 200'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 100'000));
      } else {
        std::this_thread::yield();
      }
      continue;
    }
    lag_ns = std::max(lag_ns, now - due);
    sent_ns[j] = now;
    spans::Scope span("serve.ingest", j);
    if (!server->Ingest(in.schedule[j])) ++pass.ingest_refused;
    ++j;
  }
  operator_thread.join();
  server->Stop();
  const uint64_t end = NowNs();
  server->Flush();
  pass.wall_s = static_cast<double>(end - start) * 1e-9;
  pass.cpu_s = CpuSeconds() - cpu0;
  pass.lag_ms_max = static_cast<double>(lag_ns) * 1e-6;
  pass.stats = server->Stats();

  for (int s = 0; s < kSites; ++s) {
    for (const auto& [step, ns] : pass.outputs.raw[s].epoch_first_ns) {
      const auto it = in.closing[s].find(step);
      if (it == in.closing[s].end()) continue;
      const size_t j = it->second;
      pass.record_ms[{s, step}] =
          static_cast<double>(ns - due_at(static_cast<double>(j))) * 1e-6;
      pass.epoch_ms[{s, step}] = static_cast<double>(ns - sent_ns[j]) * 1e-6;
    }
  }
  return pass;
}

/// Plain recomputation of query 1 (no TTL): a tag's event passes when it is
/// the tag's first or moved more than kMinChangeFeet from the last passed.
std::vector<LocationEvent> ReferenceUpdates(
    const std::vector<LocationEvent>& events) {
  std::map<TagId, Vec3> last;
  std::vector<LocationEvent> out;
  for (const LocationEvent& e : events) {
    const auto it = last.find(e.tag);
    if (it != last.end() && it->second.DistanceTo(e.location) <= kMinChangeFeet) {
      continue;
    }
    last[e.tag] = e.location;
    out.push_back(e);
  }
  return out;
}

/// Plain recomputation of query 2: window sums recomputed from every event
/// still inside the window; an armed cell disarms once its sum falls to the
/// limit, and alerts when the sum first exceeds it.
std::vector<FireCodeAlert> ReferenceAlerts(
    const std::vector<LocationEvent>& events) {
  const FireCodeConfig config = FireConfig();
  struct Entry {
    double time;
    AreaCell cell;
    double weight;
  };
  std::vector<Entry> seen;
  std::map<AreaCell, bool> armed;
  auto window_sum = [&](const AreaCell& cell, double now) {
    double sum = 0.0;
    for (const Entry& x : seen) {
      if (x.cell == cell && !(x.time <= now - config.window_seconds)) {
        sum += x.weight;
      }
    }
    return sum;
  };
  std::vector<FireCodeAlert> out;
  for (const LocationEvent& e : events) {
    for (auto& [cell, is_armed] : armed) {
      if (is_armed && window_sum(cell, e.time) <= config.weight_limit) {
        is_armed = false;
      }
    }
    const AreaCell cell{
        static_cast<int64_t>(std::floor(e.location.x / config.cell_size_feet)),
        static_cast<int64_t>(std::floor(e.location.y / config.cell_size_feet))};
    seen.push_back({e.time, cell, TagWeight(e.tag)});
    const double sum = window_sum(cell, e.time);
    if (!armed[cell] && sum > config.weight_limit) {
      armed[cell] = true;
      out.push_back({e.time, cell, sum});
    }
  }
  return out;
}

bool SameAlerts(const std::vector<FireCodeAlert>& a,
                const std::vector<FireCodeAlert>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || !(a[i].area == b[i].area) ||
        a[i].total_weight != b[i].total_weight) {
      return false;
    }
  }
  return true;
}

void CheckPass(const Input& in, const Pass& pass,
               const std::vector<std::vector<LocationEvent>>& alone,
               Report* report) {
  uint64_t ingested = 0;
  for (const ShardStatsSnapshot& shard : pass.stats.shards) {
    ingested += shard.queue.pushed;
  }
  const uint64_t processed = pass.stats.TotalRecordsProcessed();
  const uint64_t dropped = pass.stats.TotalDroppedLate();
  report->Check(ingested == in.schedule.size(),
                "many_sites: " + std::to_string(ingested) + " of " +
                    std::to_string(in.schedule.size()) + " records ingested");
  report->Check(ingested == processed + dropped,
                "many_sites: ingested " + std::to_string(ingested) +
                    " != processed " + std::to_string(processed) +
                    " + dropped late " + std::to_string(dropped));
  report->Check(dropped == in.made_late,
                "many_sites: dropped late " + std::to_string(dropped) +
                    " != generator's late records " +
                    std::to_string(in.made_late));
  report->Check(pass.checkpoint_status.ok(),
                "many_sites: checkpoint failed: " +
                    pass.checkpoint_status.ToString());
  std::string why;
  for (int s = 0; s < kSites; ++s) {
    const std::string site = std::to_string(kFirstSite + s);
    const std::vector<LocationEvent>& events = pass.outputs.raw[s].events;
    report->Check(SameEvents(events, alone[s], &why),
                  "many_sites: site " + site +
                      " events differ from the site fed alone: " + why);
    report->Check(SameEvents(pass.outputs.updates[s], ReferenceUpdates(events),
                             &why),
                  "many_sites: site " + site +
                      " location updates differ from the reference: " + why);
    report->Check(SameAlerts(pass.outputs.alerts[s], ReferenceAlerts(events)),
                  "many_sites: site " + site +
                      " fire-code alerts differ from the reference");
  }
}

/// Inline reference: each site's records fed alone, then Pump(); returns
/// per-site events and the wall time spent in Pump/Flush.
std::vector<std::vector<LocationEvent>> FeedAlone(const Input& in, int lanes,
                                                  bool all_at_once,
                                                  double* wall_s,
                                                  Report* report) {
  ServeConfig config = Config(lanes);
  config.queue_capacity = in.schedule.size() + 1;
  auto server = StreamingServer::Create(Specs(in), config).value();
  Outputs out;
  CaptureEvents(server.get(), &out.raw, kFirstSite, kEpochSeconds);
  double wall = 0.0;
  auto pump = [&] {
    const uint64_t t0 = NowNs();
    server->Pump();
    wall += static_cast<double>(NowNs() - t0) * 1e-9;
  };
  size_t refused = 0;
  if (all_at_once) {
    for (const ServeRecord& r : in.schedule) refused += !server->Ingest(r);
    pump();
  } else {
    for (const Site& site : in.sites) {
      for (const ServeRecord& r : site.records) refused += !server->Ingest(r);
      pump();
    }
  }
  report->Check(refused == 0, "many_sites: the inline reference's Ingest() "
                              "refused " + std::to_string(refused) +
                              " records");
  const uint64_t t0 = NowNs();
  server->Flush();
  *wall_s = wall + static_cast<double>(NowNs() - t0) * 1e-9;
  std::vector<std::vector<LocationEvent>> events;
  for (SiteCapture& c : out.raw) events.push_back(std::move(c.events));
  return events;
}

/// Mean XY error of every site's final estimates against the placements
/// (tags never read have no estimate and are left out).
double MeanEstimateError(const Input& in, const StreamingServer& server) {
  ErrorStats errors;
  for (int s = 0; s < kSites; ++s) {
    const SitePipeline* pipeline = server.FindSite(kFirstSite + s);
    for (const ObjectPlacement& o : in.sites[s].layout.objects) {
      const auto est = pipeline->engine().EstimateObject(o.tag);
      if (est.has_value()) errors.Add(est->mean, o.position);
    }
  }
  return errors.MeanXY();
}

std::vector<double> Pooled(const std::vector<Pass>& passes,
                           std::vector<double> Pass::*field) {
  std::vector<double> all;
  for (const Pass& p : passes) {
    all.insert(all.end(), (p.*field).begin(), (p.*field).end());
  }
  return all;
}

}  // namespace

void RunManySites(const Args& args, Report* report) {
  const Input in = MakeInput(args.seed);
  std::fprintf(stderr,
               "[%.1fs] many_sites: %d sites, %zu records (%llu sent beyond "
               "the lateness bound), %.0f records/s offered, %d lanes\n",
               Elapsed(), kSites, in.schedule.size(),
               static_cast<unsigned long long>(in.made_late), kOfferedRate,
               kLanes);
  double alone_wall = 0.0;
  const auto alone = FeedAlone(in, 1, false, &alone_wall, report);
  const std::string checkpoint_dir = args.out_dir + "/many_sites_checkpoint";
  std::filesystem::remove_all(checkpoint_dir);

  // Timed passes: TimedPasses() plain ones, and in the traced run as many
  // of each other kind, rotating plain, spans on, telemetry off. A refused
  // pass is run again. The first set-up of the process is the cold one.
  const int passes = TimedPasses(args, kRunSecondsPerPass);
  const int kinds = args.trace ? 3 : 1;
  std::vector<Pass> plain, traced, telemetry_off;
  int refused = 0;
  double lag = 0.0;
  double location_error = 0.0;
  bool cold = true;
  for (int k = 0; k < passes * kinds;) {
    const int kind = k % kinds;
    spans::SetEnabled(kind == 1);
    obs::SetTelemetryEnabled(kind != 2);
    Pass pass = RunPass(in, checkpoint_dir, args.trace);
    spans::SetEnabled(false);
    obs::SetTelemetryEnabled(true);
    if (cold) {
      report->Metric("setup_s", pass.setup_s, "s");
      // Later passes repeat the same work; only the allocator's reuse of
      // dead servers' memory would move the high-water mark after this.
      report->Metric("peak_rss_mb", PeakRssMb(), "MB");
      cold = false;
    }
    CheckPass(in, pass, alone, report);
    report->AddAttempted(in.schedule.size() + pass.checkpoint_ms.size());
    report->AddFailed(pass.ingest_refused + pass.checkpoints_failed);
    if (pass.lag_ms_max > kMaxGeneratorLagMs) {
      std::fprintf(stderr, "pass refused: generator lagged %.3f ms\n",
                   pass.lag_ms_max);
      if (++refused > kMaxRefusedPasses) {
        report->Fail("many_sites: generator lagged past " +
                     std::to_string(kMaxGeneratorLagMs) + " ms in " +
                     std::to_string(refused) + " passes");
        return;
      }
      continue;
    }
    if (kind == 0) lag = std::max(lag, pass.lag_ms_max);
    if (kind == 0 && plain.empty()) {
      location_error = MeanEstimateError(in, *pass.server);
      if (args.trace) ReportFilterState(*pass.server, kFirstSite, kSites, report);
    }
    // Only one server lives at a time, so peak RSS does not depend on how
    // the allocator reuses a dead server's memory.
    pass.server.reset();
    (kind == 0 ? plain : kind == 1 ? traced : telemetry_off)
        .push_back(std::move(pass));
    ++k;
  }
  const std::vector<double> record_ms = FastestPerKey(plain, &Pass::record_ms);
  const std::vector<double> epoch_ms = FastestPerKey(plain, &Pass::epoch_ms);
  const size_t samples = record_ms.size();
  std::fprintf(stderr,
               "[%.1fs] %zu passes (%d refused), %zu latency samples, "
               "generator lag max %.3f ms\n",
               Elapsed(), plain.size(), refused, samples, lag);
  for (const Pass& p : plain) {
    std::vector<double> ms;
    for (const auto& [key, value] : p.record_ms) ms.push_back(value);
    std::fprintf(stderr, "  pass: record latency p50 %.3f ms, p99 %.3f ms\n",
                 Quantile(ms, 0.5), Quantile(ms, 0.99));
  }
  report->Metric("readings_per_s",
                 static_cast<double>(in.readings_in_bound) /
                     BestOf(plain, &Pass::wall_s),
                 "readings/s");
  report->Metric("epoch_latency_ms_p50", Quantile(epoch_ms, 0.5), "ms");
  report->Metric("epoch_latency_ms_p99", Quantile(epoch_ms, 0.99), "ms");
  report->Metric("record_latency_ms_p50", Quantile(record_ms, 0.5), "ms");
  report->Metric("record_latency_ms_p99", Quantile(record_ms, 0.99), "ms");

  report->Metric("location_error_ft", location_error, "ft");
  if (!args.trace) return;

  // ---------------------------------------------------- per-layer run ----
  // Every kind ran the same number of passes, as the fastest of more passes
  // reads lower.
  const auto p50_of = [](const std::vector<Pass>& of_kind) {
    return Quantile(FastestPerKey(of_kind, &Pass::record_ms), 0.5);
  };
  const double p50 = p50_of(plain);
  report->Layer("trace.overhead_ratio", p50_of(traced) / p50, "ratio");
  // Off-latency over on-latency: below 1 is telemetry overhead.
  report->Layer("obs.telemetry_on_off_ratio", p50_of(telemetry_off) / p50,
                "ratio");
  double lanes_wall = 0.0;
  const auto together = FeedAlone(in, kLanes, true, &lanes_wall, report);
  std::string why;
  for (int s = 0; s < kSites; ++s) {
    report->Check(SameEvents(together[s], alone[s], &why),
                  "many_sites: site " + std::to_string(kFirstSite + s) +
                      " events at " + std::to_string(kLanes) +
                      " lanes differ from the 1-lane run: " + why);
  }
  const double readings = static_cast<double>(in.readings_in_bound);
  report->Layer("pf.lane1_readings_per_s", readings / alone_wall,
                 "readings/s");
  report->Layer("pf.parallel_speedup", alone_wall / lanes_wall, "ratio");
  const Pass& first = plain.front();
  const double efficiency = first.cpu_s / (first.wall_s * kLanes);
  report->Layer("pf.parallel_efficiency", efficiency, "ratio");
  report->Layer("serve.pool.efficiency", efficiency, "ratio");
  report->Layer("bench.generator_lag_ms_max", lag, "ms");
  uint64_t depth = 0;
  for (const Pass& p : traced) depth = std::max(depth, p.queue_depth_max);
  report->Layer("serve.queue.depth_max", static_cast<double>(depth), "count");
  report->Layer("serve.ingest.us_p50",
                 Median(spans::Durations("serve.ingest")) * 1e3, "us");
  report->Layer("serve.checkpoint.ms", Median(Pooled(plain, &Pass::checkpoint_ms)),
                 "ms");
  report->Layer("serve.checkpoint.bytes",
                static_cast<double>(DirectoryBytes(checkpoint_dir)), "bytes");
  {
    auto fresh = StreamingServer::Create(Specs(in), Config(kLanes)).value();
    const uint64_t r0 = NowNs();
    const Status restored = fresh->Restore(checkpoint_dir);
    report->Layer("serve.restore.ms", static_cast<double>(NowNs() - r0) * 1e-6,
                   "ms");
    report->CountCall(restored.ok());
    report->Check(restored.ok(), "many_sites: restore: " + restored.ToString());
  }
  report->Layer("serve.stats.ms", Median(Pooled(plain, &Pass::stats_ms)), "ms");
  report->Layer("serve.stats.bytes", static_cast<double>(first.stats_bytes),
                 "bytes");
  report->Layer("obs.prometheus.ms", Median(Pooled(plain, &Pass::prometheus_ms)),
                 "ms");
  report->Layer("obs.prometheus.bytes",
                 static_cast<double>(first.prometheus_bytes), "bytes");

  std::vector<ChainSite> chain_sites;
  for (int s = 0; s < kSites; ++s) {
    const Site* site = &in.sites[s];
    chain_sites.push_back(
        {kFirstSite + static_cast<SiteId>(s),
         [site] {
           return MakeWorldModel(site->layout,
                                 std::make_unique<ConeSensorModel>());
         },
         &site->records, 0, &alone[s]});
  }
  ReportChains(chain_sites, Config(kLanes).engine, kEpochSeconds,
               kLatenessSeconds, report);
  MeasureSynchronizer(in.schedule, kEpochSeconds, kLatenessSeconds, 5, report);
  MeasureBusOperators(alone, kFirstSite, report);
  WriteSpanSummary(args.out_dir + "/self_time_many_sites.json");
  spans::WriteChromeJson(args.out_dir + "/trace_many_sites.json");
  std::filesystem::remove_all(checkpoint_dir);
}

}  // namespace perfbench

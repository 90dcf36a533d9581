#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "core/metrics.h"
#include "obs/metrics.h"
#include "pf/factored_filter.h"
#include "stream/synchronizer.h"
#include "util/rng.h"

namespace perfbench {

using namespace rfid;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {
const uint64_t g_process_start_ns = NowNs();
}  // namespace

double Elapsed() {
  return static_cast<double>(NowNs() - g_process_start_ns) * 1e-9;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

int LanesUpTo(int cap) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(cap, hw));
}

int TimedPasses(const Args& args, double run_seconds_per_pass) {
  const int passes = static_cast<int>(
      std::lround(args.seconds / run_seconds_per_pass));
  return std::max(3, args.trace ? (passes + 1) / 2 : passes);
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

// ------------------------------------------------------------- report ----

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  Add(&end_to_end_, name, value, unit);
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  Add(&per_layer_, name, value, unit);
}

void Report::Add(std::vector<Entry>* to, const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  to->push_back({name, value, unit});
}

void Report::Fail(const std::string& reason) {
  std::fprintf(stderr, "check failed: %s\n", reason.c_str());
  failures_.push_back(reason);
}

std::string Report::Json(bool per_layer) const {
  const std::vector<Entry>& metrics = per_layer ? per_layer_ : end_to_end_;
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// -------------------------------------------------------------- spans ----

namespace spans {
namespace {

struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int64_t parent;  ///< Index in the same thread's buffer, -1 for roots.
  uint64_t id;
};

struct ThreadBuffer {
  uint64_t tid = 0;
  std::vector<Span> spans;
  std::vector<int64_t> open;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // Guarded by g_mu.

ThreadBuffer* ThisThread() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->tid = g_buffers.size();
    buffer->spans.reserve(1 << 16);
  }
  return buffer;
}

}  // namespace

void SetEnabled(bool enabled) { g_enabled.store(enabled); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

Scope::Scope(const char* name, uint64_t id) {
  if (!Enabled()) return;
  ThreadBuffer* b = ThisThread();
  index_ = static_cast<int64_t>(b->spans.size());
  const int64_t parent = b->open.empty() ? -1 : b->open.back();
  b->spans.push_back({name, NowNs(), 0, parent, id});
  b->open.push_back(index_);
}

Scope::~Scope() {
  if (index_ < 0) return;
  ThreadBuffer* b = ThisThread();
  b->spans[static_cast<size_t>(index_)].end_ns = NowNs();
  b->open.pop_back();
}

std::map<std::string, LayerTime> Summary() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, LayerTime> out;
  for (const auto& b : g_buffers) {
    std::vector<double> child_ms(b->spans.size(), 0.0);
    for (const Span& s : b->spans) {
      if (s.parent >= 0) {
        child_ms[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      }
    }
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      LayerTime& t = out[s.name];
      t.count += 1;
      t.total_ms += ms;
      t.self_ms += ms - child_ms[i];
    }
  }
  return out;
}

std::vector<double> Durations(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<double> out;
  for (const auto& b : g_buffers) {
    for (const Span& s : b->spans) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
      }
    }
  }
  return out;
}

bool WriteChromeJson(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"traceEvents\": [\n";
  bool first = true;
  for (const auto& b : g_buffers) {
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      char line[320];
      std::snprintf(line, sizeof(line),
                    "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"span\": %zu, \"parent\": %lld, \"id\": %llu}}",
                    first ? "" : ",\n", s.name,
                    static_cast<unsigned long long>(b->tid),
                    static_cast<double>(s.start_ns) * 1e-3,
                    static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                    static_cast<long long>(s.parent),
                    static_cast<unsigned long long>(s.id));
      os << line;
      first = false;
    }
  }
  os << "\n]}\n";
  return os.good();
}

void Clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& b : g_buffers) {
    b->spans.clear();
    b->open.clear();
  }
}

}  // namespace spans

// ------------------------------------------------------------ records ----

void AppendTraceRecords(const SimulatedTrace& trace, SiteId site,
                        double time_offset, std::vector<ServeRecord>* out,
                        std::vector<size_t>* batch_begin) {
  for (const SimEpoch& epoch : trace.epochs) {
    const SyncedEpoch& obs = epoch.observations;
    const double time = obs.time + time_offset;
    if (batch_begin != nullptr) batch_begin->push_back(out->size());
    if (obs.has_location) {
      ReaderLocationReport report;
      report.time = time;
      report.location = obs.reported_location;
      report.has_heading = obs.has_heading;
      report.heading = obs.reported_heading;
      out->push_back(ServeRecord::Location(site, report));
    }
    for (TagId tag : obs.tags) {
      out->push_back(ServeRecord::Reading(site, {time, tag}));
    }
  }
}

size_t CountReadings(const std::vector<ServeRecord>& records) {
  size_t n = 0;
  for (const ServeRecord& r : records) {
    n += r.kind == ServeRecord::Kind::kReading ? 1 : 0;
  }
  return n;
}

std::map<int64_t, size_t> ClosingRecords(
    const std::vector<ServeRecord>& records, double epoch_seconds,
    double max_lateness_seconds) {
  SynchronizerConfig config;
  config.epoch_seconds = epoch_seconds;
  config.max_lateness_seconds = max_lateness_seconds;
  StreamSynchronizer sync(config);
  std::map<int64_t, size_t> closing;
  for (size_t i = 0; i < records.size(); ++i) {
    const ServeRecord& r = records[i];
    const bool admitted = r.kind == ServeRecord::Kind::kReading
                              ? sync.Push(r.reading)
                              : sync.Push(r.location);
    if (!admitted) continue;
    for (const SyncedEpoch& e : sync.PollWatermark()) closing[e.step] = i;
  }
  return closing;
}

bool SameEvents(const std::vector<LocationEvent>& a,
                const std::vector<LocationEvent>& b, std::string* why) {
  if (a.size() != b.size()) {
    *why = "event counts differ (" + std::to_string(a.size()) + " vs " +
           std::to_string(b.size()) + ")";
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const LocationEvent& x = a[i];
    const LocationEvent& y = b[i];
    bool same = x.time == y.time && x.tag == y.tag &&
                x.location.x == y.location.x && x.location.y == y.location.y &&
                x.location.z == y.location.z &&
                x.stats.has_value() == y.stats.has_value();
    if (same && x.stats.has_value()) {
      same = x.stats->variance.x == y.stats->variance.x &&
             x.stats->variance.y == y.stats->variance.y &&
             x.stats->variance.z == y.stats->variance.z &&
             x.stats->rmse_radius == y.stats->rmse_radius &&
             x.stats->support == y.stats->support;
    }
    if (!same) {
      *why = "event " + std::to_string(i) + " differs (tag " +
             std::to_string(x.tag) + " vs " + std::to_string(y.tag) + ")";
      return false;
    }
  }
  return true;
}

void CaptureEvents(StreamingServer* server, std::vector<SiteCapture>* captures,
                   SiteId first_site, double epoch_seconds) {
  server->bus().SubscribeEvents(
      [captures, first_site, epoch_seconds](SiteId site,
                                            const LocationEvent& e) {
        SiteCapture& c = (*captures)[site - first_site];
        if (c.events.empty() || c.events.back().time != e.time) {
          c.epoch_first_ns.emplace_back(
              static_cast<int64_t>(std::llround(e.time / epoch_seconds)),
              NowNs());
        }
        c.events.push_back(e);
      });
}

EngineConfig SiteEngineConfig(const EngineConfig& engine, SiteId site) {
  EngineConfig config = engine;
  uint64_t mix = site;
  config.factored.seed = engine.factored.seed ^ SplitMix64(mix);
  return config;
}

double MeanXyError(const StreamingServer& server, SiteId site,
                   const GroundTruth& truth, double time, size_t* missing) {
  const SitePipeline* pipeline = server.FindSite(site);
  ErrorStats errors;
  *missing = 0;
  for (TagId tag : truth.AllTags()) {
    const auto est = pipeline->engine().EstimateObject(tag);
    if (!est.has_value()) {
      ++*missing;
      continue;
    }
    errors.Add(est->mean, truth.PositionAt(tag, time).value());
  }
  return errors.MeanXY();
}

// ------------------------------------------------------ traced chain ----

ChainResult RunChain(WorldModel model, const EngineConfig& engine_config,
                     SiteId site, const std::vector<ServeRecord>& records,
                     size_t measure_from, double epoch_seconds,
                     double max_lateness_seconds, SubscriptionBus* bus) {
  SynchronizerConfig sync_config;
  sync_config.epoch_seconds = epoch_seconds;
  sync_config.max_lateness_seconds = max_lateness_seconds;
  StreamSynchronizer sync(sync_config);
  auto engine =
      RfidInferenceEngine::Create(std::move(model), engine_config).value();
  auto* filter =
      dynamic_cast<FactoredParticleFilter*>(&engine->mutable_filter());
  EventEmitter& emitter = engine->emitter();
  const EventEmitter::EstimateFn estimate = [filter](TagId tag) {
    return filter->EstimateObject(tag);
  };

  const bool tracing = spans::Enabled();
  ChainResult result;
  bool measuring = false;
  uint64_t updates_from = 0;
  uint64_t epochs_seen = 0;
  std::vector<LocationEvent> events;
  // ProcessEpoch is exactly ObserveEpoch then OnEpoch with the filter's
  // estimates, so alternate epochs take the engine call and the two
  // component calls: one replay times both, and its events must still
  // equal the server's.
  auto process = [&](const std::vector<SyncedEpoch>& epochs) {
    for (const SyncedEpoch& epoch : epochs) {
      const uint64_t id = static_cast<uint64_t>(epoch.step);
      if (epochs_seen++ % 2 == 0) {
        spans::Scope span("core.engine", id);
        const uint64_t t0 = NowNs();
        engine->ProcessEpoch(epoch);
        if (measuring) {
          result.engine_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
        }
        engine->TakeEvents(&events);
      } else {
        {
          spans::Scope span("pf.observe", id);
          const uint64_t t0 = NowNs();
          filter->ObserveEpoch(epoch);
          if (measuring) {
            result.observe_ms.push_back(static_cast<double>(NowNs() - t0) *
                                        1e-6);
          }
        }
        spans::Scope span("stream.emitter", id);
        const uint64_t t0 = NowNs();
        events = emitter.OnEpoch(epoch, estimate);
        if (measuring) {
          result.emitter_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
        }
      }
      if (!events.empty()) {
        spans::Scope span("stream.bus", id);
        bus->Dispatch(site, events);
      }
      if (measuring) {
        result.events.insert(result.events.end(), events.begin(), events.end());
      }
    }
  };

  spans::SetEnabled(false);
  for (size_t i = 0; i < records.size(); ++i) {
    if (i == measure_from) {
      measuring = true;
      updates_from = filter->particle_updates();
      spans::SetEnabled(tracing);
    }
    spans::Scope root("chain.record", i);
    std::vector<SyncedEpoch> epochs;
    {
      spans::Scope span("stream.sync", i);
      const ServeRecord& r = records[i];
      const bool admitted = r.kind == ServeRecord::Kind::kReading
                                ? sync.Push(r.reading)
                                : sync.Push(r.location);
      if (admitted) epochs = sync.PollWatermark();
    }
    process(epochs);
  }
  {
    spans::Scope root("chain.flush", records.size());
    process(sync.Finish());
  }
  spans::SetEnabled(tracing);
  result.particle_updates = filter->particle_updates() - updates_from;
  return result;
}

void ReportChains(const std::vector<ChainSite>& sites,
                  const EngineConfig& engine, double epoch_seconds,
                  double max_lateness_seconds, Report* report) {
  spans::SetEnabled(true);
  std::string why;
  std::vector<double> engine_ms, observe_ms, emitter_us;
  uint64_t particle_updates = 0;
  double observe_s = 0.0;
  for (const ChainSite& cs : sites) {
    SubscriptionBus bus;
    const ChainResult chain = RunChain(
        cs.model(), SiteEngineConfig(engine, cs.site), cs.site, *cs.records,
        cs.measure_from, epoch_seconds, max_lateness_seconds, &bus);
    report->Check(SameEvents(chain.events, *cs.expected, &why),
                  "component chain events of site " + std::to_string(cs.site) +
                      " differ from the server's: " + why);
    engine_ms.insert(engine_ms.end(), chain.engine_ms.begin(),
                     chain.engine_ms.end());
    observe_ms.insert(observe_ms.end(), chain.observe_ms.begin(),
                      chain.observe_ms.end());
    emitter_us.insert(emitter_us.end(), chain.emitter_us.begin(),
                      chain.emitter_us.end());
    particle_updates += chain.particle_updates;
    for (double ms : chain.observe_ms) observe_s += ms * 1e-3;
    for (double ms : chain.engine_ms) observe_s += ms * 1e-3;
  }
  spans::SetEnabled(false);
  report->Layer("core.engine.ms_p50", Quantile(engine_ms, 0.5), "ms");
  report->Layer("core.engine.ms_p99", Quantile(engine_ms, 0.99), "ms");
  report->Layer("pf.observe.ms_p50", Quantile(observe_ms, 0.5), "ms");
  report->Layer("pf.observe.ms_p99", Quantile(observe_ms, 0.99), "ms");
  report->Layer("pf.particle_updates", static_cast<double>(particle_updates),
                "count");
  // Engine epochs include their (small) emitter share in this rate.
  report->Layer("pf.particle_updates_per_s",
                static_cast<double>(particle_updates) / std::max(observe_s, 1e-9),
                "1/s");
  report->Layer("stream.emitter.us_p50", Median(emitter_us), "us");
}

void MeasureSynchronizer(const std::vector<ServeRecord>& records,
                         double epoch_seconds, double max_lateness_seconds,
                         int repeats, Report* report) {
  SynchronizerConfig config;
  config.epoch_seconds = epoch_seconds;
  config.max_lateness_seconds = max_lateness_seconds;
  // One synchronizer per site, as in the server.
  double best_ns = 0.0;
  uint64_t epochs_closed = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    std::map<SiteId, StreamSynchronizer> syncs;
    for (const ServeRecord& r : records) syncs.try_emplace(r.site, config);
    uint64_t closed = 0;
    const uint64_t t0 = NowNs();
    for (const ServeRecord& r : records) {
      StreamSynchronizer& sync = syncs.find(r.site)->second;
      const bool admitted = r.kind == ServeRecord::Kind::kReading
                                ? sync.Push(r.reading)
                                : sync.Push(r.location);
      if (admitted) closed += sync.PollWatermark().size();
    }
    const double ns = static_cast<double>(NowNs() - t0);
    if (rep == 0 || ns < best_ns) best_ns = ns;
    epochs_closed = closed;
  }
  report->Layer("stream.sync.ns_per_record",
                 best_ns / static_cast<double>(std::max<size_t>(records.size(), 1)),
                 "ns");
  report->Layer("stream.sync.epochs_closed",
                 static_cast<double>(epochs_closed), "count");
}

FireCodeConfig FireConfig() {
  FireCodeConfig config;
  config.window_seconds = 30.0;
  config.weight_limit = 120.0;
  config.cell_size_feet = 4.0;
  return config;
}

double TagWeight(TagId tag) { return 10.0 + static_cast<double>(tag % 41); }

void MeasureBusOperators(
    const std::vector<std::vector<LocationEvent>>& per_site, SiteId first_site,
    Report* report) {
  // Group each site's events by epoch, the unit the pipeline dispatches.
  std::vector<std::vector<std::vector<LocationEvent>>> batches(per_site.size());
  size_t total = 0;
  for (size_t s = 0; s < per_site.size(); ++s) {
    for (const LocationEvent& e : per_site[s]) {
      if (batches[s].empty() || batches[s].back().back().time != e.time) {
        batches[s].emplace_back();
      }
      batches[s].back().push_back(e);
      ++total;
    }
  }
  const char* names[] = {"stream.query.location_update.ns_per_event",
                         "stream.query.fire_code.ns_per_event",
                         "stream.colocation.ns_per_event"};
  size_t coloc_bytes = 0;
  for (int kind = 0; kind < 3; ++kind) {
    double best_ns = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      SubscriptionBus bus;
      if (kind == 0) {
        bus.SubscribeLocationUpdates(kMinChangeFeet,
                                     [](SiteId, const LocationEvent&) {});
      } else if (kind == 1) {
        bus.SubscribeFireCode(FireConfig(), TagWeight,
                              [](SiteId, const FireCodeAlert&) {});
      } else {
        bus.SubscribeColocation(ColocationConfig{});
      }
      const uint64_t t0 = NowNs();
      for (size_t s = 0; s < batches.size(); ++s) {
        for (const auto& batch : batches[s]) {
          bus.Dispatch(first_site + static_cast<SiteId>(s), batch);
        }
      }
      const double ns = static_cast<double>(NowNs() - t0);
      if (rep == 0 || ns < best_ns) best_ns = ns;
      if (kind == 2) {
        coloc_bytes = 0;
        for (const BusOperatorStats& op : bus.OperatorStatsSnapshot()) {
          coloc_bytes += op.stats.bytes_estimate;
        }
      }
    }
    report->Layer(names[kind],
                   best_ns / static_cast<double>(std::max<size_t>(total, 1)),
                   "ns");
  }
  report->Layer("stream.colocation.bytes", static_cast<double>(coloc_bytes),
                 "bytes");
}

namespace {

double MsSince(uint64_t t0) { return static_cast<double>(NowNs() - t0) * 1e-6; }

}  // namespace

void MeasureOperatorCalls(
    StreamingServer* server,
    const std::function<std::unique_ptr<StreamingServer>()>& make_server,
    const std::string& dir, Report* report) {
  constexpr int kRepeats = 5;
  std::filesystem::remove_all(dir);
  std::vector<double> checkpoint_ms, restore_ms, stats_ms, prom_ms;
  uint64_t checkpoint_bytes = 0;
  size_t stats_bytes = 0;
  size_t prom_bytes = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const std::string gen_dir = dir + "/" + std::to_string(rep);
    uint64_t t0 = NowNs();
    const Status saved = server->Checkpoint(gen_dir);
    checkpoint_ms.push_back(MsSince(t0));
    report->CountCall(saved.ok());
    report->Check(saved.ok(), "serve.checkpoint: " + saved.ToString());
    checkpoint_bytes = DirectoryBytes(gen_dir);

    std::unique_ptr<StreamingServer> fresh = make_server();
    t0 = NowNs();
    const Status restored = fresh->Restore(gen_dir);
    restore_ms.push_back(MsSince(t0));
    report->CountCall(restored.ok());
    report->Check(restored.ok(), "serve.restore: " + restored.ToString());

    t0 = NowNs();
    stats_bytes = server->StatsJson().size();
    stats_ms.push_back(MsSince(t0));
    t0 = NowNs();
    prom_bytes = server->MetricsPrometheus().size();
    prom_ms.push_back(MsSince(t0));
  }
  std::filesystem::remove_all(dir);
  report->Layer("serve.checkpoint.ms", Median(checkpoint_ms), "ms");
  report->Layer("serve.checkpoint.bytes", static_cast<double>(checkpoint_bytes),
                 "bytes");
  report->Layer("serve.restore.ms", Median(restore_ms), "ms");
  report->Layer("serve.stats.ms", Median(stats_ms), "ms");
  report->Layer("serve.stats.bytes", static_cast<double>(stats_bytes), "bytes");
  report->Layer("obs.prometheus.ms", Median(prom_ms), "ms");
  report->Layer("obs.prometheus.bytes", static_cast<double>(prom_bytes),
                 "bytes");
}

void ReportFilterState(const StreamingServer& server, SiteId first_site,
                       int num_sites, Report* report) {
  size_t active = 0, compressed = 0, hibernated = 0, bytes = 0;
  for (int s = 0; s < num_sites; ++s) {
    const auto* filter = dynamic_cast<const FactoredParticleFilter*>(
        &server.FindSite(first_site + static_cast<SiteId>(s))->engine().filter());
    active += filter->NumActiveObjects();
    compressed += filter->NumCompressedObjects();
    hibernated += filter->NumHibernatedObjects();
    bytes += filter->ApproxMemoryBytes();
  }
  report->Layer("pf.objects.active", static_cast<double>(active), "count");
  report->Layer("pf.objects.compressed", static_cast<double>(compressed),
                 "count");
  report->Layer("pf.objects.hibernated", static_cast<double>(hibernated),
                 "count");
  report->Layer("pf.memory_mb",
                 static_cast<double>(bytes) / (1024.0 * 1024.0), "MB");
}

ClosedLoopPass RunClosedLoop(
    const std::function<std::unique_ptr<StreamingServer>()>& setup,
    SiteId site, const std::vector<ServeRecord>& records,
    const std::vector<size_t>& batch_begin,
    const std::map<int64_t, size_t>& closing, double epoch_seconds) {
  constexpr size_t kScrapeEvery = 64;  // Record-seconds between Stats().
  ClosedLoopPass pass;
  pass.capture = {};
  std::vector<SiteCapture> captures(1);
  const uint64_t setup_t0 = NowNs();
  pass.server = setup();
  CaptureEvents(pass.server.get(), &captures, site, epoch_seconds);
  pass.setup_s = static_cast<double>(NowNs() - setup_t0) * 1e-9;

  std::vector<uint64_t> sent_ns(records.size(), 0);
  std::vector<uint64_t> pumped_ns(batch_begin.size(), 0);
  StreamingServer* server = pass.server.get();
  const double cpu0 = CpuSeconds();
  const uint64_t t0 = NowNs();
  for (size_t b = 0; b < batch_begin.size(); ++b) {
    const size_t end = b + 1 < batch_begin.size() ? batch_begin[b + 1]
                                                  : records.size();
    spans::Scope root("e2e.second", b);
    const uint64_t tb = NowNs();
    for (size_t i = batch_begin[b]; i < end; ++i) {
      sent_ns[i] = NowNs();
      spans::Scope span("serve.ingest", i);
      if (!server->Ingest(records[i])) ++pass.ingest_refused;
    }
    if (b % kScrapeEvery == 0 && spans::Enabled()) {
      spans::Scope span("serve.stats", b);
      for (const ShardStatsSnapshot& shard : server->Stats().shards) {
        pass.queue_depth_max = std::max<uint64_t>(
            pass.queue_depth_max, shard.queue.pushed - shard.queue.popped);
      }
    }
    {
      spans::Scope span("serve.pump", b);
      server->Pump();
    }
    pumped_ns[b] = NowNs();
    pass.epoch_ms[static_cast<int64_t>(b)] =
        static_cast<double>(pumped_ns[b] - tb) * 1e-6;
  }
  {
    spans::Scope span("serve.flush", batch_begin.size());
    server->Flush();
  }
  pass.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  pass.cpu_s = CpuSeconds() - cpu0;
  pass.capture = std::move(captures[0]);
  // Closed loop: the Pump() that processes the closing record dispatches
  // the epoch's events (if any) before it returns.
  for (const auto& [step, i] : closing) {
    const size_t b = static_cast<size_t>(
        std::upper_bound(batch_begin.begin(), batch_begin.end(), i) -
        batch_begin.begin() - 1);
    pass.record_ms[step] = static_cast<double>(pumped_ns[b] - sent_ns[i]) * 1e-6;
  }
  return pass;
}

namespace {

void ReportClosedLoop(const std::vector<ClosedLoopPass>& plain,
                      size_t readings, Report* report) {
  const double best_wall = BestOf(plain, &ClosedLoopPass::wall_s);
  const std::vector<double> epoch_min =
      FastestPerKey(plain, &ClosedLoopPass::epoch_ms);
  const std::vector<double> record_min =
      FastestPerKey(plain, &ClosedLoopPass::record_ms);
  report->Metric("readings_per_s", static_cast<double>(readings) / best_wall,
                 "readings/s");
  report->Metric("epoch_latency_ms_p50", Quantile(epoch_min, 0.5), "ms");
  report->Metric("epoch_latency_ms_p99", Quantile(epoch_min, 0.99), "ms");
  report->Metric("record_latency_ms_p50", Quantile(record_min, 0.5), "ms");
  report->Metric("record_latency_ms_p99", Quantile(record_min, 0.99), "ms");
  std::fprintf(stderr,
               "closed loop: %zu passes, %zu epoch samples, %zu record "
               "samples, best pass %.3f s\n",
               plain.size(), epoch_min.size(), record_min.size(), best_wall);
}

}  // namespace

ClosedLoopRuns RunTimedClosedLoop(
    const Args& args,
    const std::function<std::unique_ptr<StreamingServer>()>& setup,
    SiteId site, const std::vector<ServeRecord>& records,
    const std::vector<size_t>& batch_begin,
    const std::map<int64_t, size_t>& closing, double epoch_seconds,
    double run_seconds_per_pass, Report* report) {
  ClosedLoopRuns runs;
  const int passes = TimedPasses(args, run_seconds_per_pass);
  const int kinds = args.trace ? 3 : 1;
  for (int k = 0; k < passes * kinds; ++k) {
    const int kind = k % kinds;
    spans::SetEnabled(kind == 1);
    obs::SetTelemetryEnabled(kind != 2);
    ClosedLoopPass pass = RunClosedLoop(setup, site, records, batch_begin,
                                        closing, epoch_seconds);
    spans::SetEnabled(false);
    obs::SetTelemetryEnabled(true);
    if (k == 0) {
      report->Metric("setup_s", pass.setup_s, "s");
      // Later passes repeat the same work; only the allocator's reuse of
      // dead servers' memory would move the high-water mark after this.
      report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    }
    report->AddAttempted(records.size());
    report->AddFailed(pass.ingest_refused);
    // Drop the server now: its filter holds the whole site's particles.
    if (!runs.plain.empty() || kind != 0) pass.server.reset();
    (kind == 0 ? runs.plain : kind == 1 ? runs.traced : runs.telemetry_off)
        .push_back(std::move(pass));
  }
  ReportClosedLoop(runs.plain, CountReadings(records), report);
  return runs;
}

void ReportClosedLoopLayers(const ClosedLoopRuns& runs,
                            const ClosedLoopPass& lane1, size_t readings,
                            int lanes, Report* report) {
  const double best_plain = BestOf(runs.plain, &ClosedLoopPass::wall_s);
  const ClosedLoopPass* best = &runs.plain.front();
  for (const ClosedLoopPass& p : runs.plain) {
    if (p.wall_s < best->wall_s) best = &p;
  }
  report->Layer("trace.overhead_ratio",
                BestOf(runs.traced, &ClosedLoopPass::wall_s) / best_plain,
                "ratio");
  // On-throughput over off-throughput: below 1 is telemetry overhead.
  report->Layer("obs.telemetry_on_off_ratio",
                BestOf(runs.telemetry_off, &ClosedLoopPass::wall_s) /
                    best_plain,
                "ratio");
  const double lane1_rate = static_cast<double>(readings) / lane1.wall_s;
  report->Layer("pf.lane1_readings_per_s", lane1_rate, "readings/s");
  report->Layer("pf.parallel_speedup",
                 static_cast<double>(readings) / best_plain / lane1_rate,
                 "ratio");
  // One site on one shard: the lanes are the filter pool's.
  const double efficiency = best->cpu_s / (best->wall_s * lanes);
  report->Layer("pf.parallel_efficiency", efficiency, "ratio");
  report->Layer("serve.pool.efficiency", efficiency, "ratio");
  report->Layer("bench.generator_lag_ms_max", 0.0, "ms");
  uint64_t depth = 0;
  for (const ClosedLoopPass& p : runs.traced) {
    depth = std::max(depth, p.queue_depth_max);
  }
  report->Layer("serve.queue.depth_max", static_cast<double>(depth), "count");
  report->Layer("serve.ingest.us_p50",
                 Median(spans::Durations("serve.ingest")) * 1e3, "us");
}


void WriteSpanSummary(const std::string& path) {
  std::ofstream os(path);
  os << "{";
  std::fprintf(stderr, "%-34s %10s %12s %12s\n", "span", "count", "total_ms",
               "self_ms");
  bool first = true;
  for (const auto& [name, t] : spans::Summary()) {
    std::fprintf(stderr, "%-34s %10llu %12.3f %12.3f\n", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_ms,
                 t.self_ms);
    os << (first ? "\n" : ",\n") << "  \"" << name << "\": {\"count\": "
       << t.count << ", \"total_ms\": " << t.total_ms
       << ", \"self_ms\": " << t.self_ms << "}";
    first = false;
  }
  os << "\n}\n";
}

}  // namespace perfbench

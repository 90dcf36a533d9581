// Shared pieces of the end-to-end benchmark: clocks, quantiles, the result
// report, span tracing around layer calls, record/event helpers and the
// hand-driven component chain used by the traced run.
//
// Everything here calls the library only through its public headers; the
// benchmark never patches or subclasses program code.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "serve/server.h"
#include "sim/trace.h"

namespace perfbench {

using rfid::LocationEvent;
using rfid::ServeRecord;
using rfid::SiteId;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< Scratch space for checkpoints and traces.
};

// ------------------------------------------------------------- timing ----
uint64_t NowNs();                ///< steady_clock, nanoseconds.
double CpuSeconds();             ///< Process CPU time (all threads).
double PeakRssMb();              ///< getrusage maximum resident set.
/// Linear-interpolated quantile of `v` (copied, sorted); 0 when empty.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
/// Seconds since the benchmark process started (progress lines).
double Elapsed();
/// Pool width the host allows: min(cap, hardware threads), at least 1.
int LanesUpTo(int cap);
/// Timed passes of each kind in a run: args.seconds over the workload's run
/// time per pass, rounded, at least 3; half that (rounded up, at least
/// 3) in the traced run, which runs three kinds. It depends on nothing
/// measured, so every run with the same --seconds and --trace takes its
/// minima over the same number of passes.
int TimedPasses(const Args& args, double run_seconds_per_pass);
/// Summed size of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// The smallest `field` across `passes`.
template <typename Pass>
double BestOf(const std::vector<Pass>& passes, double Pass::*field) {
  double best = passes.front().*field;
  for (const Pass& p : passes) best = std::min(best, p.*field);
  return best;
}

/// Each key's smallest `field` value across `passes`, in key order (keys of
/// the first pass). Every pass does identical work per key (epoch), so this
/// keeps the cost the program causes itself and drops stalls the host
/// imposed on one pass.
template <typename Pass, typename Key>
std::vector<double> FastestPerKey(const std::vector<Pass>& passes,
                                  std::map<Key, double> Pass::*field) {
  std::map<Key, double> best = passes.front().*field;
  for (const Pass& p : passes) {
    for (auto& [key, value] : best) {
      const auto it = (p.*field).find(key);
      if (it != (p.*field).end()) value = std::min(value, it->second);
    }
  }
  std::vector<double> out;
  out.reserve(best.size());
  for (const auto& [key, value] : best) out.push_back(value);
  return out;
}

// ------------------------------------------------------------- report ----
/// The run's result: end-to-end and per-layer metrics in insertion order,
/// operation counts and the named reasons of every failed output check.
class Report {
 public:
  /// An end-to-end metric (printed by the untraced run).
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A per-layer metric (printed by the traced run).
  void Layer(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check. The run still prints its result, with
  /// "correct": false, and exits non-zero.
  void Fail(const std::string& reason);
  /// Convenience: Fail(reason) unless `ok`.
  void Check(bool ok, const std::string& reason) {
    if (!ok) Fail(reason);
  }
  /// Operations offered to the program (records, checkpoints, restores)
  /// and those it refused (Ingest() returning false, a failed Status).
  void AddAttempted(uint64_t n) { attempted_ += n; }
  void AddFailed(uint64_t n) { failed_ += n; }
  /// One checkpoint or restore call: attempted, and failed unless `ok`.
  void CountCall(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  bool correct() const { return failures_.empty(); }
  /// One JSON object on one line (the benchmark's last stdout line) with
  /// the per-layer metrics when `per_layer`, else the end-to-end ones.
  std::string Json(bool per_layer) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  void Add(std::vector<Entry>* to, const std::string& name, double value,
           const std::string& unit);

  std::vector<Entry> end_to_end_;
  std::vector<Entry> per_layer_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// -------------------------------------------------------------- spans ----
// Spans recorded from the benchmark's own files around each call into a
// layer: name, start, end, parent (enclosing span on the same thread) and
// the epoch or record id served. Kept in memory; written when the run ends.
namespace spans {
void SetEnabled(bool enabled);
bool Enabled();
/// RAII span; a no-op while spans are disabled.
class Scope {
 public:
  Scope(const char* name, uint64_t id);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int64_t index_ = -1;
};
/// Per-name totals: count, summed duration and summed self time (duration
/// minus the time covered by child spans).
struct LayerTime {
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, LayerTime> Summary();
/// Durations (ms) of every span named `name`.
std::vector<double> Durations(const std::string& name);
/// Chrome trace-event JSON of all spans (parent and id as args).
bool WriteChromeJson(const std::string& path);
void Clear();
}  // namespace spans

// ------------------------------------------------------------ records ----
/// Flattens a simulated trace into one site's raw records (location report,
/// then readings, per epoch) with `time_offset` added to every timestamp.
/// `batch_begin`, when given, receives the index where each epoch starts.
void AppendTraceRecords(const rfid::SimulatedTrace& trace, SiteId site,
                        double time_offset, std::vector<ServeRecord>* out,
                        std::vector<size_t>* batch_begin = nullptr);

size_t CountReadings(const std::vector<ServeRecord>& records);

/// For a site's records in send order, the index of the record whose arrival
/// let each epoch close (epoch step -> record index), computed with a
/// StreamSynchronizer configured like the server's. Epochs closed only by
/// the end-of-stream flush are absent.
std::map<int64_t, size_t> ClosingRecords(
    const std::vector<ServeRecord>& records, double epoch_seconds,
    double max_lateness_seconds);

/// Exact (bitwise) comparison of two event streams; `why` names the first
/// difference.
bool SameEvents(const std::vector<LocationEvent>& a,
                const std::vector<LocationEvent>& b, std::string* why);

/// One site's captured output: every raw event, plus the wall time at which
/// the first event of each epoch reached its callback.
struct SiteCapture {
  std::vector<LocationEvent> events;
  std::vector<std::pair<int64_t, uint64_t>> epoch_first_ns;  ///< (step, ns)
};
/// Subscribes a raw-event callback filling captures[site - first_site].
/// Each site is dispatched by one lane at a time, so no lock is needed.
void CaptureEvents(rfid::StreamingServer* server,
                   std::vector<SiteCapture>* captures, SiteId first_site,
                   double epoch_seconds);

/// The seed the server derives for a site's engine (config seed mixed with
/// the site id), so a hand-built engine replays the site bit for bit.
rfid::EngineConfig SiteEngineConfig(const rfid::EngineConfig& engine,
                                    SiteId site);

/// Mean XY error of the site's final estimates against ground truth;
/// `missing` counts truth tags without an estimate.
double MeanXyError(const rfid::StreamingServer& server, SiteId site,
                   const rfid::GroundTruth& truth, double time,
                   size_t* missing);

// ------------------------------------------------------ traced chain ----
/// Per-layer samples from driving one site's records through the
/// component chain by hand.
struct ChainResult {
  std::vector<LocationEvent> events;
  std::vector<double> observe_ms;  ///< FactoredParticleFilter::ObserveEpoch
  std::vector<double> emitter_us;  ///< EventEmitter::OnEpoch
  std::vector<double> engine_ms;   ///< RfidInferenceEngine::ProcessEpoch
  uint64_t particle_updates = 0;
};
/// StreamSynchronizer -> (RfidInferenceEngine on even epochs,
/// FactoredParticleFilter + EventEmitter on odd ones) -> SubscriptionBus.
/// Records before `measure_from` only warm the chain up: spans, samples and
/// events start there.
ChainResult RunChain(rfid::WorldModel model, const rfid::EngineConfig& engine,
                     SiteId site, const std::vector<ServeRecord>& records,
                     size_t measure_from, double epoch_seconds,
                     double max_lateness_seconds, rfid::SubscriptionBus* bus);

/// One site's input to ReportChains.
struct ChainSite {
  SiteId site = 0;
  std::function<rfid::WorldModel()> model;
  const std::vector<ServeRecord>* records = nullptr;
  size_t measure_from = 0;
  const std::vector<LocationEvent>* expected = nullptr;  ///< The server's.
};
/// Runs the chain over each site with spans on, checks its events against
/// the server's, and reports the pf, core and emitter per-layer metrics
/// pooled over sites. `engine` is the server's engine template.
void ReportChains(const std::vector<ChainSite>& sites,
                  const rfid::EngineConfig& engine, double epoch_seconds,
                  double max_lateness_seconds, Report* report);

/// Drives StreamSynchronizer::Push + PollWatermark alone over `records`
/// `repeats` times; reports ns per record and epochs closed per pass.
void MeasureSynchronizer(const std::vector<ServeRecord>& records,
                         double epoch_seconds, double max_lateness_seconds,
                         int repeats, Report* report);

/// Dispatches the recorded events of each site to one subscription kind at
/// a time on a fresh bus; reports ns per event per kind and colocation
/// state bytes.
void MeasureBusOperators(const std::vector<std::vector<LocationEvent>>& per_site,
                         SiteId first_site, Report* report);

/// Times Checkpoint/Restore/StatsJson/MetricsPrometheus on a quiescent
/// server and reports their times and sizes. `make_server` builds a fresh
/// server with the same sites and config (the restore target).
void MeasureOperatorCalls(
    rfid::StreamingServer* server,
    const std::function<std::unique_ptr<rfid::StreamingServer>()>& make_server,
    const std::string& dir, Report* report);

/// Filter counters summed over sites [first_site, first_site + num_sites)
/// at the end of a pass.
void ReportFilterState(const rfid::StreamingServer& server, SiteId first_site,
                       int num_sites, Report* report);

/// Per-span count, total and self time, as lines on stderr and as a JSON
/// object written to `path`.
void WriteSpanSummary(const std::string& path);

/// Query parameters shared by the many-site subscriptions, their plain
/// references and the per-kind dispatch probe. Fire-code weights are
/// integers, so window sums are exact in any order.
constexpr double kMinChangeFeet = 0.5;
rfid::FireCodeConfig FireConfig();
double TagWeight(rfid::TagId tag);

// -------------------------------------------------------- closed loop ----
/// One closed-loop pass: one record-second is ingested, then Pump() runs
/// and dispatches that second's closed epochs, before the next second.
struct ClosedLoopPass {
  double setup_s = 0.0;  ///< setup() plus the capture subscription.
  double wall_s = 0.0;   ///< First ingest to Flush() return.
  double cpu_s = 0.0;    ///< Process CPU time over the same interval.
  uint64_t ingest_refused = 0;          ///< Ingest() calls returning false.
  std::map<int64_t, double> epoch_ms;   ///< Record-second index -> ms.
  /// Epoch step -> closing record's Ingest() to the return of the Pump()
  /// that dispatched the epoch's events.
  std::map<int64_t, double> record_ms;
  uint64_t queue_depth_max = 0;         ///< Largest depth at scrape points.
  SiteCapture capture;
  std::unique_ptr<rfid::StreamingServer> server;  ///< Kept for probes.
};
/// `setup` builds the server (Create, and Restore where the workload uses
/// it). `batch_begin` splits `records` into record-seconds; `closing` maps
/// epoch step to its closing record (see ClosingRecords).
ClosedLoopPass RunClosedLoop(
    const std::function<std::unique_ptr<rfid::StreamingServer>()>& setup,
    SiteId site, const std::vector<ServeRecord>& records,
    const std::vector<size_t>& batch_begin,
    const std::map<int64_t, size_t>& closing, double epoch_seconds);
/// Timed closed-loop passes of one workload: TimedPasses(args,
/// run_seconds_per_pass) plain passes, and in the traced run as many of
/// each other kind, rotating plain, spans on, telemetry off — so host drift
/// hits all three alike and each kind's best is taken over the same count. The first pass's
/// set-up, the first of the process, is reported as the cold `setup_s`;
/// throughput comes from the best plain pass, and latencies are quantiles
/// over epochs of each epoch's fastest time across plain passes (every pass
/// does identical work). Only the first plain pass keeps its server.
struct ClosedLoopRuns {
  std::vector<ClosedLoopPass> plain, traced, telemetry_off;
};
ClosedLoopRuns RunTimedClosedLoop(
    const Args& args,
    const std::function<std::unique_ptr<rfid::StreamingServer>()>& setup,
    SiteId site, const std::vector<ServeRecord>& records,
    const std::vector<size_t>& batch_begin,
    const std::map<int64_t, size_t>& closing, double epoch_seconds,
    double run_seconds_per_pass, Report* report);
/// Per-layer metrics read off the timed passes: tracing overhead, telemetry
/// on/off ratio, the 1-lane baseline and parallel efficiency, ingest time
/// and queue depth.
void ReportClosedLoopLayers(const ClosedLoopRuns& runs,
                            const ClosedLoopPass& lane1, size_t readings,
                            int lanes, Report* report);

}  // namespace perfbench

// idle_site: one 10,000-tag site where ~5% of the tags see traffic, with
// elastic budgets and hibernation on, at 1 lane.
//
// Once per run a priming sweep walks the whole site through a server and a
// checkpoint is written. Each timed pass restores a fresh server from that
// checkpoint (its set-up), then loiters over the first 5% of the shelves for
// over 1000 epochs, closed loop. Cost must track the active tags, so the
// index probe, hibernation, lazy remap, capacity reclaim and snapshot
// decoding do the work, while the Case-1 fan-out does little.
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common.h"
#include "core/experiment.h"
#include "model/spherical_sensor.h"
#include "pf/factored_filter.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace rfid;

constexpr SiteId kSite = 1;
constexpr double kEpochSeconds = 1.0;
constexpr double kLatenessSeconds = 2.0;
constexpr int kActiveShelves = 5;  // Of 100: the 5% that see traffic.
/// Run time per timed pass: --seconds / this = timed passes. A pass takes
/// ~1.4 s on a 4-core host; the rest pays for priming, the checkpoint and
/// the uninterrupted reference run.
constexpr double kRunSecondsPerPass = 3.0;

SphericalSensorParams SensorParams() {
  SphericalSensorParams p;
  p.peak_read_rate = 0.9;
  p.range = 3.0;  // Omnidirectional, ~5.7 ft usable reach.
  return p;
}

struct Input {
  WarehouseLayout layout;
  SimulatedTrace prime;
  SimulatedTrace loiter;
  std::vector<ServeRecord> prime_records;
  std::vector<size_t> prime_batches;
  std::vector<ServeRecord> records;  ///< Loiter phase (the timed part).
  std::vector<size_t> batch_begin;
  double end_time = 0.0;
};

Input MakeInput(uint64_t seed) {
  Input in;
  WarehouseConfig wc;
  wc.num_shelves = 100;
  wc.objects_per_shelf = 100;  // Dense shelves: ~10 tags per foot.
  wc.shelf_tags_per_shelf = 1;
  in.layout = BuildWarehouse(wc).value();
  const SphericalSensorModel sensor(SensorParams());

  // Priming sweep: one fast pass over the whole site.
  RobotConfig prime_robot;
  prime_robot.speed = 1.0;
  TraceGenerator prime_gen(in.layout, prime_robot, {}, sensor, seed);
  in.prime = prime_gen.Generate();
  AppendTraceRecords(in.prime, kSite, 0.0, &in.prime_records,
                     &in.prime_batches);

  // Loiter: slow passes over the active shelves only; the rest of the site
  // sees no traffic.
  WarehouseLayout active = in.layout;
  active.config.num_shelves = kActiveShelves;
  active.shelf_boxes.resize(kActiveShelves);
  const double active_end = active.TotalYExtent();
  active.objects.clear();
  for (const ObjectPlacement& o : in.layout.objects) {
    if (o.position.y <= active_end) active.objects.push_back(o);
  }
  active.shelf_tags.clear();
  for (const ShelfTag& t : in.layout.shelf_tags) {
    if (t.location.y <= active_end) active.shelf_tags.push_back(t);
  }
  RobotConfig loiter_robot;
  loiter_robot.speed = 0.2;
  loiter_robot.rounds = 8;
  TraceGenerator loiter_gen(active, loiter_robot, {}, sensor, seed + 1);
  in.loiter = loiter_gen.Generate();
  const double offset = in.prime.epochs.back().observations.time + 1.0;
  AppendTraceRecords(in.loiter, kSite, offset, &in.records, &in.batch_begin);
  in.end_time = in.loiter.epochs.back().observations.time + offset;
  return in;
}

WorldModel Model(const Input& in) {
  ExperimentModelOptions options;
  options.motion.delta = {};
  options.motion.sigma = {0.05, 0.15, 0.0};
  return MakeWorldModel(
      in.layout, std::make_unique<SphericalSensorModel>(SensorParams()),
      options);
}

ServeConfig Config() {
  ServeConfig c;
  c.num_shards = 1;
  c.num_threads = 1;
  c.queue_capacity = 4096;
  c.pump_batch = 4096;
  c.epoch_seconds = kEpochSeconds;
  c.max_lateness_seconds = kLatenessSeconds;
  FactoredFilterConfig& f = c.engine.factored;
  f.num_reader_particles = 60;
  f.num_object_particles = 1000;
  f.min_object_particles = 50;
  f.compression.hibernate_after_epochs = 60;
  f.num_decompress_particles = 50;
  f.seed = 71;
  f.num_threads = 1;
  return c;
}

std::unique_ptr<StreamingServer> MakeServer(const Input& in) {
  std::vector<SiteSpec> specs;
  specs.push_back({kSite, Model(in)});
  return StreamingServer::Create(std::move(specs), Config()).value();
}

/// Closed-loop feed of record-seconds without timing (priming); returns
/// how many records Ingest() refused.
size_t Feed(StreamingServer* server, const std::vector<ServeRecord>& records,
            const std::vector<size_t>& batch_begin) {
  size_t refused = 0;
  for (size_t b = 0; b < batch_begin.size(); ++b) {
    const size_t end =
        b + 1 < batch_begin.size() ? batch_begin[b + 1] : records.size();
    for (size_t i = batch_begin[b]; i < end; ++i) {
      if (!server->Ingest(records[i])) ++refused;
    }
    server->Pump();
  }
  return refused;
}

/// Tracked tags farther than the sensor's maximum range from every loiter
/// reader position must all be hibernated: no reading and no negative
/// evidence can reach them.
void CheckHibernation(const Input& in, const StreamingServer& server,
                      Report* report) {
  const auto* filter = dynamic_cast<const FactoredParticleFilter*>(
      &server.FindSite(kSite)->engine().filter());
  const double range = SphericalSensorModel(SensorParams()).MaxRange();
  size_t far = 0;
  size_t awake = 0;
  for (const ObjectPlacement& o : in.layout.objects) {
    const FactoredParticleFilter::ObjectState* state = filter->FindObject(o.tag);
    if (state == nullptr) continue;
    bool near = false;
    for (const SimEpoch& e : in.loiter.epochs) {
      if ((e.true_reader_pose.position - o.position).Norm() <= range) {
        near = true;
        break;
      }
    }
    if (near) continue;
    ++far;
    if (!state->hibernated) ++awake;
  }
  std::fprintf(stderr, "idle_site: %zu tracked tags out of reach, %zu awake\n",
               far, awake);
  report->Check(far > 0, "idle_site: no tracked tag is out of the loiter reach");
  report->Check(awake == 0, "idle_site: " + std::to_string(awake) +
                                " tags out of reach are not hibernated");
}

}  // namespace

void RunIdleSite(const Args& args, Report* report) {
  const Input in = MakeInput(args.seed);
  const auto closing =
      ClosingRecords(in.records, kEpochSeconds, kLatenessSeconds);
  std::fprintf(stderr,
               "[%.1fs] idle_site: %zu tags, prime %zu epochs / %zu records, loiter "
               "%zu epochs / %zu records\n",
               Elapsed(), in.layout.objects.size(), in.prime_batches.size(),
               in.prime_records.size(), in.batch_begin.size(),
               in.records.size());

  // Prime once, checkpoint, then continue uninterrupted: the events after
  // the checkpoint are what every restored pass must reproduce.
  const std::string dir = args.out_dir + "/idle_site_checkpoint";
  std::filesystem::remove_all(dir);
  std::vector<LocationEvent> reference;
  {
    std::unique_ptr<StreamingServer> server = MakeServer(in);
    std::vector<SiteCapture> capture(1);
    CaptureEvents(server.get(), &capture, kSite, kEpochSeconds);
    size_t refused = Feed(server.get(), in.prime_records, in.prime_batches);
    const Status saved = server->Checkpoint(dir);
    report->CountCall(saved.ok());
    report->Check(saved.ok(), "idle_site: checkpoint failed: " +
                                  saved.ToString());
    const size_t primed_events = capture[0].events.size();
    refused += Feed(server.get(), in.records, in.batch_begin);
    report->Check(refused == 0, "idle_site: the reference run's Ingest() "
                                "refused " + std::to_string(refused) +
                                " records");
    server->Flush();
    reference.assign(capture[0].events.begin() + primed_events,
                     capture[0].events.end());
  }
  std::fprintf(stderr, "[%.1fs] primed, checkpointed and replayed\n",
               Elapsed());

  const auto setup = [&in, &dir, report] {
    std::unique_ptr<StreamingServer> server = MakeServer(in);
    const Status restored = server->Restore(dir);
    report->CountCall(restored.ok());
    report->Check(restored.ok(),
                  "idle_site: restore failed: " + restored.ToString());
    return server;
  };
  const ClosedLoopRuns runs =
      RunTimedClosedLoop(args, setup, kSite, in.records, in.batch_begin,
                         closing, kEpochSeconds, kRunSecondsPerPass, report);
  std::string why;
  for (const ClosedLoopPass& p : runs.plain) {
    report->Check(SameEvents(p.capture.events, reference, &why),
                  "idle_site: events after Restore() differ from the "
                  "uninterrupted run: " + why);
  }
  report->Check(!reference.empty(), "idle_site: no events after the checkpoint");

  StreamingServer* server = runs.plain.front().server.get();
  CheckHibernation(in, *server, report);
  size_t missing = 0;
  const double error =
      MeanXyError(*server, kSite, in.prime.truth, in.end_time, &missing);
  std::fprintf(stderr, "location error %.4f ft, %zu tags never read\n", error,
               missing);
  report->Metric("location_error_ft", error, "ft");
  if (!args.trace) return;

  // 1 lane is the timed width here, so the 1-lane baseline is a plain pass.
  ReportClosedLoopLayers(runs, runs.plain.back(), CountReadings(in.records), 1,
                         report);
  ReportFilterState(*server, kSite, 1, report);
  MeasureOperatorCalls(server, [&in] { return MakeServer(in); },
                       args.out_dir + "/probe_checkpoint", report);
  std::vector<ServeRecord> all = in.prime_records;
  all.insert(all.end(), in.records.begin(), in.records.end());
  ReportChains({{kSite, [&in] { return Model(in); }, &all,
                 in.prime_records.size(), &reference}},
               Config().engine, kEpochSeconds, kLatenessSeconds, report);
  MeasureSynchronizer(in.records, kEpochSeconds, kLatenessSeconds, 5, report);
  MeasureBusOperators({reference}, kSite, report);
  WriteSpanSummary(args.out_dir + "/self_time_idle_site.json");
  spans::WriteChromeJson(args.out_dir + "/trace_idle_site.json");
}

}  // namespace perfbench

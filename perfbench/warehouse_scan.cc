// warehouse_scan: one 2000-tag site, two robot passes, the paper's
// 100 reader x 1000 object particles with the spatial index and belief
// compression on, the filter pool as wide as the host allows (at most 4),
// driven in a closed loop: one record-second per Pump().
//
// Almost all of the time is the factored filter's epoch update; the serving
// layer does little.
#include <cstdio>

#include "common.h"
#include "core/experiment.h"
#include "model/cone_sensor.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace rfid;

constexpr SiteId kSite = 1;
constexpr double kEpochSeconds = 1.0;
constexpr double kLatenessSeconds = 2.0;
/// Run time per timed pass: --seconds / this = timed passes. A pass takes
/// ~2.2 s on a 4-core host; the rest pays for input generation, the 1-lane
/// reference pass and the baseline.
constexpr double kRunSecondsPerPass = 3.6;

struct Input {
  WarehouseLayout layout;
  SimulatedTrace trace;
  std::vector<ServeRecord> records;
  std::vector<size_t> batch_begin;
  size_t readings = 0;
  double end_time = 0.0;
};

Input MakeInput(uint64_t seed) {
  Input in;
  WarehouseConfig wc;
  wc.num_shelves = 40;
  wc.objects_per_shelf = 50;
  wc.shelf_tags_per_shelf = 2;
  in.layout = BuildWarehouse(wc).value();
  RobotConfig robot;
  robot.rounds = 2;
  robot.speed = 0.2;
  TraceGenerator gen(in.layout, robot, {}, ConeSensorModel(), seed);
  in.trace = gen.Generate();
  AppendTraceRecords(in.trace, kSite, 0.0, &in.records, &in.batch_begin);
  in.readings = CountReadings(in.records);
  in.end_time = in.trace.epochs.back().observations.time;
  return in;
}

ExperimentModelOptions ModelOptions() {
  ExperimentModelOptions options;
  options.motion.delta = {};
  options.motion.sigma = {0.05, 0.15, 0.0};
  return options;
}

WorldModel Model(const Input& in) {
  return MakeWorldModel(in.layout, std::make_unique<ConeSensorModel>(),
                        ModelOptions());
}

ServeConfig Config(int filter_lanes) {
  ServeConfig c;
  c.num_shards = 1;
  c.num_threads = 1;
  c.queue_capacity = 4096;
  c.pump_batch = 4096;
  c.epoch_seconds = kEpochSeconds;
  c.max_lateness_seconds = kLatenessSeconds;
  c.engine.factored.num_reader_particles = 100;
  c.engine.factored.num_object_particles = 1000;
  c.engine.factored.seed = 51;
  c.engine.factored.num_threads = filter_lanes;
  c.engine.factored.compression.mode = CompressionMode::kUnseenEpochs;
  c.engine.factored.compression.compress_after_epochs = 8;
  return c;
}

std::unique_ptr<StreamingServer> MakeServer(const Input& in, int lanes) {
  std::vector<SiteSpec> specs;
  specs.push_back({kSite, Model(in)});
  return StreamingServer::Create(std::move(specs), Config(lanes)).value();
}

}  // namespace

void RunWarehouseScan(const Args& args, Report* report) {
  const Input in = MakeInput(args.seed);
  const auto closing =
      ClosingRecords(in.records, kEpochSeconds, kLatenessSeconds);
  const int lanes = LanesUpTo(4);
  std::fprintf(stderr,
               "warehouse_scan: %zu tags, %zu epochs, %zu records, %zu "
               "readings, %d filter lanes\n",
               in.layout.objects.size(), in.batch_begin.size(),
               in.records.size(), in.readings, lanes);
  const auto setup = [&in, lanes] { return MakeServer(in, lanes); };
  const ClosedLoopRuns runs =
      RunTimedClosedLoop(args, setup, kSite, in.records, in.batch_begin,
                         closing, kEpochSeconds, kRunSecondsPerPass, report);

  // Outputs at the timed width must equal a 1-lane pass, bit for bit.
  ClosedLoopPass lane1 =
      RunClosedLoop([&in] { return MakeServer(in, 1); }, kSite, in.records,
                    in.batch_begin, closing, kEpochSeconds);
  lane1.server.reset();
  const std::vector<LocationEvent>& events = lane1.capture.events;
  std::string why;
  for (const ClosedLoopPass& p : runs.plain) {
    report->Check(SameEvents(p.capture.events, events, &why),
                  "warehouse_scan: events at " + std::to_string(lanes) +
                      " lanes differ from the 1-lane pass: " + why);
  }
  report->Check(!events.empty(), "warehouse_scan: no events emitted");

  // Accuracy: every tag estimated, and below the uniform-sampling baseline
  // (mean of samples) on the same trace.
  StreamingServer* server = runs.plain.front().server.get();
  size_t missing = 0;
  const double error =
      MeanXyError(*server, kSite, in.trace.truth, in.end_time, &missing);
  report->Check(missing == 0, "warehouse_scan: " + std::to_string(missing) +
                                  " tags have no estimate");
  UniformBaselineConfig ub_config;
  ub_config.mode = UniformEstimateMode::kMeanOfSamples;
  const ConeSensorModel sensor;
  UniformBaseline uniform(ub_config, &sensor, in.layout.MakeShelfRegions());
  const double uniform_error =
      RunUniformOnTrace(&uniform, in.trace).errors.MeanXY();
  std::fprintf(stderr, "location error %.4f ft, uniform baseline %.4f ft\n",
               error, uniform_error);
  report->Check(error < uniform_error,
                "warehouse_scan: location error is not below the uniform "
                "baseline");
  report->Metric("location_error_ft", error, "ft");
  if (!args.trace) return;

  ReportClosedLoopLayers(runs, lane1, in.readings, lanes, report);
  ReportFilterState(*server, kSite, 1, report);
  MeasureOperatorCalls(server, setup, args.out_dir + "/probe_checkpoint",
                       report);
  ReportChains({{kSite, [&in] { return Model(in); }, &in.records, 0, &events}},
               Config(lanes).engine, kEpochSeconds, kLatenessSeconds, report);
  MeasureSynchronizer(in.records, kEpochSeconds, kLatenessSeconds, 5, report);
  MeasureBusOperators({events}, kSite, report);
  WriteSpanSummary(args.out_dir + "/self_time_warehouse_scan.json");
  spans::WriteChromeJson(args.out_dir + "/trace_warehouse_scan.json");
}

}  // namespace perfbench

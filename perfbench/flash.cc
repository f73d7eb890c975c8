// flash_crowd: the A9 front-door step under a closed-loop crowd.
//
// Each world is two Patia nodes behind a FrontDoor, driven by a
// ClientSwarm of 4096 sessions with 200 ms think time, several times the
// service capacity. The Table-2 shed rules, batched supervised ORB
// dispatch and a TelemetryLog with its flusher thread are all live. The
// client thread drives the event loop in fixed simulated slices; a run
// plays whole worlds, one seed each, until its time is used. Patia, net,
// os, adapt and obs do all the work; storage and query do none.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "net/loadgen.h"
#include "obs/blackbox/log.h"
#include "obs/blackbox/reader.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/tracectx.h"
#include "patia/frontdoor.h"
#include "patia/patia.h"

namespace perfbench {
namespace {

using namespace dbm;

constexpr uint64_t kSessions = 4096;
constexpr SimTime kSlice = Millis(50);
// The shed rules flip about every 160 ms under this crowd, so an 8 s
// horizon cycles the loop dozens of times per world.
constexpr SimTime kHorizon = dbm::Seconds(8);
constexpr SimTime kStopAt = dbm::Seconds(12);
constexpr SimTime kDrainUntil = dbm::Seconds(20);

/// A RequestSink decorator on the benchmark side: counts verdicts,
/// checks that each admitted request's `done` fires exactly once,
/// records simulated latency, and spans every Submit.
class CheckedSink : public net::RequestSink {
 public:
  CheckedSink(net::RequestSink* inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  Status Submit(uint64_t session, const std::string& client,
                const std::string& resource, DoneFn done) override {
    const size_t id = fired_.size();
    fired_.push_back(0);
    admitted_.push_back(0);
    DoneFn wrapped = [this, id, done = std::move(done)](const Completion& c) {
      ++fired_[id];
      if (c.served) {
        ++served_;
        latency_ms_.push_back(static_cast<double>(c.completed_at -
                                                  c.issued_at) /
                              1e3);
      }
      done(c);
    };
    SpanRecorder::Scope span(spans_, "frontdoor.submit");
    Status st = inner_->Submit(session, client, resource, std::move(wrapped));
    if (st.ok()) admitted_[id] = 1;
    return st;
  }

  /// Submits whose `done` fired the wrong number of times, plus admitted
  /// requests that failed downstream.
  uint64_t Wrong() const {
    uint64_t wrong = 0;
    for (size_t i = 0; i < fired_.size(); ++i) {
      if (fired_[i] != admitted_[i]) ++wrong;
    }
    return wrong;
  }
  uint64_t submits() const { return fired_.size(); }
  uint64_t served() const { return served_; }
  const std::vector<double>& latency_ms() const { return latency_ms_; }

 private:
  net::RequestSink* inner_;
  SpanRecorder* spans_;
  std::vector<uint8_t> fired_;     // per submit: times `done` fired
  std::vector<uint8_t> admitted_;  // per submit: 1 when admitted
  uint64_t served_ = 0;
  std::vector<double> latency_ms_;
};

/// Everything one world contributes to the run's figures.
struct WorldResult {
  double setup_s = 0;
  double host_s = 0;  // inside EventLoop::RunUntil
  uint64_t events = 0;
  uint64_t issued = 0, served = 0, retries = 0, wrong = 0, failed = 0;
  patia::FrontDoor::Stats door;
  uint64_t invoke_cycles = 0;
  uint64_t enactments = 0, reversals = 0;
  obs::blackbox::TelemetryLogStats log;
  double stop_ms = 0;
  std::vector<double> latency_ms;
};

/// The level a "SWITCH -> shed.N" decision moves to (-1 if none).
int ShedTarget(const char* action) {
  const char* p = std::strstr(action, "shed.");
  return p == nullptr ? -1 : std::atoi(p + 5);
}

WorldResult RunWorld(Context* ctx, uint64_t world) {
  Report& rep = ctx->report;
  WorldResult out;
  const int64_t t0 = NowNs();
  // Fresh simulated clock: stale samples would sit in this world's future.
  obs::TimeSeriesStore::Default().ResetAll();
  obs::Tracer::Default().Clear();
  const uint64_t cycles0 = CounterValue("admission.invoke_cycles");

  EventLoop loop;
  net::Network net(&loop);
  adapt::MetricBus bus;
  net.AddDevice({"node1", net::DeviceClass::kServer, 1.0, -1, 0, 0});
  net.AddDevice({"node2", net::DeviceClass::kServer, 1.0, -1, 10, 0});
  for (int i = 0; i < 4; ++i) {
    const std::string edge = "edge" + std::to_string(i + 1);
    net.AddDevice({edge, net::DeviceClass::kLaptop, 0.5, -1, 5.0 + i, 5});
    net.Connect("node1", edge, {500000, Millis(1), "wired"});
    net.Connect("node2", edge, {500000, Millis(1), "wired"});
  }
  patia::PatiaServer server(&net, &bus);
  (void)server.AddNode("node1", {8, Millis(2)});
  (void)server.AddNode("node2", {8, Millis(2)});
  patia::Atom page;
  page.id = 7;
  page.name = "Page1.html";
  page.type = "html";
  page.variants = {{"Page1.html", 24000}, {"Page1.small.html", 2400}};
  (void)server.RegisterAtom(page, {"node1", "node2"});
  (void)server.AddConstraint(
      450, 7, "Select BEST(node1.Page1.html, node2.Page1.html)");

  patia::FrontDoorOptions fd;
  fd.queue_capacity = 256;
  fd.session_inflight_limit = 4;
  fd.batch_max = 32;
  fd.dispatch_interval = Millis(1);
  fd.service_credit = 48;
  fd.admission_dop = ctx->pool->size();
  fd.use_orb = true;
  patia::FrontDoor door(&server, &net, &bus, fd, ctx->pool);
  rep.Check(door.AddShedRule(900,
                             "If derived.admission.depth.mean > 96 and "
                             "admission.shed_level < 50 then "
                             "SWITCH(shed.0, shed.50)")
                    .ok() &&
                door.AddShedRule(901,
                                 "If derived.admission.depth.mean > 192 and "
                                 "admission.shed_level < 80 then "
                                 "SWITCH(shed.50, shed.80)")
                    .ok() &&
                door.AddShedRule(902,
                                 "If derived.admission.depth.mean < 16 and "
                                 "admission.shed_level > 0 then "
                                 "SWITCH(shed.50, shed.0)",
                                 /*priority=*/1)
                    .ok(),
            "shed rules parse");
  server.EnableDegradation({"frontdoor.breaker", 1.5});

  // Library defaults (fsync at segment rotation), except retention: the
  // replay check needs the whole history.
  obs::blackbox::TelemetryLogOptions lopt;
  lopt.dir = ctx->args.workdir + "/telem-" + std::to_string(world);
  lopt.max_segments = 1 << 16;
  // The flusher thread must not inherit the client's CPU pin.
  PinThisThread(-1);
  auto log = obs::blackbox::TelemetryLog::Open(lopt);
  PinThisThread(static_cast<int>(world));
  rep.Check(log.ok(), "telemetry log opens");
  if (!log.ok()) return out;
  (*log)->Install();

  door.Start();
  server.StartTicking(Millis(50));
  CheckedSink sink(&door, &ctx->spans);
  net::ClientSwarm::Options sw;
  sw.sessions = kSessions;
  sw.think_mean = Millis(200);
  sw.ramp = dbm::Seconds(1);
  sw.horizon = kHorizon;
  sw.backoff = Millis(25);
  sw.seed = ctx->args.seed * 1000003 + world;
  net::ClientSwarm swarm(&loop, &sink, &bus, sw);
  rep.Check(swarm.Run({"edge1", "edge2", "edge3", "edge4"}, "Page1.html")
                .ok(),
            "swarm starts");
  out.setup_s = HostSeconds(t0, NowNs());

  const auto drive = [&](SimTime until) {
    for (SimTime t = loop.Now() + kSlice; t <= until; t += kSlice) {
      const int64_t s0 = NowNs();
      {
        SpanRecorder::Scope span(&ctx->spans, "loop.run_until");
        out.events += loop.RunUntil(t);
      }
      out.host_s += HostSeconds(s0, NowNs());
    }
  };
  drive(kStopAt);
  door.Stop();
  drive(kDrainUntil);

  (*log)->Uninstall();
  const int64_t s0 = NowNs();
  {
    SpanRecorder::Scope span(&ctx->spans, "blackbox.stop");
    (*log)->Stop();
  }
  out.stop_ms = static_cast<double>(NowNs() - s0) / 1e6;
  out.log = (*log)->stats();
  auto reader = obs::blackbox::TelemetryReader::Open(lopt.dir);
  rep.Check(reader.ok() && !reader->report().truncated &&
                reader->records().size() == out.log.appended,
            "telemetry replay returns every appended record");
  log->reset();
  std::error_code ec;
  std::filesystem::remove_all(lopt.dir, ec);

  rep.Check(door.Drained(), "front door drains");
  rep.Check(swarm.issued() ==
                swarm.completed() + swarm.shed() + swarm.backpressured(),
            "drain identity: issued == completed + shed + backpressured");
  rep.Check(sink.submits() == swarm.issued(),
            "every issued request reached the front door");
  out.issued = swarm.issued();
  out.served = sink.served();
  out.retries = swarm.retries();
  out.wrong = sink.Wrong();
  out.failed = swarm.completed() - swarm.served();
  out.door = door.stats();
  out.invoke_cycles = CounterValue("admission.invoke_cycles") - cycles0;
  out.latency_ms = sink.latency_ms();

  int last = -1, direction = 0;
  for (const obs::DecisionRecord& d : obs::Tracer::Default().Decisions()) {
    if (std::strcmp(d.subject, "frontdoor") != 0) continue;
    const int level = ShedTarget(d.action);
    ++out.enactments;
    if (last >= 0 && level != last) {
      const int dir = level > last ? 1 : -1;
      if (direction != 0 && dir != direction) ++out.reversals;
      direction = dir;
    }
    last = level;
  }
  return out;
}

/// The worlds of one half of a run. The host's speed drifts over
/// seconds, so throughput is the median over worlds.
struct PhaseResult {
  std::vector<WorldResult> worlds;
  std::vector<double> world_rps;
  double host_s = 0;
  uint64_t issued = 0;
};

/// Plays worlds for `seconds`; out[1] holds the traced worlds.
void RunWorlds(Context* ctx, double seconds, PhaseResult out[2]) {
  uint64_t world = 0;
  RunFor(seconds, [&] {
    const bool traced = TracedChunk(ctx->args, world);
    ctx->spans.set_enabled(traced);
    PhaseResult& r = out[traced];
    r.worlds.push_back(RunWorld(ctx, world++));
    const WorldResult& w = r.worlds.back();
    r.host_s += w.host_s;
    r.issued += w.issued;
    r.world_rps.push_back(static_cast<double>(w.issued) / w.host_s);
    ctx->report.ops.attempted += w.issued;
    ctx->report.ops.failed += w.wrong + w.failed;
    return ctx->report.ok();
  });
  ctx->spans.set_enabled(false);
  PinThisThread(-1);
}

}  // namespace

void RunFlashCrowd(Context* ctx) {
  Report& rep = ctx->report;
  rep.Fact("world: 2 nodes x 8 slots, " + std::to_string(kSessions) +
           " closed-loop sessions, 200 ms think time, horizon " +
           std::to_string(kHorizon / 1000000) + " s simulated, slices of " +
           std::to_string(kSlice / 1000) + " ms");
  const obs::blackbox::TelemetryLogOptions defaults;
  rep.Fact(std::string("telemetry log fsync policy ") +
           obs::blackbox::FsyncPolicyName(defaults.fsync) +
           " (library default), ring " +
           std::to_string(defaults.ring_capacity) +
           " records; admission stage on the shared worker pool");
  obs::Registry& reg = obs::Registry::Default();
  PhaseResult halves[2];
  RunWorlds(ctx, ctx->args.seconds, halves);
  // Figures come from the untraced worlds; traced ones add spans.
  const PhaseResult& a = halves[0];
  const PhaseResult& b = halves[1];

  std::vector<double> setup_s, stop_ms, lag_us, latency_ms;
  uint64_t served = 0, events = 0, retries = 0, cycles = 0, enactments = 0,
           reversals = 0;
  patia::FrontDoor::Stats door;
  obs::blackbox::TelemetryLogStats log;
  for (const WorldResult& w : a.worlds) {
    setup_s.push_back(w.setup_s);
    stop_ms.push_back(w.stop_ms);
    lag_us.push_back(static_cast<double>(w.log.flush_lag_us));
    latency_ms.insert(latency_ms.end(), w.latency_ms.begin(),
                      w.latency_ms.end());
    served += w.served;
    events += w.events;
    retries += w.retries;
    cycles += w.invoke_cycles;
    enactments += w.enactments;
    reversals += w.reversals;
    door.admitted += w.door.admitted;
    door.shed_rule += w.door.shed_rule;
    door.shed_overflow += w.door.shed_overflow;
    door.backpressured += w.door.backpressured;
    door.batches += w.door.batches;
    door.depth_peak = std::max(door.depth_peak, w.door.depth_peak);
    log.appended += w.log.appended;
    log.dropped += w.log.dropped;
    log.sampled_out += w.log.sampled_out;
    log.bytes += w.log.bytes;
    log.fsyncs += w.log.fsyncs;
  }
  const double rps = Median(a.world_rps);
  const Percentile p50 = PercentileOf(latency_ms, 0.5);
  const Percentile p99 = PercentileOf(latency_ms, 0.99);
  rep.Fact("worlds " + std::to_string(a.worlds.size() + b.worlds.size()) +
           " (" + std::to_string(b.worlds.size()) +
           " traced); untraced requests " +
           std::to_string(a.issued) + ", served " + std::to_string(served) +
           "; tail percentile p" + std::to_string(p99.q * 100).substr(0, 5));
  rep.Set("setup_s", Median(setup_s));
  rep.Set("setup.world_s", Median(setup_s));
  rep.Set("ops_per_s", rps);
  rep.Set("op_p50_ms", p50.value);
  rep.Set("op_tail_ms", p99.value);
  rep.Set("requests_per_host_s", rps);
  rep.Set("served_frac", static_cast<double>(served) /
                             static_cast<double>(a.issued));
  rep.Set("sim_p99_ms", p99.value);
  rep.Set("frontdoor.admitted", static_cast<double>(door.admitted));
  rep.Set("frontdoor.shed_rule", static_cast<double>(door.shed_rule));
  rep.Set("frontdoor.shed_overflow", static_cast<double>(door.shed_overflow));
  rep.Set("frontdoor.backpressured", static_cast<double>(door.backpressured));
  rep.Set("frontdoor.batches", static_cast<double>(door.batches));
  rep.Set("frontdoor.depth_peak", static_cast<double>(door.depth_peak));
  rep.Set("profile.queue_us_p99",
          reg.GetHistogram("profile.request.queue_us").Quantile(0.99));
  rep.Set("profile.dispatch_us_p99",
          reg.GetHistogram("profile.request.dispatch_us").Quantile(0.99));
  rep.Set("profile.exec_us_p99",
          reg.GetHistogram("profile.request.exec_us").Quantile(0.99));
  rep.Set("loop.events", static_cast<double>(events));
  rep.Set("loop.events_per_host_s", static_cast<double>(events) / a.host_s);
  rep.Set("orb.cycles_per_admitted",
          door.admitted == 0 ? 0
                             : static_cast<double>(cycles) /
                                   static_cast<double>(door.admitted));
  rep.Set("adapt.enactments", static_cast<double>(enactments));
  rep.Set("adapt.reversals", static_cast<double>(reversals));
  const uint64_t offered = log.appended + log.dropped + log.sampled_out;
  rep.Set("blackbox.offered", static_cast<double>(offered));
  rep.Set("blackbox.dropped", static_cast<double>(log.dropped));
  rep.Set("blackbox.drop_ratio",
          offered == 0 ? 0
                       : static_cast<double>(log.dropped) /
                             static_cast<double>(offered));
  rep.Set("blackbox.bytes", static_cast<double>(log.bytes));
  rep.Set("blackbox.fsyncs", static_cast<double>(log.fsyncs));
  rep.Set("blackbox.flush_lag_us", Median(lag_us));
  rep.Set("blackbox.stop_ms", Median(stop_ms));
  rep.Set("loadgen.issued", static_cast<double>(a.issued));
  rep.Set("loadgen.retries", static_cast<double>(retries));

  if (ctx->args.trace) {
    rep.Set("frontdoor.submit_p50_us",
            SpanPercentile(ctx->spans, "frontdoor.submit", 0.5).value);
    rep.Set("frontdoor.submit_p99_us",
            SpanPercentile(ctx->spans, "frontdoor.submit", 0.99).value);
    ReportTrace(ctx, rps, Median(b.world_rps));
  }
}

}  // namespace perfbench

#include "bench.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "apps.h"
#include "ledger.h"
#include "probes.h"
#include "rigs.h"
#include "trace.h"

namespace perfbench {

using namespace pint;

namespace {

// --- workloads ---------------------------------------------------------------

enum class Shape { kFanIn, kMono };

struct WorkloadSpec {
  std::string name;
  Shape shape = Shape::kFanIn;
  bool paced = false;
  std::size_t packets = 0;        // web-search trace length (fan-in)
  std::size_t epoch_packets = 0;  // closed loops: packets per epoch
  double rate_pps = 0;            // open loop: offered rate
  Ns epoch_ns = 0;                // open loop: schedule-time epoch
  std::size_t mice = 0;           // monolithic: mice flows
  std::size_t elephants = 0;
  double elephant_share = 0;
  StoreKnobs store;
};

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec saturate;
    saturate.name = "fanin_saturate";
    saturate.packets = 1 << 19;
    saturate.epoch_packets = 512;
    v.push_back(saturate);
    WorkloadSpec paced;
    paced.name = "fanin_paced";
    paced.paced = true;
    paced.packets = 1 << 18;
    // About a third of fanin_saturate's sink_pps on the 4-core host the
    // benchmark was sized on; a constant, so the offered load never
    // depends on the code under test.
    paced.rate_pps = 65'000;
    paced.epoch_ns = 2'000'000;
    v.push_back(paced);
    WorkloadSpec mice;
    mice.name = "sink_mice";
    mice.shape = Shape::kMono;
    mice.epoch_packets = 4096;
    mice.mice = 1'000'000;
    mice.elephants = 64;
    mice.elephant_share = 0.10;
    // memory_squeeze.scn: `tune store ceiling_mb=1 policy=doorkeeper`.
    mice.store = {1u << 20, StorePolicyKind::kDoorkeeper};
    v.push_back(mice);
    return v;
  }();
  return all;
}

// Flows with at least this many packets must have their path decoded
// (path_decoded_pct counts the share that did).
constexpr std::uint32_t kPathMinPackets = 16;
// Generator-thread spans must cover the timed window to within this
// share of it (trace.unattributed_pct).
constexpr double kCoverageTolerancePct = 1.0;
// Repetitions per window, at least.
constexpr std::size_t kMinReps = 3;
// Between repetitions (outside every window) the runner times this many
// extra set-ups, built and torn down unused, and (traced runs) this many
// re-encodes of the trace sample, so setup_s and encode.ns_per_hop are
// medians spread over the whole run rather than one moment of it.
constexpr int kSetupsPerRep = 12;
constexpr int kEncodesPerRep = 4;

// --- helpers -----------------------------------------------------------------

double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long size = 0;
  long resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::string socket_path(const RunConfig& cfg) {
  static unsigned counter = 0;
  return cfg.work_dir + "/perfbench-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++) + ".sock";
}

// Share of flows with at least kPathMinPackets packets whose true path
// reached the apps in a path-decoded event. Counted from the events, not
// from the sink's state afterwards: under a memory ceiling a decoded path
// may be evicted again, and the apps already acted on it.
double path_decoded_pct(const Trace& trace, const PathObserver& decoded,
                        const PintFramework& keys) {
  std::size_t eligible = 0;
  std::size_t correct = 0;
  for (const FlowTruth& flow : trace.flows) {
    if (flow.packets < kPathMinPackets) continue;
    ++eligible;
    const auto* path = decoded.find(keys.flow_key_for("path", flow.tuple));
    if (path != nullptr && *path == flow.path) ++correct;
  }
  return eligible == 0 ? 0.0 : 100.0 * static_cast<double>(correct) /
                                   static_cast<double>(eligible);
}

// Median relative error of the sink's per-hop latency quantiles against
// the exact quantiles of the trace; a (flow, hop) with no estimate counts
// 100%.
double latency_err_pct(const Trace& trace,
                       const std::function<const ShardedSink&(
                           const FiveTuple&)>& sink_for) {
  std::vector<double> errors;
  for (const FlowTruth& flow : trace.flows) {
    for (std::size_t h = 0; h < flow.latency_truth.size(); ++h) {
      for (std::size_t k = 0; k < std::size(kLatencyPhis); ++k) {
        const auto est = sink_for(flow.tuple).latency_quantile(
            "latency", flow.tuple, static_cast<HopIndex>(h + 1),
            kLatencyPhis[k]);
        const double exact = flow.latency_truth[h][k];
        errors.push_back(est.has_value() ? std::abs(*est - exact) / exact
                                         : 1.0);
      }
    }
  }
  return 100.0 * median(errors);
}

// --- per-repetition results --------------------------------------------------

struct Rep {
  double pps = 0;
  double setup_s = 0;
  double mem_mb = 0;  // RSS growth from set-up to the end of the window
  std::vector<double> lag_ms;   // per epoch
  std::vector<double> late_ms;  // per packet (open loop) or epoch close
  std::uint64_t events = 0;  // emitted at the sinks
  std::uint64_t faults = 0;  // lost events + faulted epochs and frames
};

// Per-layer sums over the traced repetitions.
struct Layers {
  double window_ns = 0;
  double packets = 0;
  double sender_epochs = 0;  // epochs x sink hosts
  double intake_ns = 0;
  double submit_ns = 0;
  double flush_ns = 0;
  double ship_self_ns = 0;
  double write_ns = 0;
  double blocked_ns = 0;  // ship time spent waiting after refused writes
  double write_attempts = 0;
  double write_refused = 0;
  double bytes_shipped = 0;
  double blocked_waits = 0;
  double ingest_ns = 0;
  double ingest_calls = 0;
  double ingest_bytes = 0;
  double records = 0;
  std::array<double, 4> app_ns{};
  std::array<double, 4> app_events{};
  double unattributed_ns = 0;
  std::vector<double> ep_flush_us, ep_ship_us, ep_transit_us, ep_ingest_us;
  double evictions = 0;
  double rejects = 0;
  double created = 0;
  double resident = 0;
  double peak_bytes = 0;
  double reps = 0;
  // Every traced repetition's epoch lags and generator lateness samples.
  std::vector<double> lag_ms, late_ms;
  std::vector<Span> spans;  // every traced rep, for the trace file
  std::vector<std::uint32_t> span_rep;
};

void add_store(Layers& layers, const MemoryReport& report) {
  layers.evictions += static_cast<double>(report.total.evictions);
  layers.rejects += static_cast<double>(report.total.admissions_rejected);
  layers.resident += static_cast<double>(report.total.flows);
  for (const QueryMemoryStats& q : report) {
    layers.created += static_cast<double>(q.created);
    layers.peak_bytes += static_cast<double>(q.peak_used_bytes);
  }
}

void add_app_times(Layers& layers,
                   const std::vector<std::unique_ptr<TimedObserver>>& timed) {
  for (std::size_t i = 0; i < timed.size() && i < 4; ++i) {
    layers.app_ns[i] += timed[i]->estimated_ns();
    layers.app_events[i] += static_cast<double>(timed[i]->events());
  }
}

// Generator spans: per-name totals, ship self time net of backpressure
// waits, and how much of the window the top-level spans leave uncovered.
// A wait is the gap between a refused write and the next write of the
// same ship_epoch call: the sender's on_block pause.
void add_generator_spans(Layers& layers, const std::vector<Span>& spans,
                         Ns first, Ns end) {
  const std::vector<Ns> self = self_times(spans);
  std::vector<std::pair<Ns, Ns>> top;
  std::int32_t refused_parent = -1;
  Ns refused_end = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto d = static_cast<double>(s.duration());
    if ((s.name == kWrite || s.name == kRefused) && s.parent >= 0 &&
        s.parent == refused_parent) {
      layers.blocked_ns += static_cast<double>(s.start - refused_end);
      refused_parent = -1;
    }
    switch (s.name) {
      case kIntake: layers.intake_ns += d; break;
      case kSubmit: layers.submit_ns += d; break;
      case kFlush: layers.flush_ns += d; break;
      case kShip: layers.ship_self_ns += static_cast<double>(self[i]); break;
      case kWrite: layers.write_ns += d; break;
      case kRefused:
        layers.write_ns += d;
        refused_parent = s.parent;
        refused_end = s.end;
        break;
      default: break;
    }
    if (s.parent < 0) top.emplace_back(s.start, s.end);
  }
  layers.window_ns += static_cast<double>(end - first);
  layers.unattributed_ns +=
      static_cast<double>((end - first) - covered(std::move(top), first, end));
}

void keep_spans(Layers& layers, const std::vector<Span>& spans,
                std::int32_t base_offset) {
  for (Span s : spans) {
    if (s.parent >= 0) s.parent += base_offset;
    layers.spans.push_back(s);
    layers.span_rep.push_back(static_cast<std::uint32_t>(layers.reps));
  }
}

std::vector<double> to_us(const std::vector<Ns>& ns) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (const Ns v : ns) out.push_back(static_cast<double>(v) / 1e3);
  return out;
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// Fills the latency samples every repetition reports.
void add_times(Rep& rep, const RepTimes& t, std::size_t packets) {
  rep.pps = static_cast<double>(packets) * 1e9 /
            static_cast<double>(std::max<Ns>(1, t.end - t.first));
  for (std::size_t e = 0; e < t.sched.size() && e < t.done.size(); ++e) {
    rep.lag_ms.push_back(static_cast<double>(t.done[e] - t.sched[e]) / 1e6);
  }
  for (const Ns late : t.late) {
    rep.late_ms.push_back(static_cast<double>(late) / 1e6);
  }
}

// --- the runner --------------------------------------------------------------

class Runner {
 public:
  Runner(const RunConfig& cfg, const WorkloadSpec& spec, Outcome& out)
      : cfg_(cfg), spec_(spec), out_(out) {}

  void run();

 private:
  void fail(const std::string& what) {
    out_.correct = false;
    out_.failures.push_back(what);
  }
  void verify();
  Rep rep(bool traced, Layers* layers);
  Rep fanin_rep(bool traced, Layers* layers);
  Rep mono_rep(bool traced, Layers* layers);
  double setup_only();
  void interlude();
  std::uint64_t check_fanin(FaninRig& rig);
  void report_end_to_end(std::vector<Rep>& reps);
  void report_layers(Layers& layers, double untraced_pps, double traced_pps);
  void write_trace_file(const Layers& layers);

  const RunConfig& cfg_;
  const WorkloadSpec& spec_;
  Outcome& out_;
  Trace trace_;
  std::uint64_t expected_events_ = 0;
  double path_pct_ = 0;
  double latency_err_pct_ = 0;
  std::vector<double> setups_;        // seconds
  std::vector<double> encode_rates_;  // Mhop/s
};

void Runner::verify() {
  if (spec_.shape == Shape::kFanIn) {
    // The production fan-in path against one monolithic framework fed the
    // same trace: same records per packet, in the same per-packet order.
    DigestObserver fanin_digest;
    PathObserver paths;
    const auto fw =
        detection_builder(trace_.universe, trace_.seed, {}).build_or_throw();
    {
      FaninRig rig(trace_, socket_path(cfg_), false, {&fanin_digest, &paths});
      rig.run_closed(4096);
      rig.finish();
      const auto sink_for = [&rig](const FiveTuple& t) -> const ShardedSink& {
        return rig.sender(rig.sink_of(t)).sink();
      };
      latency_err_pct_ = latency_err_pct(trace_, sink_for);
      expected_events_ = rig.collector().records_ingested();
      check_fanin(rig);
    }
    path_pct_ = path_decoded_pct(trace_, paths, *fw);
    DigestObserver mono_digest;
    fw->add_observer(&mono_digest);
    fw->at_sink(std::span<const Packet>(trace_.packets), kHops);
    if (fanin_digest.records() != mono_digest.records()) {
      fail("verification: collector replayed " +
           std::to_string(fanin_digest.records()) + " records, monolithic " +
           "sink emitted " + std::to_string(mono_digest.records()));
    } else if (fanin_digest.digest() != mono_digest.digest()) {
      fail("verification: merged collector records differ from the "
           "monolithic sink's");
    }
    expected_events_ = mono_digest.records();
    out_.notes.push_back("verified: " + std::to_string(expected_events_) +
                         " collector records identical to a monolithic sink");
  } else {
    PathObserver paths;
    MonoRig rig(trace_, spec_.store, false, {&paths});
    rig.run_closed(spec_.epoch_packets);
    const auto sink_for = [&rig](const FiveTuple&) -> const ShardedSink& {
      return rig.sink();
    };
    path_pct_ = path_decoded_pct(trace_, paths, rig.sink().shard(0));
    latency_err_pct_ = latency_err_pct(trace_, sink_for);
    expected_events_ = rig.delivered();
    if (rig.apps().hottest(trace_.universe) != trace_.hot_switch) {
      fail("verification: tomography missed the planted hot switch");
    }
    out_.notes.push_back("verified: " + std::to_string(expected_events_) +
                         " events per pass (3-shard sink, deterministic)");
  }
}

// Exact counters after a fan-in window. Returns the faults found.
std::uint64_t Runner::check_fanin(FaninRig& rig) {
  const FanInCollector& c = rig.collector();
  std::uint64_t faults = 0;
  const std::uint64_t got = c.records_ingested();
  if (expected_events_ != 0 && got != expected_events_) {
    fail("records ingested " + std::to_string(got) + " != events emitted " +
         std::to_string(expected_events_));
    faults += got > expected_events_ ? got - expected_events_
                                     : expected_events_ - got;
  }
  for (std::uint32_t s = 1; s <= FaninRig::kSinks; ++s) {
    const auto* st = c.source_status(s);
    if (st == nullptr) {
      fail("source " + std::to_string(s) + " never reached the collector");
      ++faults;
      continue;
    }
    const std::uint64_t bad =
        st->epochs_incomplete + st->frames_missed + st->decode_failures;
    if (bad != 0 || st->epochs_completed != rig.epochs()) {
      fail("source " + std::to_string(s) + ": " +
           std::to_string(st->epochs_completed) + "/" +
           std::to_string(rig.epochs()) + " epochs complete, " +
           std::to_string(st->epochs_incomplete) + " incomplete, " +
           std::to_string(st->frames_missed) + " frames missed, " +
           std::to_string(st->decode_failures) + " decode failures");
    }
    faults += bad;
  }
  if (c.errors_total() != 0) {
    fail("collector frame errors: " + std::to_string(c.errors_total()));
    faults += c.errors_total();
  }
  if (rig.apps().hottest(trace_.universe) != trace_.hot_switch) {
    fail("tomography's hottest switch is not the planted one");
  }
  return faults;
}

Rep Runner::fanin_rep(bool traced, Layers* layers) {
  Rep rep;
  const double base_mb = rss_mb();
  const Ns t0 = now_ns();
  FaninRig rig(trace_, socket_path(cfg_), traced);
  rep.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  if (spec_.paced) {
    rig.run_paced(spec_.rate_pps, spec_.epoch_ns);
  } else {
    rig.run_closed(spec_.epoch_packets);
  }
  rep.mem_mb = rss_mb() - base_mb;
  rig.finish();
  const RepTimes& t = rig.times();
  add_times(rep, t, trace_.packets.size());
  rep.events = expected_events_;
  rep.faults = check_fanin(rig);
  if (layers == nullptr) return rep;

  Layers& l = *layers;
  append(l.lag_ms, rep.lag_ms);
  append(l.late_ms, rep.late_ms);
  l.packets += static_cast<double>(trace_.packets.size());
  l.sender_epochs += static_cast<double>(rig.epochs() * FaninRig::kSinks);
  add_generator_spans(l, rig.generator_ledger().spans(), t.first, t.end);
  for (const Span& s : rig.collector_ledger().spans()) {
    l.ingest_ns += static_cast<double>(s.duration());
  }
  l.ingest_calls += static_cast<double>(rig.probe().ingest_calls());
  l.ingest_bytes += static_cast<double>(rig.probe().ingest_bytes());
  l.records += static_cast<double>(rig.collector().records_ingested());
  l.write_attempts += static_cast<double>(rig.write_attempts());
  l.write_refused += static_cast<double>(rig.write_refused());
  for (unsigned i = 0; i < FaninRig::kSinks; ++i) {
    l.bytes_shipped += static_cast<double>(rig.sender(i).bytes_shipped());
    l.blocked_waits += static_cast<double>(rig.sender(i).blocked_waits());
    add_store(l, rig.sender(i).sink().memory_report());
  }
  add_app_times(l, rig.timed_apps());
  append(l.ep_flush_us, to_us(t.flush_ns));
  append(l.ep_ship_us, to_us(t.ship_ns));
  append(l.ep_transit_us, to_us(t.transit_ns));
  append(l.ep_ingest_us, to_us(t.ingest_ns));
  keep_spans(l, rig.generator_ledger().spans(),
             static_cast<std::int32_t>(l.spans.size()));
  keep_spans(l, rig.collector_ledger().spans(),
             static_cast<std::int32_t>(l.spans.size()));
  l.reps += 1;
  return rep;
}

Rep Runner::mono_rep(bool traced, Layers* layers) {
  Rep rep;
  const double base_mb = rss_mb();
  const Ns t0 = now_ns();
  MonoRig rig(trace_, spec_.store, traced);
  rep.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  rig.run_closed(spec_.epoch_packets);
  rep.mem_mb = rss_mb() - base_mb;
  const RepTimes& t = rig.times();
  add_times(rep, t, trace_.packets.size());
  rep.events = expected_events_;
  if (rig.delivered() != expected_events_) {
    fail("events delivered to the apps " + std::to_string(rig.delivered()) +
         " != events emitted " + std::to_string(expected_events_));
    rep.faults += rig.delivered() > expected_events_
                      ? rig.delivered() - expected_events_
                      : expected_events_ - rig.delivered();
  }
  if (rig.apps().hottest(trace_.universe) != trace_.hot_switch) {
    fail("tomography's hottest switch is not the planted one");
  }
  if (layers == nullptr) return rep;

  Layers& l = *layers;
  append(l.lag_ms, rep.lag_ms);
  append(l.late_ms, rep.late_ms);
  l.packets += static_cast<double>(trace_.packets.size());
  l.sender_epochs += static_cast<double>(rig.epochs());
  add_generator_spans(l, rig.generator_ledger().spans(), t.first, t.end);
  l.records += static_cast<double>(rig.delivered());
  add_store(l, rig.sink().memory_report());
  add_app_times(l, rig.timed_apps());
  append(l.ep_flush_us, to_us(t.flush_ns));
  keep_spans(l, rig.generator_ledger().spans(),
             static_cast<std::int32_t>(l.spans.size()));
  l.reps += 1;
  return rep;
}

double Runner::setup_only() {
  const Ns t0 = now_ns();
  Ns t1 = 0;
  if (spec_.shape == Shape::kFanIn) {
    FaninRig rig(trace_, socket_path(cfg_), false);
    t1 = now_ns();
  } else {
    MonoRig rig(trace_, spec_.store, false);
    t1 = now_ns();
  }
  return static_cast<double>(t1 - t0) / 1e9;
}

Rep Runner::rep(bool traced, Layers* layers) {
  Rep r = spec_.shape == Shape::kFanIn ? fanin_rep(traced, layers)
                                       : mono_rep(traced, layers);
  setups_.push_back(r.setup_s);
  return r;
}

void Runner::interlude() {
  for (int i = 0; i < kEncodesPerRep && cfg_.traced; ++i) {
    encode_rates_.push_back(time_encode(trace_));
  }
  for (int i = 0; i < kSetupsPerRep && out_.correct; ++i) {
    setups_.push_back(setup_only());
  }
  // Hand freed memory back, so each repetition's RSS growth is its own.
  ::malloc_trim(0);
}

void Runner::run() {
  trace_ = spec_.shape == Shape::kFanIn
               ? make_web_search_trace(cfg_.seed, spec_.packets)
               : make_mice_trace(cfg_.seed, spec_.mice, spec_.elephants,
                                 spec_.elephant_share);
  out_.notes.push_back(
      "trace: " + std::to_string(trace_.packets.size()) + " packets, " +
      std::to_string(trace_.flows.size()) + " flows, hot switch " +
      std::to_string(trace_.hot_switch));
  verify();
  if (!out_.correct) return;

  // The first pipeline in a process runs markedly slower (cold caches,
  // lazy allocator arenas); its numbers are discarded.
  rep(false, nullptr);
  setups_.clear();

  const Ns budget = static_cast<Ns>(cfg_.seconds * 1e9);
  const Ns start = now_ns();
  const auto elapsed = [&] { return now_ns() - start; };
  if (!cfg_.traced) {
    // Every end-to-end figure is a median over repetitions, so a burst of
    // host noise (stolen CPU) in one repetition does not move it.
    std::vector<Rep> reps;
    while (out_.correct && (reps.size() < kMinReps || elapsed() < budget)) {
      interlude();
      reps.push_back(rep(false, nullptr));
    }
    if (out_.correct) report_end_to_end(reps);
    return;
  }

  // Traced run: an untraced half for the overhead baseline, then the
  // traced half the per-layer numbers come from.
  std::vector<double> untraced_pps;
  while (out_.correct && (untraced_pps.size() < 2 || elapsed() < budget / 2)) {
    interlude();
    untraced_pps.push_back(rep(false, nullptr).pps);
  }
  Layers layers;
  std::vector<double> traced_pps;
  const auto tails_supported = [&layers] {
    return highest_supported_permille(std::min(
               layers.lag_ms.size(), layers.late_ms.size())) >= 990;
  };
  while (out_.correct && (traced_pps.size() < 2 || elapsed() < budget ||
                          !tails_supported())) {
    interlude();
    traced_pps.push_back(rep(true, &layers).pps);
  }
  if (!out_.correct) return;
  report_layers(layers, median(untraced_pps), median(traced_pps));
  write_trace_file(layers);
}

void Runner::report_end_to_end(std::vector<Rep>& reps) {
  std::vector<double> pps, lag50, mem;
  std::size_t lag_n = SIZE_MAX;
  for (Rep& r : reps) {
    lag_n = std::min(lag_n, r.lag_ms.size());
    pps.push_back(r.pps);
    lag50.push_back(percentile(r.lag_ms, 500));
    mem.push_back(r.mem_mb);
    out_.attempted += r.events;
    out_.failed += r.faults;
  }
  out_.notes.push_back(
      "samples: " + std::to_string(reps.size()) + " reps, >= " +
      std::to_string(lag_n) + " epochs each; " +
      std::to_string(setups_.size()) + " set-ups");
  const double attempted = static_cast<double>(std::max<std::uint64_t>(
      1, out_.attempted));
  std::vector<Metric>& m = out_.metrics;
  m.push_back({"sink_pps", median(pps), "pkt/s"});
  m.push_back({"epoch_lag_p50_ms", median(lag50), "ms"});
  m.push_back({"delivered_pct",
               100.0 * (attempted - static_cast<double>(out_.failed)) /
                   attempted,
               "%"});
  m.push_back({"path_decoded_pct", path_pct_, "%"});
  m.push_back({"latency_q_err_pct", latency_err_pct_, "%"});
  m.push_back({"setup_s", median(setups_), "s"});
  m.push_back({"mem_mb", median(mem), "MiB"});
}

void Runner::report_layers(Layers& l, double untraced_pps, double traced_pps) {
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double window = l.window_ns;
  double app_ns = 0;
  for (const double ns : l.app_ns) app_ns += ns;
  const double events = l.app_events[0];
  const double writes_ok = l.write_attempts - l.write_refused;
  const bool fanin = spec_.shape == Shape::kFanIn;
  const double unattributed = 100.0 * ratio(l.unattributed_ns, window);
  for (const std::size_t n : {l.lag_ms.size(), l.late_ms.size()}) {
    if (highest_supported_permille(n) < 990) {
      fail(std::to_string(n) + " tail samples cannot support a p99");
    }
  }
  if (unattributed > kCoverageTolerancePct) {
    fail("generator spans leave " + std::to_string(unattributed) +
         "% of the window unattributed (tolerance " +
         std::to_string(kCoverageTolerancePct) + "%)");
  }
  std::vector<Metric>& m = out_.metrics;
  m.push_back({"encode.ns_per_hop", ratio(1e3, median(encode_rates_)), "ns"});
  // The open loop's intake spans include the pacing waits, so deliver
  // cost is reported for the closed fan-in loop only.
  m.push_back({"sender.deliver_ns_per_pkt",
               fanin && !spec_.paced ? ratio(l.intake_ns, l.packets) : 0.0,
               "ns"});
  m.push_back({"sink.submit_ns_per_pkt", ratio(l.submit_ns, l.packets), "ns"});
  m.push_back({"sink.flush_pct", 100.0 * ratio(l.flush_ns, window), "%"});
  m.push_back({"sink.flush_us_per_epoch",
               ratio(l.flush_ns, l.sender_epochs) / 1e3, "us"});
  m.push_back({"sink.events_per_pkt", ratio(l.records, l.packets), "count"});
  // Codec + framing: ship_epoch minus its stream writes and the
  // backpressure waits between them (the serial fraction).
  const double codec_ns = l.ship_self_ns - l.blocked_ns;
  m.push_back({"sender.ship_pct", 100.0 * ratio(codec_ns, window), "%"});
  m.push_back({"sender.ship_us_per_epoch",
               ratio(codec_ns, l.sender_epochs) / 1e3, "us"});
  m.push_back({"sender.bytes_per_pkt", ratio(l.bytes_shipped, l.packets),
               "B"});
  m.push_back({"transport.write_us_per_frame",
               ratio(l.write_ns, writes_ok) / 1e3, "us"});
  m.push_back({"transport.write_refused_pct",
               100.0 * ratio(l.write_refused, l.write_attempts), "%"});
  m.push_back({"transport.blocked_pct", 100.0 * ratio(l.blocked_ns, window),
               "%"});
  m.push_back({"sender.blocked_waits_per_epoch",
               fanin ? ratio(l.blocked_waits, l.sender_epochs) : 0.0,
               "count"});
  m.push_back({"collector.ingest_ns_per_record",
               fanin ? ratio(l.ingest_ns - app_ns, l.records) : 0.0, "ns"});
  m.push_back({"collector.busy_pct", 100.0 * ratio(l.ingest_ns, window), "%"});
  m.push_back({"collector.bytes_per_ingest",
               ratio(l.ingest_bytes, l.ingest_calls), "B"});
  m.push_back({"apps.ns_per_event", ratio(app_ns, events), "ns"});
  for (std::size_t i = 0; i < Apps::kNames.size(); ++i) {
    m.push_back({"apps." + std::string(Apps::kNames[i]) + ".ns_per_event",
                 ratio(l.app_ns[i], l.app_events[i]), "ns"});
  }
  m.push_back({"apps.busy_pct", 100.0 * ratio(app_ns, window), "%"});
  m.push_back({"store.evictions_per_kpkt",
               1e3 * ratio(l.evictions, l.packets), "count"});
  m.push_back({"store.admit_reject_pct",
               100.0 * ratio(l.rejects, l.rejects + l.created), "%"});
  m.push_back({"store.resident_flows", ratio(l.resident, l.reps), "count"});
  m.push_back({"store.peak_mb", ratio(l.peak_bytes, l.reps) / (1024.0 * 1024.0),
               "MiB"});
  m.push_back({"epoch.flush_us_p50", median(l.ep_flush_us), "us"});
  m.push_back({"epoch.ship_us_p50", median(l.ep_ship_us), "us"});
  m.push_back({"epoch.transit_us_p50", median(l.ep_transit_us), "us"});
  m.push_back({"epoch.ingest_us_p50", median(l.ep_ingest_us), "us"});
  m.push_back({"epoch.lag_p90_ms", percentile(l.lag_ms, 900), "ms"});
  m.push_back({"epoch.lag_p99_ms", percentile(l.lag_ms, 990), "ms"});
  m.push_back({"gen.late_p90_ms", percentile(l.late_ms, 900), "ms"});
  m.push_back({"gen.late_p99_ms", percentile(l.late_ms, 990), "ms"});
  m.push_back({"trace.unattributed_pct", unattributed, "%"});
  m.push_back({"trace.overhead_pct",
               100.0 * ratio(untraced_pps - traced_pps, untraced_pps), "%"});
  out_.attempted = static_cast<std::uint64_t>(l.reps) * expected_events_;
  out_.notes.push_back("traced: " + std::to_string(l.spans.size()) +
                       " spans over " +
                       std::to_string(static_cast<int>(l.reps)) + " reps");
}

// Chrome trace-event JSON (chrome://tracing, Perfetto): one complete event
// per span, with its epoch, parent and self time.
void Runner::write_trace_file(const Layers& layers) {
  const std::string path = cfg_.work_dir + "/trace-" + spec_.name + "-" +
                           std::to_string(cfg_.seed) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    fail("cannot write trace file " + path);
    return;
  }
  const std::vector<Ns> self = self_times(layers.spans);
  const Ns origin = layers.spans.empty() ? 0 : layers.spans.front().start;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < layers.spans.size(); ++i) {
    const Span& s = layers.spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"epoch\":%u,"
                 "\"parent\":%d,\"self_us\":%.3f}}",
                 i == 0 ? "" : ",", kSpanNames[s.name], layers.span_rep[i],
                 s.thread, static_cast<double>(s.start - origin) / 1e3,
                 static_cast<double>(s.duration()) / 1e3, s.epoch, s.parent,
                 static_cast<double>(self[i]) / 1e3);
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) fail("cannot write trace file " + path);
  out_.notes.push_back("trace file: " + path);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const WorkloadSpec& s : specs()) v.push_back(s.name);
    return v;
  }();
  return names;
}

Outcome run_benchmark(const RunConfig& config) {
  Outcome out;
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : specs()) {
    if (s.name == config.workload) spec = &s;
  }
  if (spec == nullptr) {
    throw std::invalid_argument("unknown workload '" + config.workload + "'");
  }
  Runner(config, *spec, out).run();
  return out;
}

}  // namespace perfbench

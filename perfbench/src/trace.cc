#include "trace.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/rng.h"
#include "hash/global_hash.h"
#include "ledger.h"
#include "pint/metric.h"
#include "pint/query_spec.h"
#include "sim/simulator.h"
#include "topology/fat_tree.h"
#include "workload/flow_size_dist.h"

namespace perfbench {

using namespace pint;

namespace {

constexpr double kBufferBytes = 256.0 * 1024.0;  // switch_buffer_bytes
constexpr std::size_t kEncodeChunk = 4096;  // packets per generated chunk

struct Fabric {
  FatTree tree = make_fat_tree(4);
  std::vector<std::uint64_t> universe;
  GlobalHash ecmp{17};

  Fabric() {
    std::vector<bool> is_host(tree.graph.num_nodes(), false);
    for (NodeId h : tree.nodes.hosts) is_host[h] = true;
    for (NodeId n = 0; n < tree.graph.num_nodes(); ++n) {
      if (!is_host[n]) universe.push_back(n);
    }
  }

  // A flow between two hosts in different pods: 5 switches, host ends
  // stripped.
  FlowTruth make_flow(Rng& rng, std::size_t index) {
    const auto& hosts = tree.nodes.hosts;
    for (;;) {
      const std::uint32_t src = static_cast<std::uint32_t>(
          rng.uniform_int(hosts.size()));
      const std::uint32_t dst = static_cast<std::uint32_t>(
          rng.uniform_int(hosts.size()));
      const auto path = tree.graph.ecmp_path(hosts[src], hosts[dst],
                                             index * 0x9E37 + 1, ecmp);
      if (!path || path->size() != kHops + 2) continue;
      FlowTruth flow;
      flow.tuple.src_ip = 0x0A000000u + src;
      flow.tuple.dst_ip = 0x0A000000u + dst;
      flow.tuple.src_port = static_cast<std::uint16_t>(1024 + index % 60000);
      flow.tuple.dst_port = static_cast<std::uint16_t>(80 + index / 60000);
      flow.path.assign(path->begin() + 1, path->end() - 1);
      return flow;
    }
  }
};

// Orders (time, flow) arrivals into packets, then encodes every hop with
// a network-side framework.
void build_packets(Trace& trace, std::vector<std::pair<double, std::uint32_t>>
                                     arrivals) {
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  trace.packets.resize(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    Packet& p = trace.packets[i];
    p.id = i + 1;
    p.tuple = trace.flows[arrivals[i].second].tuple;
  }

  // Exact latency truth for long flows: their per-hop samples.
  std::vector<std::vector<std::vector<float>>> lat(trace.flows.size());
  for (std::size_t f = 0; f < trace.flows.size(); ++f) {
    if (trace.flows[f].packets >= kLatencyTruthPackets) {
      lat[f].assign(kHops, {});
      for (auto& hop : lat[f]) hop.reserve(trace.flows[f].packets);
    }
  }

  trace.network =
      detection_builder(trace.universe, trace.seed, {}).build_or_throw();
  for (Packet& p : trace.packets) p.digests.reserve(trace.network->max_lanes());
  Rng rng(trace.seed ^ 0x5EED'7A11ULL);
  std::vector<SwitchView> views(kEncodeChunk * kHops);
  for (std::size_t lo = 0; lo < arrivals.size(); lo += kEncodeChunk) {
    const std::size_t hi = std::min(arrivals.size(), lo + kEncodeChunk);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t f = arrivals[i].second;
      for (unsigned h = 0; h < kHops; ++h) {
        const SwitchId sid = trace.flows[f].path[h];
        const double q = std::min(sid == trace.hot_switch
                                      ? 64e3 + rng.exponential(1.0 / 48e3)
                                      : rng.exponential(1.0 / 6e3),
                                  kBufferBytes - 1);
        const double latency = 2000.0 + 0.8 * q + rng.exponential(1.0 / 500);
        SwitchView& view = views[(i - lo) * kHops + h];
        view = SwitchView(sid);
        view.set(metric::kQueueOccupancy, q)
            .set(metric::kHopLatencyNs, latency)
            .set(metric::kLinkUtilization,
                 std::max(1.0, (0.2 + 0.6 * rng.uniform()) *
                                   Simulator::kUtilScale));
        if (!lat[f].empty()) lat[f][h].push_back(static_cast<float>(latency));
      }
    }
    for (std::size_t i = lo; i < hi; ++i) {
      for (unsigned h = 0; h < kHops; ++h) {
        trace.network->at_switch(trace.packets[i], h + 1,
                                 views[(i - lo) * kHops + h]);
      }
    }
    if (lo == 0) {
      trace.sample.assign(trace.packets.begin(), trace.packets.begin() + hi);
      for (Packet& p : trace.sample) p.digests.clear();
      trace.sample_views.assign(views.begin(),
                                views.begin() + (hi - lo) * kHops);
    }
  }

  for (std::size_t f = 0; f < trace.flows.size(); ++f) {
    for (auto& hop : lat[f]) {
      std::vector<double> v(hop.begin(), hop.end());
      std::vector<double> q;
      for (const double phi : kLatencyPhis) {
        q.push_back(percentile(v, static_cast<unsigned>(phi * 1000)));
      }
      trace.flows[f].latency_truth.push_back(std::move(q));
    }
  }
}

}  // namespace

double time_encode(Trace& trace) {
  std::vector<Packet>& sample = trace.sample;
  for (Packet& p : sample) p.digests.clear();  // keeps the reserved lanes
  const Ns t0 = now_ns();
  for (std::size_t i = 0; i < sample.size(); ++i) {
    for (unsigned h = 0; h < kHops; ++h) {
      trace.network->at_switch(sample[i], h + 1,
                               trace.sample_views[i * kHops + h]);
    }
  }
  const Ns dt = std::max<Ns>(1, now_ns() - t0);
  return static_cast<double>(sample.size() * kHops) * 1e3 /
         static_cast<double>(dt);
}

PintFramework::Builder detection_builder(
    const std::vector<std::uint64_t>& universe, std::uint64_t seed,
    StoreKnobs store) {
  constexpr double f = 0.15;  // hpcc share (SimKnobs::pint_frequency)
  PathTracingConfig path_tuning;
  path_tuning.bits = 8;
  path_tuning.instances = 1;
  path_tuning.d = kHops;
  DynamicAggregationConfig queue_tuning;
  queue_tuning.max_value = kBufferBytes;
  DynamicAggregationConfig latency_tuning;
  latency_tuning.max_value = 1e8;
  DynamicAggregationConfig util_tuning;
  util_tuning.max_value = Simulator::kUtilScale * 100.0;
  PerPacketConfig cc_tuning;
  cc_tuning.eps = 0.025;
  cc_tuning.max_value = Simulator::kUtilScale * 100.0;
  PintFramework::Builder builder;
  builder.global_bit_budget(16)
      .seed(seed ^ 0x6040)
      .switch_universe(universe)
      .add_query(make_path_query("path", 8, 1.0, path_tuning))
      .add_query(make_dynamic_query("queue",
                                    std::string(extractor::kQueueOccupancy), 8,
                                    0.6 - f, queue_tuning))
      .add_query(make_dynamic_query("latency",
                                    std::string(extractor::kHopLatency), 8,
                                    0.30, latency_tuning))
      .add_query(make_perpacket_query(
          "hpcc", std::string(extractor::kLinkUtilization), 8, f, cc_tuning))
      .add_query(make_dynamic_query("util",
                                    std::string(extractor::kLinkUtilization),
                                    8, 0.10, util_tuning));
  if (store.ceiling_bytes > 0) builder.memory_ceiling_bytes(store.ceiling_bytes);
  builder.default_store_policy(store.policy);
  return builder;
}

Trace make_web_search_trace(std::uint64_t seed, std::size_t packets) {
  Fabric fabric;
  Trace trace;
  trace.seed = seed;
  trace.universe = fabric.universe;
  trace.hot_switch = static_cast<SwitchId>(
      fabric.tree.nodes.cores[seed % fabric.tree.nodes.cores.size()]);
  Rng rng(seed);
  const FlowSizeDist dist = FlowSizeDist::web_search();
  const std::size_t cap = std::max<std::size_t>(64, packets / 32);
  std::vector<std::pair<double, std::uint32_t>> arrivals;
  arrivals.reserve(packets);
  // Flow sizes come from a golden-ratio sequence over the CDF, offset by
  // the seed: every seed draws the same mix of mice and elephants, so the
  // seed moves which flows go where, not how heavy the tail is.
  double u = rng.uniform();
  std::size_t total = 0;
  while (total < packets) {
    u += 0.6180339887498949;
    u -= std::floor(u);
    const auto size = static_cast<std::size_t>(dist.sample_at(u));
    std::size_t n = std::clamp<std::size_t>((size + 1459) / 1460, 1, cap);
    n = std::min(n, packets - total);
    const auto index = static_cast<std::uint32_t>(trace.flows.size());
    FlowTruth flow = fabric.make_flow(rng, index);
    flow.packets = static_cast<std::uint32_t>(n);
    trace.flows.push_back(std::move(flow));
    // Each flow starts somewhere in the trace and paces its packets
    // evenly; long flows stretch toward the trace edge.
    const double start = rng.uniform() * 0.9;
    const double span = std::min(1.0 - start, static_cast<double>(n) * 4e-5);
    for (std::size_t j = 0; j < n; ++j) {
      arrivals.emplace_back(start + span * (static_cast<double>(j) + 0.5) /
                                        static_cast<double>(n),
                            index);
    }
    total += n;
  }
  build_packets(trace, std::move(arrivals));
  return trace;
}

Trace make_mice_trace(std::uint64_t seed, std::size_t mice,
                      std::size_t elephants, double elephant_share) {
  Fabric fabric;
  Trace trace;
  trace.seed = seed;
  trace.universe = fabric.universe;
  trace.hot_switch = static_cast<SwitchId>(
      fabric.tree.nodes.cores[seed % fabric.tree.nodes.cores.size()]);
  Rng rng(seed);
  std::vector<std::pair<double, std::uint32_t>> arrivals;
  std::size_t mice_packets = 0;
  for (std::size_t m = 0; m < mice; ++m) {
    const auto index = static_cast<std::uint32_t>(trace.flows.size());
    FlowTruth flow = fabric.make_flow(rng, index);
    flow.packets = rng.uniform() < 0.5 ? 1 : 2;
    const double t = rng.uniform();
    arrivals.emplace_back(t, index);
    if (flow.packets == 2) arrivals.emplace_back(t + rng.uniform() * 1e-4, index);
    mice_packets += flow.packets;
    trace.flows.push_back(std::move(flow));
  }
  // Elephants recur across the whole trace in trains of kTrain packets
  // (a window's worth of back-to-back segments), trains spread evenly.
  constexpr std::size_t kTrain = 32;
  const auto trains = static_cast<std::size_t>(
      static_cast<double>(mice_packets) * elephant_share /
      (1.0 - elephant_share) / static_cast<double>(elephants * kTrain));
  for (std::size_t e = 0; e < elephants; ++e) {
    const auto index = static_cast<std::uint32_t>(trace.flows.size());
    FlowTruth flow = fabric.make_flow(rng, index);
    flow.packets = static_cast<std::uint32_t>(trains * kTrain);
    for (std::size_t t = 0; t < trains; ++t) {
      const double at = (static_cast<double>(t) + rng.uniform()) /
                        static_cast<double>(trains);
      for (std::size_t j = 0; j < kTrain; ++j) {
        arrivals.emplace_back(at + static_cast<double>(j) * 2e-6, index);
      }
    }
    trace.flows.push_back(std::move(flow));
  }
  build_packets(trace, std::move(arrivals));
  return trace;
}

}  // namespace perfbench

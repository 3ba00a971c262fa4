// Seeded traffic traces for the benchmark, switch-encoded before any
// timing starts. Flows run over 5-switch fat-tree paths (k=4, cross-pod),
// each packet carries per-hop queue depth, hop latency and link
// utilization, and one planted switch holds deep queues on every packet
// that crosses it. The sink side never sees the ground truth kept here;
// the benchmark uses it only to check the sink's answers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "packet/packet.h"
#include "pint/framework.h"
#include "pint/policy.h"

namespace perfbench {

inline constexpr unsigned kHops = 5;

// Sink-side Recording-Module bound and store policy (the `tune store`
// knobs a scenario sets). Zero ceiling = unbounded, the default.
struct StoreKnobs {
  std::size_t ceiling_bytes = 0;
  pint::StorePolicyKind policy = pint::StorePolicyKind::kLru;
};

// The scenario runner's five-query detection mix at a 16-bit budget:
// path 8b@1.0, queue 8b@0.45, latency 8b@0.30, hpcc 8b@0.15, util 8b@0.10.
pint::PintFramework::Builder detection_builder(
    const std::vector<std::uint64_t>& universe, std::uint64_t seed,
    StoreKnobs store);

struct FlowTruth {
  pint::FiveTuple tuple;
  std::vector<pint::SwitchId> path;  // kHops switches, in hop order
  std::uint32_t packets = 0;
  // Exact per-hop hop-latency quantiles over the flow's packets, for each
  // of kLatencyPhis ([hop][phi]); empty for flows shorter than
  // kLatencyTruthPackets.
  std::vector<std::vector<double>> latency_truth;
};

// Flows with at least this many packets get an exact latency truth.
inline constexpr std::uint32_t kLatencyTruthPackets = 128;
inline constexpr double kLatencyPhis[] = {0.25, 0.5, 0.75, 0.9};

struct Trace {
  std::vector<pint::Packet> packets;  // encoded, in delivery order
  std::vector<FlowTruth> flows;
  std::vector<std::uint64_t> universe;  // every switch id
  pint::SwitchId hot_switch = 0;
  std::uint64_t seed = 0;
  // The switch-side framework that encoded the trace, and the trace's
  // first packets with the switch views they crossed, kept so encode
  // throughput can be re-measured at any point of a run.
  std::unique_ptr<pint::PintFramework> network;
  std::vector<pint::Packet> sample;       // digests empty, lanes reserved
  std::vector<pint::SwitchView> sample_views;  // kHops per sample packet
};

// Encodes the sample once more with `trace.network` and returns the
// at_switch throughput in Mhop/s. Only at_switch calls are timed.
double time_encode(Trace& trace);

// Heavy-tailed web-search flow sizes (1460-byte packets, flows longer
// than packets/32 truncated at the trace edge), `packets` in total.
Trace make_web_search_trace(std::uint64_t seed, std::size_t packets);

// A flood of `mice` one- or two-packet flows plus `elephants` recurring
// long flows carrying `elephant_share` of all packets.
Trace make_mice_trace(std::uint64_t seed, std::size_t mice,
                      std::size_t elephants, double elephant_share);

}  // namespace perfbench

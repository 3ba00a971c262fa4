// The four src/apps detection observers, configured as the scenario
// runner configures them, plus the record digest the identity check uses.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/anomaly_detection.h"
#include "apps/load_analysis.h"
#include "apps/microburst.h"
#include "apps/tomography.h"
#include "pint/sink_report.h"
#include "trace.h"

namespace perfbench {

class Apps {
 public:
  static constexpr std::array<std::string_view, 4> kNames = {
      "tomography", "microburst", "anomaly", "load"};

  Apps(std::uint64_t seed, StoreKnobs store)
      : tomography_(seed ^ 0x70406, store.ceiling_bytes, store.policy),
        tomo_obs_(tomography_, "queue", "path"),
        micro_obs_("queue", pint::MicroburstConfig{}, seed ^ 0xB0257,
                   store.ceiling_bytes, store.policy),
        anomaly_obs_("latency", pint::AnomalyConfig{}, store.ceiling_bytes,
                     store.policy),
        analyzer_(0.05, seed ^ 0x10AD),
        load_obs_(analyzer_, "util", "path", store.ceiling_bytes,
                  store.policy) {}

  Apps(const Apps&) = delete;
  Apps& operator=(const Apps&) = delete;

  // In kNames order.
  std::array<pint::SinkObserver*, 4> observers() {
    return {&tomo_obs_, &micro_obs_, &anomaly_obs_, &load_obs_};
  }

  // The switch with the highest p90 queue depth (the scenario runner's
  // tomography_hotspot rule).
  std::optional<pint::SwitchId> hottest(
      const std::vector<std::uint64_t>& universe) const {
    std::optional<pint::SwitchId> best;
    double best_q90 = -1.0;
    for (const std::uint64_t s : universe) {
      const auto sid = static_cast<pint::SwitchId>(s);
      const auto q90 = tomography_.queue_quantile(sid, 0.9);
      if (q90.has_value() && *q90 > best_q90) {
        best_q90 = *q90;
        best = sid;
      }
    }
    return best;
  }

 private:
  pint::QueueTomography tomography_;
  pint::TomographyObserver tomo_obs_;
  pint::MicroburstObserver micro_obs_;
  pint::AnomalyObserver anomaly_obs_;
  pint::LoadAnalyzer analyzer_;
  pint::LoadObserver load_obs_;
};

// Order-independent record digest: each record hashes to 64 bits keyed by
// its packet id; digest() sorts by packet id (stable, so one packet's
// records keep their order) and folds. Two streams with the same records
// per packet in the same per-packet order digest equal, however the
// streams of different sinks interleaved.
class DigestObserver final : public pint::SinkObserver {
 public:
  void on_observation(const pint::SinkContext& ctx, std::string_view query,
                      const pint::Observation& obs) override;
  void on_path_decoded(const pint::SinkContext& ctx, std::string_view query,
                       const std::vector<pint::SwitchId>& path) override;

  std::uint64_t records() const { return records_.size(); }
  std::uint64_t digest();

 private:
  std::vector<std::pair<pint::PacketId, std::uint64_t>> records_;
};

// Remembers the last path decoded for each flow, as the apps heard it.
class PathObserver final : public pint::SinkObserver {
 public:
  void on_path_decoded(const pint::SinkContext& ctx, std::string_view query,
                       const std::vector<pint::SwitchId>& path) override {
    if (query == "path") paths_[ctx.flow] = path;
  }
  const std::vector<pint::SwitchId>* find(std::uint64_t flow) const {
    const auto it = paths_.find(flow);
    return it == paths_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<std::uint64_t, std::vector<pint::SwitchId>> paths_;
};

}  // namespace perfbench

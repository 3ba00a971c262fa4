#include "apps.h"

#include <algorithm>
#include <cstring>
#include <variant>

#include "hash/global_hash.h"

namespace perfbench {

namespace {

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return pint::mix64(h ^ (v + 0x9E3779B97F4A7C15ULL));
}

std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

std::uint64_t head(const pint::SinkContext& ctx, std::string_view query) {
  std::uint64_t h = fold(0, ctx.packet_id);
  h = fold(h, ctx.flow);
  h = fold(h, ctx.path_length);
  for (const char c : query) h = fold(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace

void DigestObserver::on_observation(const pint::SinkContext& ctx,
                                    std::string_view query,
                                    const pint::Observation& obs) {
  std::uint64_t h = fold(head(ctx, query), obs.index());
  std::visit(
      [&h](const auto& o) {
        using T = std::decay_t<decltype(o)>;
        if constexpr (std::is_same_v<T, pint::AggregateObservation>) {
          h = fold(h, bits(o.value));
        } else if constexpr (std::is_same_v<T, pint::HopSampleObservation>) {
          h = fold(fold(h, o.hop), bits(o.value));
        } else {
          h = fold(fold(fold(h, o.resolved_hops), o.path_length), o.complete);
        }
      },
      obs);
  records_.emplace_back(ctx.packet_id, h);
}

void DigestObserver::on_path_decoded(const pint::SinkContext& ctx,
                                     std::string_view query,
                                     const std::vector<pint::SwitchId>& path) {
  std::uint64_t h = fold(head(ctx, query), 0xDA7);
  for (const pint::SwitchId s : path) h = fold(h, s);
  records_.emplace_back(ctx.packet_id, h);
}

std::uint64_t DigestObserver::digest() {
  std::stable_sort(records_.begin(), records_.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::uint64_t h = records_.size();
  for (const auto& r : records_) h = fold(h, r.second);
  return h;
}

}  // namespace perfbench

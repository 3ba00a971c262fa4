// Thin pass-throughs the benchmark puts around each layer's public entry
// point. They forward every call unchanged and only time or count it:
//  * EpochProbe (StreamIngest) sits between the CollectorDaemon and the
//    FanInCollector and stamps the moment each source's epoch completes.
//    It is the one probe that stays on in untraced fan-in runs.
//  * TimedStream (ByteStream) times SocketSenderStream::try_write.
//  * TimedObserver (SinkObserver) times a sample of one app's callbacks.
//  * CountingObserver counts the events that reached the apps: the
//    monolithic shape has no collector ledger, so its exact delivery
//    check needs this one increment per event in untraced runs too.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ledger.h"
#include "pint/sink_report.h"
#include "sim/fanin.h"
#include "transport/collector_daemon.h"
#include "transport/stream.h"

namespace perfbench {

// Span names, indexes into kSpanNames.
enum SpanName : std::uint16_t {
  kIntake,   // generator: deliver()/submit() loop of one epoch
  kFlush,    // generator: sink().flush()
  kShip,     // generator: ship_epoch()
  kWrite,    // generator: ByteStream::try_write inside ship_epoch
  kRefused,  // generator: a try_write the stream refused (backpressure)
  kWait,     // generator: waiting for the collector after the last ship
  kIngest,   // collector: one StreamIngest::ingest_stream call
  kSubmit,   // generator: one ShardedSink::submit call (monolithic shape)
  kNumSpanNames,
};
inline constexpr const char* kSpanNames[kNumSpanNames] = {
    "intake", "flush", "ship",   "write",
    "write_refused", "wait", "ingest", "submit"};

inline constexpr std::uint16_t kGeneratorThread = 0;
inline constexpr std::uint16_t kCollectorThread = 1;

// Where the generator currently is, so spans recorded inside a library
// call (a stream write inside ship_epoch) get the right parent and epoch.
struct GeneratorCursor {
  Ledger* ledger = nullptr;  // null: untraced
  std::int32_t parent = -1;
  std::uint32_t epoch = 0;
};

class EpochProbe final : public pint::StreamIngest {
 public:
  struct Completion {
    Ns at = 0;            // when ingest_stream returned with it complete
    Ns ingest_start = 0;  // start of that ingest_stream call
  };

  // Sources are numbered 1..sources. `ledger` (collector thread) records
  // one kIngest span per call when tracing; null otherwise.
  EpochProbe(pint::FanInCollector& target, unsigned sources,
             std::size_t epochs_hint, Ledger* ledger)
      : target_(target), ledger_(ledger), completions_(sources + 1),
        counts_(sources + 1) {
    for (auto& c : completions_) c.reserve(epochs_hint + 1);
  }

  void ingest_stream(std::uint32_t source,
                     std::span<const std::uint8_t> bytes) override {
    const Ns start = now_ns();
    target_.ingest_stream(source, bytes);
    const Ns end = now_ns();
    const auto* status = target_.source_status(source);
    if (ledger_ != nullptr) {
      ledger_->add(kIngest, status != nullptr ? status->current_epoch : 0,
                   start, end);
      ++ingest_calls_;
      ingest_bytes_ += bytes.size();
    }
    if (status == nullptr || source >= completions_.size()) return;
    // An epoch that closed incomplete is closed too: the run stops waiting
    // for it and the counters after the window report it.
    std::vector<Completion>& done = completions_[source];
    while (done.size() <
           status->epochs_completed + status->epochs_incomplete) {
      done.push_back({end, start});
    }
    counts_[source].store(done.size(), std::memory_order_release);
  }
  void end_stream(std::uint32_t source) override { target_.end_stream(source); }
  void disconnect_stream(std::uint32_t source) override {
    target_.disconnect_stream(source);
  }

  // Epochs source `s` has closed, complete or not (any thread).
  std::uint64_t completed(std::uint32_t source) const {
    return counts_[source].load(std::memory_order_acquire);
  }
  // Completion stamps of source `s`; read only after the collector
  // thread is joined.
  const std::vector<Completion>& completions(std::uint32_t source) const {
    return completions_[source];
  }
  std::uint64_t ingest_calls() const { return ingest_calls_; }
  std::uint64_t ingest_bytes() const { return ingest_bytes_; }

 private:
  pint::FanInCollector& target_;
  Ledger* ledger_;
  std::vector<std::vector<Completion>> completions_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::uint64_t ingest_calls_ = 0;
  std::uint64_t ingest_bytes_ = 0;
};

class TimedStream final : public pint::ByteStream {
 public:
  TimedStream(std::unique_ptr<pint::ByteStream> inner, GeneratorCursor& cursor)
      : inner_(std::move(inner)), cursor_(cursor) {}

  bool try_write(std::span<const std::uint8_t> bytes) override {
    const Ns start = now_ns();
    const bool ok = inner_->try_write(bytes);
    cursor_.ledger->add(ok ? kWrite : kRefused, cursor_.epoch, start,
                        now_ns(), cursor_.parent);
    ++attempts_;
    if (!ok) ++refused_;
    return ok;
  }
  std::size_t read(std::span<std::uint8_t> out) override {
    return inner_->read(out);
  }
  void close_write() override { inner_->close_write(); }
  bool eof() const override { return inner_->eof(); }
  std::size_t capacity() const override { return inner_->capacity(); }

  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t refused() const { return refused_; }

 private:
  std::unique_ptr<pint::ByteStream> inner_;
  GeneratorCursor& cursor_;
  std::uint64_t attempts_ = 0;
  std::uint64_t refused_ = 0;
};

// Times a random one in kSampleEvery callbacks of one app (two clock
// reads on every call would cost as much as the cheaper apps) and scales
// the sample to all calls. Random, not every n-th: the event stream is
// periodic (a path observation, then a value one), and a fixed stride
// would time only one kind. The clock's own cost is taken off each sample.
class TimedObserver final : public pint::SinkObserver {
 public:
  static constexpr std::uint64_t kSampleEvery = 8;

  explicit TimedObserver(pint::SinkObserver& inner)
      : inner_(inner), clock_cost_(clock_overhead_ns()) {}

  void on_observation(const pint::SinkContext& ctx, std::string_view query,
                      const pint::Observation& obs) override {
    if (!sample()) {
      inner_.on_observation(ctx, query, obs);
      return;
    }
    const Ns start = now_ns();
    inner_.on_observation(ctx, query, obs);
    record(now_ns() - start);
  }
  void on_path_decoded(const pint::SinkContext& ctx, std::string_view query,
                       const std::vector<pint::SwitchId>& path) override {
    if (!sample()) {
      inner_.on_path_decoded(ctx, query, path);
      return;
    }
    const Ns start = now_ns();
    inner_.on_path_decoded(ctx, query, path);
    record(now_ns() - start);
  }
  void on_memory_report(const pint::MemoryReport& report) override {
    inner_.on_memory_report(report);
  }

  std::uint64_t events() const { return events_; }
  double ns_per_event() const {
    return sampled_ == 0 ? 0.0
                         : static_cast<double>(sampled_ns_) /
                               static_cast<double>(sampled_);
  }
  double estimated_ns() const {
    return ns_per_event() * static_cast<double>(events_);
  }

 private:
  bool sample() {
    ++events_;
    rng_ ^= rng_ << 13;  // xorshift64
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_ % kSampleEvery == 0;
  }
  void record(Ns ns) {
    sampled_ns_ += ns > clock_cost_ ? ns - clock_cost_ : 0;
    ++sampled_;
  }

  pint::SinkObserver& inner_;
  Ns clock_cost_;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ULL;
  std::uint64_t events_ = 0;
  std::uint64_t sampled_ = 0;
  Ns sampled_ns_ = 0;
};

class CountingObserver final : public pint::SinkObserver {
 public:
  void on_observation(const pint::SinkContext&, std::string_view,
                      const pint::Observation&) override {
    ++events_;
  }
  void on_path_decoded(const pint::SinkContext&, std::string_view,
                       const std::vector<pint::SwitchId>&) override {
    ++events_;
  }
  std::uint64_t events() const { return events_; }

 private:
  std::uint64_t events_ = 0;
};

}  // namespace perfbench

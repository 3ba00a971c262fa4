// The two pipeline shapes the workloads drive, each built once per
// repetition from production parts with production defaults:
//
//  FaninRig:  generator -> 2 x FanInSender (1-shard ShardedSink ->
//             priority-class ReportEncoder -> FrameWriter) ->
//             SocketSenderStream --unix socket--> CollectorDaemon
//             (poll_once loop on a benchmark thread) -> FanInCollector ->
//             the four apps.               4 threads, 2 connections.
//  MonoRig:   generator -> ShardedSink (3 shards) -> the four apps via
//             add_observer.                4 threads, no transport.
//
// Construction is the set-up the benchmark times (`setup_s`); run_*()
// is the timed window; finish() tears down outside the window.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps.h"
#include "ledger.h"
#include "pint/sharded_sink.h"
#include "probes.h"
#include "sim/fanin.h"
#include "trace.h"
#include "transport/collector_daemon.h"

namespace perfbench {

// What one repetition measured. Times are steady-clock nanoseconds.
struct RepTimes {
  Ns first = 0;  // first packet handed to the sink
  Ns end = 0;    // last epoch complete (collector) / last flush returned
  std::vector<Ns> sched;  // each epoch's scheduled close
  std::vector<Ns> done;   // each epoch's completion
  std::vector<Ns> late;   // generator lateness samples
  // Traced runs only: per-epoch stage times of the epoch ledger.
  std::vector<Ns> flush_ns, ship_ns, transit_ns, ingest_ns;
};

class FaninRig {
 public:
  static constexpr unsigned kSinks = 2;

  // `extras` are attached to the collector after the apps.
  FaninRig(const Trace& trace, const std::string& socket_path, bool traced,
           const std::vector<pint::SinkObserver*>& extras = {});
  ~FaninRig();
  FaninRig(const FaninRig&) = delete;
  FaninRig& operator=(const FaninRig&) = delete;

  // Closed loop: fixed-size epochs of `epoch_packets`, as fast as
  // deliver() accepts.
  void run_closed(std::size_t epoch_packets);
  // Open loop: packet i due at first + i / rate, epochs closing every
  // `epoch_ns` of schedule time.
  void run_paced(double rate_pps, Ns epoch_ns);
  // Closes the streams, waits for the daemon to see both ends, joins the
  // collector thread. The collector is safe to read afterwards.
  void finish();

  const RepTimes& times() const { return times_; }
  const pint::FanInCollector& collector() const { return collector_; }
  const Apps& apps() const { return apps_; }
  pint::FanInSender& sender(unsigned i) { return *senders_[i]; }
  unsigned sink_of(const pint::FiveTuple& tuple) const;
  std::uint64_t epochs() const { return times_.sched.size(); }

  // Traced runs only.
  const Ledger& generator_ledger() const { return gen_ledger_; }
  const Ledger& collector_ledger() const { return coll_ledger_; }
  const EpochProbe& probe() const { return probe_; }
  const std::vector<std::unique_ptr<TimedObserver>>& timed_apps() const {
    return timed_apps_;
  }
  std::uint64_t write_attempts() const;
  std::uint64_t write_refused() const;

 private:
  void deliver(const pint::Packet& packet);
  void close_epoch(std::uint32_t epoch, Ns sched);
  void wait_complete();
  void stop_loop();

  const Trace& trace_;
  const bool traced_;
  Apps apps_;
  std::vector<std::unique_ptr<TimedObserver>> timed_apps_;
  pint::FanInCollector collector_;
  Ledger coll_ledger_{kCollectorThread};
  EpochProbe probe_;
  pint::CollectorDaemon daemon_;
  std::atomic<bool> stop_{false};
  std::thread loop_;
  Ledger gen_ledger_{kGeneratorThread};
  GeneratorCursor cursor_;
  std::vector<TimedStream*> timed_streams_;
  std::vector<std::unique_ptr<pint::FanInSender>> senders_;
  pint::FlowDefinition partition_ = pint::FlowDefinition::kFiveTuple;
  RepTimes times_;
  std::vector<std::vector<Ns>> ship_end_;  // [sink][epoch], traced only
};

class MonoRig {
 public:
  static constexpr unsigned kShards = 3;

  // `extras` are attached to the sink after the apps.
  MonoRig(const Trace& trace, StoreKnobs store, bool traced,
          const std::vector<pint::SinkObserver*>& extras = {});
  MonoRig(const MonoRig&) = delete;
  MonoRig& operator=(const MonoRig&) = delete;

  // Closed loop: submit() in batches of kBatch, flush() every
  // `epoch_packets` (the reporting interval).
  void run_closed(std::size_t epoch_packets);

  static constexpr std::size_t kBatch = 256;

  const RepTimes& times() const { return times_; }
  const Apps& apps() const { return apps_; }
  const pint::ShardedSink& sink() const { return sink_; }
  std::uint64_t delivered() const { return counter_.events(); }
  std::uint64_t epochs() const { return times_.sched.size(); }
  const Ledger& generator_ledger() const { return gen_ledger_; }
  const std::vector<std::unique_ptr<TimedObserver>>& timed_apps() const {
    return timed_apps_;
  }

 private:
  const Trace& trace_;
  const bool traced_;
  Apps apps_;
  std::vector<std::unique_ptr<TimedObserver>> timed_apps_;
  CountingObserver counter_;
  pint::ShardedSink sink_;
  Ledger gen_ledger_{kGeneratorThread};
  RepTimes times_;
};

}  // namespace perfbench

#include "rigs.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>

#include "transport/sender.h"

namespace perfbench {

using namespace pint;

namespace {

constexpr auto kConnectTimeout = std::chrono::seconds(5);
constexpr auto kDrainTimeout = std::chrono::seconds(30);

CollectorDaemonConfig daemon_config(const std::string& socket_path) {
  CollectorDaemonConfig dc;
  dc.unix_path = socket_path;
  return dc;
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Spins until `t`; returns the time it saw at or after `t` (or now, when
// `t` already passed).
Ns wait_until(Ns t) {
  Ns now = now_ns();
  while (now < t) {
    cpu_relax();
    now = now_ns();
  }
  return now;
}

void attach_apps(Apps& apps, bool traced,
                 std::vector<std::unique_ptr<TimedObserver>>& timed,
                 const auto& add) {
  for (SinkObserver* app : apps.observers()) {
    if (traced) {
      timed.push_back(std::make_unique<TimedObserver>(*app));
      add(timed.back().get());
    } else {
      add(app);
    }
  }
}

}  // namespace

// --- FaninRig ---------------------------------------------------------------

FaninRig::FaninRig(const Trace& trace, const std::string& socket_path,
                   bool traced, const std::vector<SinkObserver*>& extras)
    : trace_(trace),
      traced_(traced),
      apps_(trace.seed, {}),
      probe_(collector_, kSinks, trace.packets.size() / 256 + 16,
             traced ? &coll_ledger_ : nullptr),
      daemon_(probe_, daemon_config(socket_path)),
      ship_end_(kSinks) {
  attach_apps(apps_, traced_, timed_apps_,
              [this](SinkObserver* o) { collector_.add_observer(o); });
  for (SinkObserver* o : extras) collector_.add_observer(o);
  loop_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) daemon_.poll_once(100);
  });
  try {
    if (traced_) cursor_.ledger = &gen_ledger_;
    const PintFramework::Builder builder =
        detection_builder(trace.universe, trace.seed, {});
    // Production fan-in settings (the scenario runner's): one shard per
    // sink host, 256-packet submit batches, 256-record payload frames.
    FanInSender::Config cfg;
    cfg.shards = 1;
    cfg.batch_size = 256;
    cfg.max_frame_records = 256;
    for (unsigned i = 0; i < kSinks; ++i) {
      SocketSenderConfig sc;
      sc.unix_path = socket_path;
      sc.source = i + 1;
      auto socket = std::make_unique<SocketSenderStream>(std::move(sc));
      if (!socket->wait_connected(
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  kConnectTimeout))) {
        throw std::runtime_error("sink could not connect to the collector");
      }
      std::unique_ptr<ByteStream> stream = std::move(socket);
      if (traced_) {
        auto timed = std::make_unique<TimedStream>(std::move(stream), cursor_);
        timed_streams_.push_back(timed.get());
        stream = std::move(timed);
      }
      senders_.push_back(std::make_unique<FanInSender>(builder, i + 1,
                                                       std::move(stream), cfg));
    }
    partition_ = senders_[0]->sink().partition_definition();
  } catch (...) {
    stop_loop();
    throw;
  }
}

FaninRig::~FaninRig() {
  // The collector thread must be gone before the daemon and the
  // collector it feeds are destroyed.
  stop_loop();
}

void FaninRig::stop_loop() {
  stop_.store(true, std::memory_order_release);
  daemon_.stop();
  if (loop_.joinable()) loop_.join();
}

unsigned FaninRig::sink_of(const FiveTuple& tuple) const {
  return FanInPipeline::route_sink(tuple, partition_, kSinks);
}

void FaninRig::deliver(const Packet& packet) {
  senders_[sink_of(packet.tuple)]->deliver(packet, kHops);
}

void FaninRig::close_epoch(std::uint32_t epoch, Ns sched) {
  times_.sched.push_back(sched);
  if (!traced_) {
    for (auto& sender : senders_) sender->ship_epoch();
    return;
  }
  Ns flush = 0;
  Ns ship = 0;
  for (unsigned i = 0; i < kSinks; ++i) {
    const std::int32_t f = gen_ledger_.open(kFlush, epoch);
    senders_[i]->sink().flush();
    gen_ledger_.close(f);
    const std::int32_t s = gen_ledger_.open(kShip, epoch);
    cursor_.parent = s;
    cursor_.epoch = epoch;
    senders_[i]->ship_epoch();
    gen_ledger_.close(s);
    cursor_.parent = -1;
    const Span& fs = gen_ledger_.spans()[f];
    const Span& ss = gen_ledger_.spans()[s];
    flush += fs.duration();
    ship += ss.duration();
    ship_end_[i].push_back(ss.end);
  }
  times_.flush_ns.push_back(flush);
  times_.ship_ns.push_back(ship);
}

void FaninRig::run_closed(std::size_t epoch_packets) {
  const std::vector<Packet>& packets = trace_.packets;
  times_.first = now_ns();
  std::uint32_t epoch = 0;
  for (std::size_t lo = 0; lo < packets.size(); lo += epoch_packets, ++epoch) {
    const std::size_t hi = std::min(packets.size(), lo + epoch_packets);
    const std::int32_t in = traced_ ? gen_ledger_.open(kIntake, epoch) : -1;
    for (std::size_t i = lo; i < hi; ++i) deliver(packets[i]);
    if (traced_) gen_ledger_.close(in);
    // Closed loop: the next packet is due the moment this epoch's last
    // one was delivered, so the close is the stall it waits through.
    const Ns close = now_ns();
    close_epoch(epoch, close);
    times_.late.push_back(now_ns() - close);
  }
  wait_complete();
}

void FaninRig::run_paced(double rate_pps, Ns epoch_ns) {
  const std::vector<Packet>& packets = trace_.packets;
  const double gap = 1e9 / rate_pps;
  const Ns t0 = now_ns();
  times_.first = t0;
  Ns next_close = t0 + epoch_ns;
  std::uint32_t epoch = 0;
  std::int32_t in = traced_ ? gen_ledger_.open(kIntake, epoch) : -1;
  const auto close_due_epoch = [&] {
    wait_until(next_close);
    if (traced_) gen_ledger_.close(in);
    close_epoch(epoch, next_close);
    ++epoch;
    next_close += epoch_ns;
  };
  times_.late.reserve(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const Ns due = due_time(t0, i, gap);
    while (due >= next_close) {
      close_due_epoch();
      if (traced_) in = gen_ledger_.open(kIntake, epoch);
    }
    times_.late.push_back(lateness(due, wait_until(due)));
    deliver(packets[i]);
  }
  close_due_epoch();
  wait_complete();
}

void FaninRig::wait_complete() {
  const std::uint64_t epochs = times_.sched.size();
  const std::int32_t w =
      traced_ ? gen_ledger_.open(kWait, static_cast<std::uint32_t>(epochs))
              : -1;
  const auto deadline = std::chrono::steady_clock::now() + kDrainTimeout;
  for (std::uint32_t s = 1; s <= kSinks; ++s) {
    while (probe_.completed(s) < epochs) {
      if (std::chrono::steady_clock::now() > deadline) {
        throw std::runtime_error("collector did not complete every epoch");
      }
      std::this_thread::yield();
    }
  }
  if (traced_) gen_ledger_.close(w);
  // The acquire loads above make every completion stamp up to `epochs`
  // visible here.
  times_.done.assign(epochs, 0);
  for (std::uint32_t s = 1; s <= kSinks; ++s) {
    const auto& stamps = probe_.completions(s);
    for (std::uint64_t e = 0; e < epochs; ++e) {
      times_.done[e] = std::max(times_.done[e], stamps[e].at);
    }
  }
  times_.end = times_.done.empty() ? now_ns() : times_.done.back();
}

void FaninRig::finish() {
  for (auto& sender : senders_) sender->close();
  const auto deadline = std::chrono::steady_clock::now() + kDrainTimeout;
  while (daemon_.sources_ended() < kSinks &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop_loop();
  if (!traced_) return;
  // Epoch ledger: the source that completed last decides the epoch; its
  // transit runs from its ship end to the start of the completing ingest.
  for (std::uint64_t e = 0; e < times_.sched.size(); ++e) {
    std::uint32_t last = 1;
    for (std::uint32_t s = 2; s <= kSinks; ++s) {
      if (probe_.completions(s)[e].at > probe_.completions(last)[e].at) {
        last = s;
      }
    }
    const EpochProbe::Completion& c = probe_.completions(last)[e];
    times_.transit_ns.push_back(
        std::max<Ns>(0, c.ingest_start - ship_end_[last - 1][e]));
    times_.ingest_ns.push_back(c.at - c.ingest_start);
  }
}

std::uint64_t FaninRig::write_attempts() const {
  std::uint64_t n = 0;
  for (const TimedStream* s : timed_streams_) n += s->attempts();
  return n;
}

std::uint64_t FaninRig::write_refused() const {
  std::uint64_t n = 0;
  for (const TimedStream* s : timed_streams_) n += s->refused();
  return n;
}

// --- MonoRig ----------------------------------------------------------------

MonoRig::MonoRig(const Trace& trace, StoreKnobs store, bool traced,
                 const std::vector<SinkObserver*>& extras)
    : trace_(trace),
      traced_(traced),
      apps_(trace.seed, store),
      sink_(detection_builder(trace.universe, trace.seed, store), kShards) {
  attach_apps(apps_, traced_, timed_apps_,
              [this](SinkObserver* o) { sink_.add_observer(o); });
  sink_.add_observer(&counter_);
  for (SinkObserver* o : extras) sink_.add_observer(o);
}

void MonoRig::run_closed(std::size_t epoch_packets) {
  const std::span<const Packet> packets(trace_.packets);
  times_.first = now_ns();
  std::uint32_t epoch = 0;
  for (std::size_t lo = 0; lo < packets.size(); lo += epoch_packets, ++epoch) {
    const std::size_t hi = std::min(packets.size(), lo + epoch_packets);
    const std::int32_t in = traced_ ? gen_ledger_.open(kIntake, epoch) : -1;
    for (std::size_t b = lo; b < hi; b += kBatch) {
      const auto batch = packets.subspan(b, std::min(kBatch, hi - b));
      if (traced_) {
        const Ns start = now_ns();
        sink_.submit(batch, kHops);
        gen_ledger_.add(kSubmit, epoch, start, now_ns(), in);
      } else {
        sink_.submit(batch, kHops);
      }
    }
    if (traced_) gen_ledger_.close(in);
    const Ns close = now_ns();
    times_.sched.push_back(close);
    const std::int32_t f = traced_ ? gen_ledger_.open(kFlush, epoch) : -1;
    sink_.flush();
    if (traced_) gen_ledger_.close(f);
    const Ns done = now_ns();
    times_.done.push_back(done);
    times_.late.push_back(done - close);
    if (traced_) times_.flush_ns.push_back(done - close);
  }
  times_.end = times_.done.empty() ? now_ns() : times_.done.back();
}

}  // namespace perfbench

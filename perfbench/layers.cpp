// Direct layer drives: each layer's public entry points called on the
// workload's own inputs, outside any replay. The mirror windows the Data
// Engine grants on the workload's trace feed every downstream layer, so each
// drive sees the feature sequences, flow keys and emission times the replay
// would hand it.
#include <algorithm>
#include <array>
#include <thread>

#include "perfbench.hpp"
#include "core/admission_controller.hpp"
#include "core/data_engine.hpp"
#include "core/lane_coordination.hpp"
#include "core/model_engine.hpp"
#include "core/model_pool.hpp"
#include "net/hash.hpp"
#include "net/reliable_link.hpp"
#include "nn/featurizer.hpp"
#include "runtime/mpsc_queue.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/channel.hpp"

namespace perfbench {
namespace {

using namespace fenix;

/// Each drive repeats its pass until it has spent at least this long, so a
/// short pass still averages over many calls.
constexpr double kMinDriveSeconds = 0.25;

/// Cap on the captured mirror windows (fig10_saturation grants ~160k).
constexpr std::size_t kMaxWindows = 40000;

/// Runs `pass` (which returns the number of operations it performed) until
/// kMinDriveSeconds have elapsed; returns host nanoseconds per operation.
template <typename Pass>
double ns_per_op(Pass&& pass) {
  std::uint64_t ops = 0;
  double elapsed = 0.0;
  do {
    const auto start = Clock::now();
    ops += pass();
    elapsed += seconds_since(start);
  } while (elapsed < kMinDriveSeconds);
  return ops == 0 ? 0.0 : elapsed * 1e9 / static_cast<double>(ops);
}

std::size_t lane_of(const net::FiveTuple& tuple, unsigned index_bits) {
  return core::lane_of_slot(net::flow_index(tuple, index_bits));
}

/// DataEngine::on_packet over the whole trace with the barrier cadence the
/// serial replay uses (epoch_reconcile + control_plane_tick every reconcile
/// quantum of trace time). Returns the grant count; appends up to `cap`
/// granted windows to `windows` when given.
std::uint64_t data_engine_pass(const Workload& w,
                               std::vector<net::FeatureVector>* windows) {
  core::FenixSystem system(w.config, w.qcnn.get(), nullptr);
  core::DataEngine& de = system.data_engine();
  const sim::SimDuration quantum =
      std::max<sim::SimDuration>(1, w.config.reconcile_quantum);
  sim::SimTime last_epoch = 0;
  bool first = true;
  for (const net::PacketRecord& packet : w.trace.packets) {
    const sim::SimTime ts = packet.timestamp;
    if (first || ts >= last_epoch + quantum) {
      de.epoch_reconcile(ts);
      de.control_plane_tick(ts);
      last_epoch = ts;
      first = false;
    }
    const core::DataEngineOutput out = de.on_packet(packet);
    if (windows != nullptr && out.mirrored != nullptr &&
        windows->size() < kMaxWindows) {
      windows->push_back(*out.mirrored);
    }
  }
  return de.mirrors_sent();
}

}  // namespace

std::size_t drive_layers(const Workload& w, std::size_t threads,
                         Metrics& out) {
  std::size_t failures = 0;
  const unsigned index_bits = w.config.data_engine.tracker.index_bits;
  const std::size_t packets = w.trace.packets.size();
  const std::size_t seq_len = w.qcnn->config().seq_len;

  // ---- Data Engine (the first pass also captures the mirror windows).
  std::vector<net::FeatureVector> windows;
  const std::uint64_t grants = data_engine_pass(w, &windows);
  const double de_ns = ns_per_op([&] {
    if (data_engine_pass(w, nullptr) != grants) ++failures;  // deterministic
    return packets;
  });
  out.push_back({"data_engine.ns_per_pkt", de_ns, "ns"});
  out.push_back({"data_engine.grant_ratio",
                 static_cast<double>(grants) / static_cast<double>(packets),
                 "ratio"});
  const std::size_t n = windows.size();
  if (n == 0) return failures + 1;  // every workload grants mirrors

  // ---- DNN compute: scalar predict, then predict_batch at batch 16, which
  // must agree with it class for class.
  std::vector<std::vector<nn::Token>> tokens;
  tokens.reserve(n);
  std::vector<nn::Token> flat;
  flat.reserve(n * seq_len);
  for (const net::FeatureVector& v : windows) {
    tokens.push_back(nn::tokenize(v.sequence, seq_len));
    flat.insert(flat.end(), tokens.back().begin(), tokens.back().end());
  }
  std::vector<std::int16_t> scalar(n);
  nn::Scratch scratch;
  out.push_back({"nn.predict_ns", ns_per_op([&] {
                   for (std::size_t i = 0; i < n; ++i) {
                     scalar[i] = w.qcnn->predict(tokens[i], scratch);
                   }
                   return n;
                 }),
                 "ns"});
  std::vector<std::int16_t> batched(n);
  out.push_back({"nn.batch16_ns", ns_per_op([&] {
                   for (std::size_t b = 0; b < n; b += 16) {
                     w.qcnn->predict_batch(flat.data() + b * seq_len,
                                           std::min<std::size_t>(16, n - b),
                                           scratch, batched.data() + b);
                   }
                   return n;
                 }),
                 "ns"});
  if (batched != scalar) ++failures;

  // ---- InferenceBatcher with the replay's worker count (threads - 1).
  double batcher_s = 0.0;
  std::uint64_t batcher_n = 0;
  do {
    const auto start = Clock::now();
    core::InferenceBatcher batcher(w.qcnn.get(), nullptr, 16,
                                   threads > 1 ? threads - 1 : 0);
    std::vector<core::InferenceBatcher::Ticket> tickets;
    tickets.reserve(n);
    for (const net::FeatureVector& v : windows) {
      tickets.push_back(batcher.enqueue(v.sequence));
    }
    batcher.finish();
    batcher_s += seconds_since(start);
    batcher_n += n;
    for (std::size_t i = 0; i < n; ++i) {
      if (batcher.result(tickets[i]) != scalar[i]) {
        ++failures;
        break;
      }
    }
  } while (batcher_s < kMinDriveSeconds);
  out.push_back({"batcher.inf_per_s",
                 static_cast<double>(batcher_n) / batcher_s, "1/s"});

  // ---- Model Engine lane admission (timing/FIFO only) at emission times.
  std::vector<std::uint8_t> dropped(n, 0);
  std::uint64_t drops = 0;
  out.push_back({"model_engine.submit_ns", ns_per_op([&] {
                   core::ModelEngine engine(w.config.model_engine,
                                            w.qcnn.get(), nullptr);
                   drops = 0;
                   for (std::size_t i = 0; i < n; ++i) {
                     const net::FeatureVector& v = windows[i];
                     const bool ok = engine
                                         .submit_timed_lane(
                                             lane_of(v.tuple, index_bits), v,
                                             v.emitted_at)
                                         .has_value();
                     dropped[i] = ok ? 0 : 1;
                     drops += ok ? 0 : 1;
                   }
                   return n;
                 }),
                 "ns"});
  out.push_back({"model_engine.drop_ratio",
                 static_cast<double>(drops) / static_cast<double>(n), "ratio"});

  // ---- ReliableLink::send over the lane-striped switch->FPGA fabric.
  const double lane_bps = w.config.pcb_channel_bps /
                          static_cast<double>(core::kCoordinationLanes);
  net::ReliableLink::Config link_cfg = w.config.link;
  link_cfg.nack_rate_hz /= static_cast<double>(core::kCoordinationLanes);
  link_cfg.nack_burst = std::max(
      1.0, link_cfg.nack_burst / static_cast<double>(core::kCoordinationLanes));
  out.push_back({"link.send_ns", ns_per_op([&] {
                   std::vector<std::unique_ptr<sim::Channel>> channels;
                   std::vector<std::unique_ptr<net::ReliableLink>> links;
                   for (std::size_t lane = 0; lane < core::kCoordinationLanes;
                        ++lane) {
                     channels.push_back(std::make_unique<sim::Channel>(
                         lane_bps, w.config.pcb_propagation,
                         w.config.pcb_loss_rate, 0x70f6 + lane));
                     links.push_back(std::make_unique<net::ReliableLink>(
                         *channels.back(), link_cfg));
                   }
                   for (const net::FeatureVector& v : windows) {
                     const net::SendOutcome sent =
                         links[lane_of(v.tuple, index_bits)]->send(
                             v.emitted_at, v.wire_bytes());
                     if (!sent.delivered_at && w.config.pcb_loss_rate == 0.0) {
                       ++failures;  // a lossless fabric delivers every frame
                     }
                   }
                   return n;
                 }),
                 "ns"});

  // ---- Admission ladder: every captured window is a Rate Limiter grant.
  // Barrier folds run on the reconcile quantum, fed the lane FIFO drops the
  // Model Engine drive saw, and are included in the per-grant time.
  const sim::SimDuration quantum =
      std::max<sim::SimDuration>(1, w.config.reconcile_quantum);
  core::AdmissionConfig adm_cfg = w.config.admission;
  adm_cfg.table_slots = std::size_t{1} << index_bits;
  out.push_back({"admission.on_grant_ns", ns_per_op([&] {
                   core::AdmissionController adm(adm_cfg);
                   std::array<std::uint64_t, core::kCoordinationLanes> cum{};
                   sim::SimTime last_epoch = windows.front().emitted_at;
                   for (std::size_t i = 0; i < n; ++i) {
                     const net::FeatureVector& v = windows[i];
                     if (v.emitted_at >= last_epoch + quantum) {
                       for (std::size_t l = 0; l < cum.size(); ++l) {
                         adm.observe_lane(l, cum[l], 0);
                       }
                       adm.reconcile(v.emitted_at);
                       last_epoch = v.emitted_at;
                     }
                     const std::uint32_t slot =
                         net::flow_index(v.tuple, index_bits);
                     const std::size_t lane = core::lane_of_slot(slot);
                     if (adm.on_grant(lane, net::flow_hash32(v.tuple), slot,
                                      v.tuple.dst_ip)) {
                       adm.note_admitted(lane);
                       cum[lane] += dropped[i];
                     }
                   }
                   return n;
                 }),
                 "ns"});

  // ---- Thread-pool barrier: dispatch 4 empty pipe tasks, wait.
  {
    runtime::ThreadPool pool(threads);
    std::vector<double> us;
    const auto start = Clock::now();
    while (seconds_since(start) < kMinDriveSeconds || us.size() < 100) {
      const auto t0 = Clock::now();
      for (int p = 0; p < 4; ++p) pool.submit([] {});
      pool.wait();
      us.push_back(seconds_since(t0) * 1e6);
    }
    out.push_back({"runtime.barrier_us", median(us), "us"});
  }

  // ---- MPSC fan-in: threads - 1 producers, one consumer.
  {
    constexpr std::uint64_t kPerProducer = 200000;
    const std::size_t producers = std::max<std::size_t>(1, threads - 1);
    runtime::MpscQueue<std::uint64_t> queue(1 << 14);
    const std::uint64_t total = kPerProducer * producers;
    std::uint64_t popped = 0;
    std::uint64_t sum = 0;
    const auto start = Clock::now();
    {
      std::vector<std::jthread> workers;
      for (std::size_t p = 0; p < producers; ++p) {
        workers.emplace_back([&queue] {
          for (std::uint64_t i = 1; i <= kPerProducer; ++i) {
            std::uint64_t item = i;
            while (!queue.try_push(item)) std::this_thread::yield();
          }
        });
      }
      while (popped < total) {
        if (auto item = queue.try_pop()) {
          sum += *item;
          ++popped;
        }
      }
    }  // producers joined
    const double s = seconds_since(start);
    if (sum != producers * kPerProducer * (kPerProducer + 1) / 2) ++failures;
    out.push_back({"runtime.mpsc_ns",
                   s * 1e9 / static_cast<double>(total), "ns"});
  }
  return failures;
}

}  // namespace perfbench

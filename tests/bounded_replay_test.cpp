// Bounded-memory replay: the InferenceBatcher seals and retires batches
// round by round, and a replay's per-barrier record and batch peaks depend
// on the epoch size, not on the trace length. Both are checked against the
// containers a replay that kept every record and batch to the end would
// hold. A pinned per-flow confusion matrix checks that resolve() folds the
// epochs still held at the end oldest first.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <array>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "core/fenix_system.hpp"
#include "core/model_pool.hpp"
#include "trafficgen/synthesizer.hpp"

namespace fenix::core {
namespace {

class BoundedReplayTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    profile_ = new trafficgen::DatasetProfile(trafficgen::DatasetProfile::iscx_vpn());
    trafficgen::SynthesisConfig synth;
    synth.total_flows = 300;
    synth.seed = 23;
    const auto flows = trafficgen::synthesize_flows(*profile_, synth);
    nn::CnnConfig config;
    config.conv_channels = {8};
    config.fc_dims = {16};
    config.num_classes = profile_->num_classes();
    model_ = new nn::CnnClassifier(config, 11);
    const auto samples = trafficgen::make_packet_samples(flows, 9, 6, 3);
    nn::TrainOptions opts;
    opts.epochs = 1;
    model_->fit(samples, opts);
    quantized_ = new nn::QuantizedCnn(*model_, samples);
  }

  static void TearDownTestSuite() {
    delete quantized_;
    delete model_;
    delete profile_;
  }

  static trafficgen::DatasetProfile* profile_;
  static nn::CnnClassifier* model_;
  static nn::QuantizedCnn* quantized_;
};

trafficgen::DatasetProfile* BoundedReplayTest::profile_ = nullptr;
nn::CnnClassifier* BoundedReplayTest::model_ = nullptr;
nn::QuantizedCnn* BoundedReplayTest::quantized_ = nullptr;

TEST_F(BoundedReplayTest, BatcherSealsAndRetiresRoundByRound) {
  constexpr std::size_t kBatch = 16;
  constexpr std::size_t kRounds = 300;
  std::mt19937 rng(5);
  nn::Scratch scratch;
  std::vector<nn::Token> tokens;
  for (std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
    InferenceBatcher batcher(quantized_, nullptr, kBatch, workers);
    // Every ticket handed out, with the class scalar predict gives it.
    std::vector<std::pair<InferenceBatcher::Ticket, std::int16_t>> expected;
    std::size_t checked = 0;
    // Tickets handed out up to the end of the last two rounds: the seal of
    // each round reaches the round two back, as the replay's barriers do.
    std::array<InferenceBatcher::Ticket, 2> marks{};
    std::size_t peak_live = 0;
    for (std::size_t round = 0; round < kRounds; ++round) {
      const std::size_t n = rng() % 41;
      for (std::size_t i = 0; i < n; ++i) {
        std::vector<net::PacketFeature> seq(1 + rng() % 9);
        for (net::PacketFeature& f : seq) {
          f.length = static_cast<std::uint16_t>(40 + rng() % 1460);
          f.ipd_code = static_cast<std::uint16_t>(rng() % 1024);
        }
        nn::tokenize_into(seq, quantized_->config().seq_len, tokens);
        expected.emplace_back(batcher.enqueue(seq),
                              quantized_->predict(tokens, scratch));
      }
      const InferenceBatcher::Ticket next = batcher.next_ticket();
      const InferenceBatcher::Ticket open_first = next - next % kBatch;
      const InferenceBatcher::Ticket mark = marks[1];
      const InferenceBatcher::Ticket after = batcher.seal(mark);
      if (mark <= open_first) {
        EXPECT_EQ(after, next) << "a seal below the open batch dispatched it";
      } else {
        EXPECT_EQ(after, open_first + kBatch);
      }
      for (; checked < expected.size() && expected[checked].first < mark;
           ++checked) {
        ASSERT_EQ(batcher.result(expected[checked].first),
                  expected[checked].second)
            << "workers " << workers << " ticket " << expected[checked].first;
      }
      peak_live = std::max(peak_live, batcher.live_batches());
      batcher.retire(mark);
      // Only the batches from the one holding `mark` on stay alive.
      EXPECT_LE(batcher.live_batches(),
                (batcher.next_ticket() - mark) / kBatch + 2);
      marks = {after, marks[0]};
    }
    batcher.finish();
    for (; checked < expected.size(); ++checked) {
      ASSERT_EQ(batcher.result(expected[checked].first),
                expected[checked].second)
          << "workers " << workers << " ticket " << expected[checked].first;
    }
    // Three rounds of at most 40 tickets, each padded to a batch boundary
    // at most once, span at most 11 batches; a batcher that kept every
    // batch would hold one per 16 tickets handed out.
    const std::size_t kept_all = (batcher.next_ticket() + kBatch - 1) / kBatch;
    std::printf("workers %zu: peak live batches %zu, keeping all %zu\n",
                workers, peak_live, kept_all);
    EXPECT_LE(peak_live, 11u);
    EXPECT_GT(kept_all, 20 * peak_live);
  }
}

/// Largest number of packets between two of run_pipelined's barriers.
std::size_t max_epoch_packets(const net::Trace& trace,
                              sim::SimDuration quantum) {
  std::size_t peak = 0;
  std::size_t in_epoch = 0;
  sim::SimTime last = 0;
  for (std::size_t i = 0; i < trace.packets.size(); ++i) {
    const sim::SimTime ts = trace.packets[i].timestamp;
    if (i == 0 || ts >= last + quantum) {
      last = ts;
      in_epoch = 0;
    }
    peak = std::max(peak, ++in_epoch);
  }
  return peak;
}

TEST_F(BoundedReplayTest, PeaksTrackEpochSizeNotTraceLength) {
  FenixSystemConfig config;
  config.data_engine.tracker.index_bits = 14;
  config.data_engine.window_tw = sim::milliseconds(20);
  PipelineOptions opts;
  opts.pipes = 4;
  for (const std::size_t flows : {std::size_t{400}, std::size_t{1600}}) {
    trafficgen::SynthesisConfig synth;
    synth.total_flows = flows;
    synth.seed = 31;
    synth.max_pkts_per_flow = 48;
    trafficgen::TraceConfig trace_config;
    // The same arrival rate at both sizes; compressed intra-flow gaps let
    // the concurrency settle early, so both traces have about the same
    // epoch size and the larger one is four times as long.
    trace_config.flow_arrival_rate_hz = 2500;
    trace_config.gap_time_scale = 1.0 / 40.0;
    const net::Trace trace = trafficgen::assemble_trace(
        trafficgen::synthesize_flows(*profile_, synth), trace_config);

    FenixSystem serial_sys(config, quantized_, nullptr);
    const RunReport serial = serial_sys.run(trace, profile_->num_classes());
    FenixSystem par_sys(config, quantized_, nullptr);
    const RunReport parallel = par_sys.run_pipelined(
        trace, profile_->num_classes(), nullptr, {}, opts);
    const auto div = first_divergence(serial, parallel);
    EXPECT_EQ(div, std::nullopt) << flows << " flows: " << div.value_or("");

    // Three epochs are held at a barrier: each has one outcome per packet
    // and at most one applied verdict per mirror of it or of the epoch
    // before; one ticket per mirror, and at most three padded batches.
    const std::size_t epoch = max_epoch_packets(trace, config.reconcile_quantum);
    const std::size_t record_bound = 3 * 3 * epoch;
    const std::size_t batch_bound = 3 * epoch / opts.batch + 6;
    // What holding every record and batch until the end would come to.
    const std::uint64_t all_records = parallel.packets + parallel.results_applied;
    const std::uint64_t all_batches = (parallel.mirrors + parallel.retransmits) /
                                      opts.batch;
    for (const FenixSystem* sys : {&serial_sys, &par_sys}) {
      const PipelineTelemetry& t = sys->pipeline_telemetry();
      std::printf(
          "%zu flows, pipes %zu: %zu packets, max %zu per epoch; records "
          "peak %llu, bound %zu, all %llu; batches peak %llu, bound %zu, "
          "all %llu\n",
          flows, t.pipes, trace.packets.size(), epoch,
          static_cast<unsigned long long>(t.peak_open_records), record_bound,
          static_cast<unsigned long long>(all_records),
          static_cast<unsigned long long>(t.peak_live_batches), batch_bound,
          static_cast<unsigned long long>(all_batches));
      EXPECT_GT(t.peak_open_records, 0u);
      EXPECT_LE(t.peak_open_records, record_bound) << flows << " flows";
      EXPECT_LE(t.peak_live_batches, batch_bound) << flows << " flows";
    }
    if (flows == 1600) {
      // Keeping every record and batch to the end overshoots both bounds
      // many times over.
      EXPECT_GT(all_records, 20 * record_bound);
      EXPECT_GT(all_batches, 20 * batch_bound);
    }
  }
}

/// FNV-1a over a confusion matrix's cells, row-major, then its unpredicted
/// count.
std::uint64_t digest(const telemetry::ConfusionMatrix& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  for (std::size_t t = 0; t < m.num_classes(); ++t) {
    for (std::size_t p = 0; p < m.num_classes(); ++p) mix(m.count(t, p));
  }
  mix(m.unpredicted());
  return h;
}

TEST_F(BoundedReplayTest, ResolveFoldsHeldEpochsOldestFirst) {
  // An untrained CNN gives one flow's windows different classes. The trace
  // is cut halfway, so many flows are still sending when it ends and get
  // verdicts in each epoch resolve() still holds. A flow keeps the class of
  // its last verdict only if resolve() folds those epochs oldest first;
  // folding the two sealed epochs newest first, or the tail before the
  // newest sealed one, changes flow_confusion.
  trafficgen::SynthesisConfig synth;
  synth.total_flows = 200;
  synth.seed = 47;
  const auto flows = trafficgen::synthesize_flows(*profile_, synth);
  nn::CnnConfig cnn_config;
  cnn_config.conv_channels = {8};
  cnn_config.fc_dims = {16};
  cnn_config.num_classes = profile_->num_classes();
  const nn::CnnClassifier untrained(cnn_config, 3);
  const nn::QuantizedCnn quantized(
      untrained, trafficgen::make_packet_samples(flows, 9, 6, 3));
  trafficgen::TraceConfig trace_config;
  trace_config.flow_arrival_rate_hz = 4000;
  trace_config.gap_time_scale = 0.1;
  net::Trace trace = trafficgen::assemble_trace(flows, trace_config);
  trace.packets.resize(trace.packets.size() / 2);

  FenixSystemConfig config;
  config.reconcile_quantum = sim::milliseconds(5);
  FenixSystem serial_sys(config, &quantized, nullptr);
  const RunReport serial = serial_sys.run(trace, profile_->num_classes());
  PipelineOptions opts;
  opts.pipes = 4;
  FenixSystem par_sys(config, &quantized, nullptr);
  const RunReport parallel = par_sys.run_pipelined(
      trace, profile_->num_classes(), nullptr, {}, opts);
  EXPECT_EQ(first_divergence(serial, parallel), std::nullopt);
  std::printf("flow_confusion digest 0x%016llx\n",
              static_cast<unsigned long long>(digest(serial.flow_confusion)));
  EXPECT_EQ(digest(serial.flow_confusion), 0x19c9cf608df86ddeULL);
}

}  // namespace
}  // namespace fenix::core

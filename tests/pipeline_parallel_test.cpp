// Multi-pipe sharded replay parity: run_pipelined() must produce a
// bit-identical RunReport to run() at every shard/thread/batch count,
// including under fault schedules (deadline misses, watchdog degradation,
// channel brownouts), with per-phase accounting enabled, and with every
// mirror handed off in one epoch. The inference stage hands its lanes' rows
// to the batcher in lane order at every pipes x threads setting. A pipes-4
// replay at threads 4 runs on one fleet of three workers plus the caller.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/fenix_system.hpp"
#include "core/model_pool.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_schedule.hpp"
#include "runtime/thread_pool.hpp"
#include "trafficgen/synthesizer.hpp"

namespace fenix::core {
namespace {

class PipelineParallelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    profile_ = new trafficgen::DatasetProfile(trafficgen::DatasetProfile::iscx_vpn());
    trafficgen::SynthesisConfig synth;
    synth.total_flows = 400;
    synth.seed = 17;
    flows_ = new std::vector<trafficgen::FlowSample>(
        trafficgen::synthesize_flows(*profile_, synth));

    nn::CnnConfig config;
    config.conv_channels = {8};
    config.fc_dims = {16};
    config.num_classes = profile_->num_classes();
    model_ = new nn::CnnClassifier(config, 11);
    const auto samples = trafficgen::make_packet_samples(*flows_, 9, 6, 3);
    nn::TrainOptions opts;
    opts.epochs = 1;
    model_->fit(samples, opts);
    quantized_ = new nn::QuantizedCnn(*model_, samples);

    trafficgen::TraceConfig trace_config;
    trace_config.flow_arrival_rate_hz = 2500;
    trace_ = new net::Trace(trafficgen::assemble_trace(*flows_, trace_config));
  }

  static void TearDownTestSuite() {
    delete trace_;
    delete quantized_;
    delete model_;
    delete flows_;
    delete profile_;
  }

  static FenixSystemConfig default_config() {
    FenixSystemConfig config;
    config.data_engine.tracker.index_bits = 12;
    config.data_engine.window_tw = sim::milliseconds(20);
    return config;
  }

  static RunReport serial_report(const std::vector<RunPhase>& phases = {}) {
    FenixSystem system(default_config(), quantized_, nullptr);
    return system.run(*trace_, profile_->num_classes(), nullptr, phases);
  }

  static RunReport pipelined_report(const PipelineOptions& opts,
                                    const std::vector<RunPhase>& phases = {}) {
    FenixSystem system(default_config(), quantized_, nullptr);
    return system.run_pipelined(*trace_, profile_->num_classes(), nullptr, phases,
                                opts);
  }

  static trafficgen::DatasetProfile* profile_;
  static std::vector<trafficgen::FlowSample>* flows_;
  static nn::CnnClassifier* model_;
  static nn::QuantizedCnn* quantized_;
  static net::Trace* trace_;
};

trafficgen::DatasetProfile* PipelineParallelTest::profile_ = nullptr;
std::vector<trafficgen::FlowSample>* PipelineParallelTest::flows_ = nullptr;
nn::CnnClassifier* PipelineParallelTest::model_ = nullptr;
nn::QuantizedCnn* PipelineParallelTest::quantized_ = nullptr;
net::Trace* PipelineParallelTest::trace_ = nullptr;

TEST_F(PipelineParallelTest, ReportEqualityIsStructural) {
  const RunReport a = serial_report();
  const RunReport b = serial_report();
  EXPECT_TRUE(run_reports_equal(a, b));
  EXPECT_EQ(first_divergence(a, b), std::nullopt);
  RunReport c = serial_report();
  ++c.mirrors;
  EXPECT_FALSE(run_reports_equal(a, c));
}

TEST_F(PipelineParallelTest, FirstDivergenceNamesFieldAndValues) {
  const RunReport a = serial_report();

  RunReport b = serial_report();
  ++b.mirrors;
  const auto counter_div = first_divergence(a, b);
  ASSERT_TRUE(counter_div.has_value());
  EXPECT_NE(counter_div->find("mirrors"), std::string::npos) << *counter_div;
  EXPECT_NE(counter_div->find(std::to_string(a.mirrors)), std::string::npos)
      << *counter_div;
  EXPECT_NE(counter_div->find(std::to_string(b.mirrors)), std::string::npos)
      << *counter_div;

  RunReport c = serial_report();
  c.flow_confusion.add(0, 1);
  const auto confusion_div = first_divergence(a, c);
  ASSERT_TRUE(confusion_div.has_value());
  EXPECT_NE(confusion_div->find("flow_confusion"), std::string::npos)
      << *confusion_div;
  EXPECT_NE(confusion_div->find("truth"), std::string::npos) << *confusion_div;
}

TEST_F(PipelineParallelTest, BitIdenticalAcrossShardAndThreadCounts) {
  const RunReport serial = serial_report();
  ASSERT_GT(serial.mirrors, 0u);
  ASSERT_GT(serial.results_applied, 0u);

  const std::size_t hw = runtime::ThreadPool::default_thread_count();
  for (std::size_t pipes : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                            std::size_t{8}, std::size_t{16}}) {
    // 2 × hw oversubscribes the host, so workers park and wake mid-replay.
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, hw, 2 * hw}) {
      PipelineOptions opts;
      opts.pipes = pipes;
      opts.batch = 16;
      opts.threads = threads;
      const RunReport parallel = pipelined_report(opts);
      const auto div = first_divergence(serial, parallel);
      EXPECT_EQ(div, std::nullopt)
          << "pipes=" << pipes << " threads=" << threads << ": "
          << div.value_or("");
    }
  }
}

TEST_F(PipelineParallelTest, BitIdenticalAcrossBatchSizes) {
  const RunReport serial = serial_report();
  for (std::size_t batch : {std::size_t{1}, std::size_t{5}, std::size_t{64}}) {
    PipelineOptions opts;
    opts.pipes = 4;
    opts.batch = batch;
    const RunReport parallel = pipelined_report(opts);
    const auto div = first_divergence(serial, parallel);
    EXPECT_EQ(div, std::nullopt) << "batch=" << batch << ": " << div.value_or("");
  }
}

TEST_F(PipelineParallelTest, BitIdenticalWithPhaseAccounting) {
  const sim::SimTime mid = trace_->duration() / 2;
  const std::vector<RunPhase> phases = {
      {"warmup", 0, mid},
      {"steady", mid, trace_->duration() + 1},
  };
  const RunReport serial = serial_report(phases);
  ASSERT_EQ(serial.phases.size(), 2u);
  ASSERT_GT(serial.phases[0].packets, 0u);
  ASSERT_GT(serial.phases[1].packets, 0u);

  PipelineOptions opts;
  opts.pipes = 4;
  const RunReport parallel = pipelined_report(opts, phases);
  const auto div = first_divergence(serial, parallel);
  EXPECT_EQ(div, std::nullopt) << div.value_or("");
}

TEST_F(PipelineParallelTest, BitIdenticalUnderFaultSchedule) {
  // A compound failure mid-trace: FPGA stall (deadline misses, watchdog
  // degradation, retransmits) overlapping a channel brownout (frame loss,
  // reduced line rate) and a FIFO shrink. The pipelined replay must drive
  // the identical recovery ladder.
  const sim::SimTime horizon = trace_->duration();
  const auto make_schedule = [&] {
    faults::FaultSchedule s;
    faults::FaultWindow stall;
    stall.kind = faults::FaultKind::kFpgaStall;
    stall.start = horizon / 4;
    stall.end = horizon / 2;
    s.add(stall);
    faults::FaultWindow brown;
    brown.kind = faults::FaultKind::kChannelBrownout;
    brown.start = horizon / 3;
    brown.end = (2 * horizon) / 3;
    brown.loss_rate = 0.3;
    brown.rate_scale = 0.5;
    s.add(brown);
    faults::FaultWindow shrink;
    shrink.kind = faults::FaultKind::kFifoShrink;
    shrink.start = (3 * horizon) / 4;
    shrink.end = horizon;
    shrink.fifo_depth = 4;
    s.add(shrink);
    return s;
  };

  FenixSystem serial_sys(default_config(), quantized_, nullptr);
  faults::FaultInjector serial_inj(make_schedule(), serial_sys);
  const RunReport serial =
      serial_sys.run(*trace_, profile_->num_classes(), &serial_inj);
  ASSERT_GT(serial.deadline_misses, 0u);
  ASSERT_GT(serial.channel_losses, 0u);

  for (std::size_t pipes : {std::size_t{1}, std::size_t{4}}) {
    FenixSystem par_sys(default_config(), quantized_, nullptr);
    faults::FaultInjector par_inj(make_schedule(), par_sys);
    PipelineOptions opts;
    opts.pipes = pipes;
    const RunReport parallel = par_sys.run_pipelined(
        *trace_, profile_->num_classes(), &par_inj, {}, opts);
    const auto div = first_divergence(serial, parallel);
    EXPECT_EQ(div, std::nullopt) << "pipes=" << pipes << ": " << div.value_or("");
  }
}

TEST_F(PipelineParallelTest, PhaseReportParityUnderFaultSchedule) {
  // Phase accounting and fault injection at the same time: the per-phase
  // confusion/unclassified tallies come out of ReplayCore's deferred-verdict
  // resolution, so this exercises phase attribution of verdicts that resolve
  // after the packet is accounted.
  const sim::SimTime horizon = trace_->duration();
  const std::vector<RunPhase> phases = {
      {"pre-fault", 0, horizon / 4},
      {"stall", horizon / 4, horizon / 2},
      {"brownout", horizon / 2, (3 * horizon) / 4},
      {"recovery", (3 * horizon) / 4, horizon + 1},
  };
  const auto make_schedule = [&] {
    faults::FaultSchedule s;
    faults::FaultWindow stall;
    stall.kind = faults::FaultKind::kFpgaStall;
    stall.start = horizon / 4;
    stall.end = horizon / 2;
    s.add(stall);
    faults::FaultWindow brown;
    brown.kind = faults::FaultKind::kChannelBrownout;
    brown.start = horizon / 2;
    brown.end = (3 * horizon) / 4;
    brown.loss_rate = 0.3;
    brown.rate_scale = 0.5;
    s.add(brown);
    return s;
  };

  FenixSystem serial_sys(default_config(), quantized_, nullptr);
  faults::FaultInjector serial_inj(make_schedule(), serial_sys);
  const RunReport serial =
      serial_sys.run(*trace_, profile_->num_classes(), &serial_inj, phases);
  ASSERT_EQ(serial.phases.size(), phases.size());
  ASSERT_GT(serial.deadline_misses, 0u);
  for (const PhaseReport& phase : serial.phases) {
    ASSERT_GT(phase.packets, 0u) << phase.name;
  }

  for (std::size_t pipes : {std::size_t{2}, std::size_t{4}}) {
    FenixSystem par_sys(default_config(), quantized_, nullptr);
    faults::FaultInjector par_inj(make_schedule(), par_sys);
    PipelineOptions opts;
    opts.pipes = pipes;
    opts.batch = 8;
    const RunReport parallel = par_sys.run_pipelined(
        *trace_, profile_->num_classes(), &par_inj, phases, opts);

    const auto div = first_divergence(serial, parallel);
    EXPECT_EQ(div, std::nullopt) << "pipes=" << pipes << ": " << div.value_or("");

    // Explicit per-phase checks on top of the structural comparison: the
    // confusion/unclassified tallies of every phase must match exactly.
    ASSERT_EQ(parallel.phases.size(), serial.phases.size());
    for (std::size_t p = 0; p < serial.phases.size(); ++p) {
      const PhaseReport& sp = serial.phases[p];
      const PhaseReport& pp = parallel.phases[p];
      EXPECT_EQ(sp.packets, pp.packets) << sp.name;
      EXPECT_EQ(sp.dnn_verdicts, pp.dnn_verdicts) << sp.name;
      EXPECT_EQ(sp.tree_verdicts, pp.tree_verdicts) << sp.name;
      EXPECT_EQ(sp.unclassified, pp.unclassified) << sp.name;
      ASSERT_EQ(sp.packet_confusion.num_classes(),
                pp.packet_confusion.num_classes());
      for (std::size_t t = 0; t < sp.packet_confusion.num_classes(); ++t) {
        for (std::size_t c = 0; c < sp.packet_confusion.num_classes(); ++c) {
          EXPECT_EQ(sp.packet_confusion.count(t, c), pp.packet_confusion.count(t, c))
              << sp.name << " truth=" << t << " pred=" << c;
        }
      }
    }
  }
}

TEST_F(PipelineParallelTest, InferenceBatcherMatchesScalarPredict) {
  std::vector<std::vector<net::PacketFeature>> sequences;
  for (const net::PacketRecord& p : trace_->packets) {
    if (sequences.size() == 100) break;
    std::vector<net::PacketFeature> seq;
    for (std::size_t k = 0; k <= sequences.size() % 9; ++k) {
      net::PacketFeature f;
      f.length = p.wire_length;
      f.ipd_code = static_cast<std::uint16_t>((p.wire_length * 7 + k) % 1024);
      seq.push_back(f);
    }
    sequences.push_back(std::move(seq));
  }

  nn::Scratch scratch;
  std::vector<nn::Token> tokens;
  for (std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
    InferenceBatcher batcher(quantized_, nullptr, 16, workers);
    std::vector<InferenceBatcher::Ticket> tickets;
    for (const auto& seq : sequences) tickets.push_back(batcher.enqueue(seq));
    batcher.finish();
    for (std::size_t i = 0; i < sequences.size(); ++i) {
      nn::tokenize_into(sequences[i], quantized_->config().seq_len, tokens);
      EXPECT_EQ(batcher.result(tickets[i]), quantized_->predict(tokens, scratch))
          << "workers " << workers << " sequence " << i;
    }
  }
}

TEST_F(PipelineParallelTest, HandOffIsLaneOrderedAndPipeInvariant) {
  // Pipes tokenize admitted windows into rows their lanes own; after each
  // round the coordinator hands the rows to the batcher lane by lane, each
  // lane's in sequence order. So the ticket of every (lane, sequence) is a
  // function of what each lane admitted in each round, never of pipes or
  // threads, and each row holds the window's tokens at each model's
  // seq_len. A CNN primary and an RNN shadow of another seq_len check both
  // halves of the row; two generation flips check each row's serving model.
  nn::RnnConfig rnn_config;
  rnn_config.seq_len = 6;
  rnn_config.units = 8;
  rnn_config.num_classes = profile_->num_classes();
  const nn::QuantizedRnn shadow(nn::RnnClassifier(rnn_config, 29),
                                trafficgen::make_packet_samples(*flows_, 6, 6, 3));
  const std::size_t seq_len[2] = {quantized_->config().seq_len,
                                  rnn_config.seq_len};
  ASSERT_NE(seq_len[0], seq_len[1]);

  // rounds[r][lane]: the windows the lane admits in round r.
  constexpr std::size_t kRounds = 12;
  std::mt19937 rng(3);
  std::vector<std::array<std::vector<net::FeatureVector>, kCoordinationLanes>>
      rounds(kRounds);
  for (auto& round : rounds) {
    for (auto& lane : round) {
      lane.resize(rng() % 6);
      for (net::FeatureVector& vec : lane) {
        vec.sequence.resize(1 + rng() % 12);
        for (net::PacketFeature& f : vec.sequence) {
          f.length = static_cast<std::uint16_t>(40 + rng() % 1460);
          f.ipd_code = static_cast<std::uint16_t>(rng() % 1024);
        }
      }
    }
  }

  // (ticket, lane, sequence) of every row, in ticket order.
  using Order = std::vector<std::array<std::uint64_t, 3>>;
  std::optional<Order> reference;
  nn::Scratch scratch;
  for (std::size_t pipes : {1, 2, 4, 8}) {
    for (std::size_t threads : {1, 4}) {
      SCOPED_TRACE("pipes " + std::to_string(pipes) + " threads " +
                   std::to_string(threads));
      ModelEngine engine(ModelEngineConfig{}, quantized_, nullptr);
      InferenceStage stage(engine, ModelRef{nullptr, &shadow}, 16, threads - 1);
      Order order;
      std::array<std::vector<VerdictSymbol>, kCoordinationLanes> symbols;
      // Per lane, by sequence: the window and the model that serves it.
      std::array<std::vector<std::pair<const net::FeatureVector*, std::size_t>>,
                 kCoordinationLanes>
          admitted;
      for (std::size_t r = 0; r < kRounds; ++r) {
        if (r == 5 || r == 9) stage.swap_models();
        const std::function<void(std::size_t)> pipe = [&](std::size_t p) {
          for (std::size_t lane = p; lane < kCoordinationLanes; lane += pipes) {
            for (std::size_t i = 0; i < rounds[r][lane].size(); ++i) {
              // A lane's arrivals 1 ms apart: its port never drops.
              const sim::SimTime arrival =
                  sim::milliseconds(8 * r + i + 1);
              VerdictSymbol symbol = kNoVerdict;
              EXPECT_TRUE(stage.submit(rounds[r][lane][i], arrival, lane, symbol));
              symbols[lane].push_back(symbol);
            }
          }
        };
        stage.fleet().run(pipes, pipe, [] { return false; });
        InferenceBatcher::Ticket ticket = stage.batcher().next_ticket();
        stage.hand_off();
        for (std::size_t lane = 0; lane < kCoordinationLanes; ++lane) {
          for (const net::FeatureVector& vec : rounds[r][lane]) {
            const std::uint64_t seq = admitted[lane].size();
            admitted[lane].emplace_back(&vec, stage.generation() & 1);
            ASSERT_EQ(stage.ticket(symbols[lane][seq]), ticket)
                << "lane " << lane << " seq " << seq;
            for (std::size_t m = 0; m < 2; ++m) {
              const auto row = stage.batcher().tokens(ticket, m);
              EXPECT_EQ(std::vector<nn::Token>(row.begin(), row.end()),
                        nn::tokenize(vec.sequence, seq_len[m]))
                  << "lane " << lane << " seq " << seq << " model " << m;
            }
            order.push_back({ticket++, lane, seq});
          }
        }
        stage.close_epoch();
      }
      stage.finish();
      for (std::size_t lane = 0; lane < kCoordinationLanes; ++lane) {
        for (std::size_t seq = 0; seq < admitted[lane].size(); ++seq) {
          const auto& [vec, model] = admitted[lane][seq];
          const std::int16_t expected =
              model == 0
                  ? quantized_->predict(nn::tokenize(vec->sequence, seq_len[0]),
                                        scratch)
                  : shadow.predict(nn::tokenize(vec->sequence, seq_len[1]),
                                   scratch);
          EXPECT_EQ(stage.resolve(symbols[lane][seq]), expected)
              << "lane " << lane << " seq " << seq;
        }
      }
      if (!reference) reference = order;
      EXPECT_EQ(order, *reference);
    }
  }
  ASSERT_TRUE(reference.has_value());
  EXPECT_GT(reference->size(), 200u);
}

/// Threads of this process, from /proc/self/task.
std::size_t live_threads() {
  std::size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

/// Samples the process's thread count at every epoch barrier (the hooks run
/// on the coordinator).
struct ThreadCountProbe : RunHooks {
  std::size_t peak = 0;
  void at_time(sim::SimTime) override { peak = std::max(peak, live_threads()); }
};

TEST_F(PipelineParallelTest, ReplayRunsOnOneFleetOfThreadsMinusOneWorkers) {
  // ThreadSanitizer starts a helper thread along with the process's first
  // thread; start it before the count is taken.
  std::thread([] {}).join();
  const std::size_t before = live_threads();
  ThreadCountProbe probe;
  FenixSystem system(default_config(), quantized_, nullptr);
  PipelineOptions opts;
  opts.pipes = 4;
  opts.threads = 4;
  system.run_pipelined(*trace_, profile_->num_classes(), &probe, {}, opts);
  ASSERT_GT(probe.peak, 0u);
  EXPECT_LE(probe.peak, before + 3) << "threads before the replay: " << before;
}

TEST_F(PipelineParallelTest, OneEpochOverfilledFanInMatchesSerial) {
  // One reconcile quantum covers the whole trace, so every mirror of the
  // run lands in its lane's row buffer within one round, which grows from
  // empty to thousands of rows per lane, and one hand-off carries them all
  // to the batcher. (The name dates from a bounded fan-in ring that these
  // mirrors overfilled.)
  trafficgen::SynthesisConfig synth;
  synth.total_flows = 1500;
  synth.seed = 17;
  synth.max_pkts_per_flow = 48;
  trafficgen::TraceConfig trace_config;
  trace_config.flow_arrival_rate_hz = 2500;
  const net::Trace trace = trafficgen::assemble_trace(
      trafficgen::synthesize_flows(*profile_, synth), trace_config);
  FenixSystemConfig config = default_config();
  config.data_engine.tracker.index_bits = 14;
  config.reconcile_quantum = sim::seconds(1000);

  FenixSystem serial_sys(config, quantized_, nullptr);
  const RunReport serial = serial_sys.run(trace, profile_->num_classes());
  ASSERT_GT(serial.mirrors, std::uint64_t{1} << 14);
  std::printf("one epoch: %zu packets, %llu mirrors\n", trace.packets.size(),
              static_cast<unsigned long long>(serial.mirrors));
  for (std::size_t pipes : {std::size_t{1}, std::size_t{4}}) {
    for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
      FenixSystem par_sys(config, quantized_, nullptr);
      PipelineOptions opts;
      opts.pipes = pipes;
      opts.threads = threads;
      const RunReport parallel =
          par_sys.run_pipelined(trace, profile_->num_classes(), nullptr, {}, opts);
      ASSERT_EQ(par_sys.pipeline_telemetry().epochs, 1u);
      const auto div = first_divergence(serial, parallel);
      EXPECT_EQ(div, std::nullopt) << "pipes=" << pipes << " threads=" << threads
                                   << ": " << div.value_or("");
      // The round's one hand-off carries more rows than the old ring held.
      const runtime::MpscQueueStats& fanin = par_sys.pipeline_telemetry().fanin;
      EXPECT_GT(fanin.peak_size, std::uint64_t{1} << 14);
      EXPECT_EQ(fanin.cas_retries + fanin.full_stalls, 0u);
      std::printf("pipes=%zu threads=%zu rows handed off at once=%llu\n",
                  pipes, threads,
                  static_cast<unsigned long long>(fanin.peak_size));
    }
  }
}

}  // namespace
}  // namespace fenix::core

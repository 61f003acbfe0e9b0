// Micro-benchmarks (google-benchmark) of the hot kernels: hashing,
// probability lookups, token-bucket decisions, tree and INT8
// model inference, and the replay's per-epoch thread round trip. These
// quantify the host-side simulation cost, not the hardware latency (which
// the cycle models report); they gate how large a Figure 10 sweep the
// harness can replay per second.
//
// After the google-benchmark suite, main() hand-times the blocked INT8
// kernels against their scalar references and records ns/op + speedup in
// the "kernels" section of BENCH_PR1.json (see bench_json.hpp).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/data_engine.hpp"
#include "net/headers.hpp"
#include "core/probability_model.hpp"
#include "core/token_bucket.hpp"
#include "net/hash.hpp"
#include "nn/quantize.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/worker_fleet.hpp"
#include "trafficgen/synthesizer.hpp"

namespace {

using namespace fenix;

// --------------------------------------------------- synthetic INT8 layers

void fill_i8(std::vector<std::int8_t>& v, sim::RandomStream& rng) {
  for (auto& x : v) {
    x = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(255)) - 127);
  }
}

nn::QDense make_qdense(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  nn::QDense d;
  d.w.rows = rows;
  d.w.cols = cols;
  d.w.exponent = -7;
  d.w.data.resize(rows * cols);
  d.bias.resize(rows);
  sim::RandomStream rng(seed);
  fill_i8(d.w.data, rng);
  for (auto& b : d.bias) {
    b = static_cast<std::int32_t>(rng.uniform_int(4096)) - 2048;
  }
  d.in_exponent = -6;
  d.out_exponent = -4;
  return d;
}

nn::QConv1D make_qconv(std::size_t in_ch, std::size_t out_ch, std::size_t kernel,
                       std::uint64_t seed) {
  nn::QConv1D c;
  c.in_ch = in_ch;
  c.out_ch = out_ch;
  c.kernel = kernel;
  c.w.rows = out_ch;
  c.w.cols = in_ch * kernel;
  c.w.exponent = -7;
  c.w.data.resize(c.w.rows * c.w.cols);
  c.bias.resize(out_ch);
  sim::RandomStream rng(seed);
  fill_i8(c.w.data, rng);
  for (auto& b : c.bias) {
    b = static_cast<std::int32_t>(rng.uniform_int(4096)) - 2048;
  }
  c.in_exponent = -6;
  c.out_exponent = -4;
  return c;
}

void BM_FlowHash(benchmark::State& state) {
  net::FiveTuple t;
  t.src_ip = 0x0a000001;
  t.dst_ip = 0xac100001;
  t.src_port = 1234;
  t.dst_port = 443;
  for (auto _ : state) {
    t.src_port++;
    benchmark::DoNotOptimize(net::flow_hash32(t));
  }
}
BENCHMARK(BM_FlowHash);

void BM_ProbabilityExact(benchmark::State& state) {
  core::TrafficStats stats;
  stats.flow_count_n = 1000;
  stats.token_rate_v = 75e6;
  stats.packet_rate_q = 1000e6;
  double t = 1e-6;
  for (auto _ : state) {
    t += 1e-9;
    benchmark::DoNotOptimize(core::token_probability(stats, t, 17.0));
  }
}
BENCHMARK(BM_ProbabilityExact);

void BM_ProbabilityLookup(benchmark::State& state) {
  core::TrafficStats stats;
  stats.flow_count_n = 1000;
  stats.token_rate_v = 75e6;
  stats.packet_rate_q = 1000e6;
  core::ProbabilityLookupTable table(64, 64, 0.001, 2048);
  table.rebuild(stats);
  double t = 1e-6;
  for (auto _ : state) {
    t += 1e-9;
    benchmark::DoNotOptimize(table.lookup_fixed(t, 17.0));
  }
}
BENCHMARK(BM_ProbabilityLookup);

void BM_TokenBucket(benchmark::State& state) {
  core::TokenBucketConfig config;
  config.token_rate_v = 1e6;
  core::TokenBucket bucket(config);
  sim::SimTime now = 0;
  for (auto _ : state) {
    now += sim::nanoseconds(100);
    benchmark::DoNotOptimize(bucket.on_packet(now, 0x8000));
  }
}
BENCHMARK(BM_TokenBucket);

void BM_DataEnginePacket(benchmark::State& state) {
  core::DataEngineConfig config;
  config.tracker.index_bits = 14;
  core::DataEngine engine(config);
  net::PacketRecord p;
  p.tuple.src_ip = 0x0a000001;
  p.tuple.dst_ip = 0xac100001;
  p.tuple.dst_port = 443;
  p.wire_length = 500;
  sim::SimTime now = 0;
  std::uint16_t port = 0;
  for (auto _ : state) {
    now += sim::nanoseconds(200);
    p.tuple.src_port = ++port & 0x3ff;
    p.timestamp = p.orig_timestamp = now;
    benchmark::DoNotOptimize(engine.on_packet(p));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DataEnginePacket);

nn::QuantizedCnn make_quantized_cnn() {
  nn::CnnConfig config;
  config.conv_channels = {16, 32, 64};
  config.fc_dims = {128, 64};
  config.num_classes = 7;
  nn::CnnClassifier model(config, 1);
  std::vector<nn::SeqSample> calibration;
  sim::RandomStream rng(2);
  for (int i = 0; i < 16; ++i) {
    nn::SeqSample s;
    s.label = 0;
    for (int t = 0; t < 9; ++t) {
      s.tokens.push_back({static_cast<std::uint16_t>(rng.uniform_int(nn::kLenVocab)),
                          static_cast<std::uint16_t>(rng.uniform_int(nn::kIpdVocab))});
    }
    calibration.push_back(std::move(s));
  }
  return nn::QuantizedCnn(model, calibration);
}

void BM_QuantizedCnnInference(benchmark::State& state) {
  const auto model = make_quantized_cnn();
  std::vector<nn::Token> tokens(9, nn::Token{10, 3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(tokens));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QuantizedCnnInference);

void BM_QuantizedCnnInferenceScratch(benchmark::State& state) {
  const auto model = make_quantized_cnn();
  std::vector<nn::Token> tokens(9, nn::Token{10, 3});
  nn::Scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(tokens, scratch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QuantizedCnnInferenceScratch);

// One predict_batch call over 16 windows of the perfbench CNN shape at
// kernel rung `isa` (registered in main() for every rung the host runs, so
// an AMX host also times the AVX-512 pair path it replaces).
void BM_CnnPredictBatch16(benchmark::State& state, nn::kernels::Isa isa) {
  const auto model = make_quantized_cnn();
  sim::RandomStream rng(3);
  std::vector<nn::Token> flat;
  for (int i = 0; i < 16 * 9; ++i) {
    flat.push_back({static_cast<std::uint16_t>(rng.uniform_int(nn::kLenVocab)),
                    static_cast<std::uint16_t>(rng.uniform_int(nn::kIpdVocab))});
  }
  std::vector<std::int16_t> out(16);
  nn::Scratch scratch;
  nn::kernels::ScopedIsaCap cap(isa);
  for (auto _ : state) {
    model.predict_batch(flat.data(), 16, scratch, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
  state.SetLabel(nn::kernels::isa_name(isa));
}

void BM_GemvInt8Blocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto layer = make_qdense(n, n, 0x6e3);
  std::vector<std::int8_t> x(n), y(n);
  sim::RandomStream rng(0x6e4);
  fill_i8(x, rng);
  for (auto _ : state) {
    layer.forward(x.data(), y.data(), true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_GemvInt8Blocked)->Arg(64)->Arg(128)->Arg(256);

void BM_GemvInt8Reference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto layer = make_qdense(n, n, 0x6e3);
  std::vector<std::int8_t> x(n), y(n);
  sim::RandomStream rng(0x6e4);
  fill_i8(x, rng);
  for (auto _ : state) {
    layer.forward_reference(x.data(), y.data(), true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_GemvInt8Reference)->Arg(64)->Arg(128)->Arg(256);

void BM_Conv1dInt8Blocked(benchmark::State& state) {
  constexpr std::size_t kT = 9;
  const auto layer = make_qconv(32, 64, 3, 0xc0b);
  std::vector<std::int8_t> x(kT * 32), y(kT * 64);
  sim::RandomStream rng(0xc0c);
  fill_i8(x, rng);
  for (auto _ : state) {
    layer.forward(x.data(), kT, y.data(), true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Conv1dInt8Blocked);

void BM_Conv1dInt8Reference(benchmark::State& state) {
  constexpr std::size_t kT = 9;
  const auto layer = make_qconv(32, 64, 3, 0xc0b);
  std::vector<std::int8_t> x(kT * 32), y(kT * 64);
  sim::RandomStream rng(0xc0c);
  fill_i8(x, rng);
  for (auto _ : state) {
    layer.forward_reference(x.data(), kT, y.data(), true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Conv1dInt8Reference);

void BM_FrameBuild(benchmark::State& state) {
  net::FiveTuple t;
  t.src_ip = 0x0a000001;
  t.dst_ip = 0xac100001;
  t.src_port = 1234;
  t.dst_port = 443;
  t.proto = 6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::build_frame(t, 512));
  }
}
BENCHMARK(BM_FrameBuild);

void BM_FrameParse(benchmark::State& state) {
  net::FiveTuple t;
  t.src_ip = 0x0a000001;
  t.dst_ip = 0xac100001;
  t.src_port = 1234;
  t.dst_port = 443;
  t.proto = 6;
  const auto frame = net::build_frame(t, 512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::parse_frame(frame));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_FrameParse);

void BM_SynthesizeFlow(benchmark::State& state) {
  const auto profile = trafficgen::DatasetProfile::iscx_vpn();
  trafficgen::SynthesisConfig config;
  config.total_flows = 100;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    config.seed = ++seed;
    benchmark::DoNotOptimize(trafficgen::synthesize_flows(profile, config));
  }
}
BENCHMARK(BM_SynthesizeFlow);

// ------------------------------------------------ replay epoch round trips

// One empty 4-item round on a WorkerFleet of four threads (three workers
// plus the caller), whose workers idle between rounds, against the
// ThreadPool(4) dispatch the replay used before it: 4 × submit + wait(), the
// round perfbench's runtime.barrier_us times.
void BM_FleetRound(benchmark::State& state) {
  runtime::WorkerFleet fleet(4, [](std::size_t) { return false; });
  const std::function<void(std::size_t)> body = [](std::size_t) {};
  for (auto _ : state) fleet.run(4, body, [] { return false; });
}
BENCHMARK(BM_FleetRound)->UseRealTime();

void BM_ThreadPoolRound(benchmark::State& state) {
  runtime::ThreadPool pool(4);
  for (auto _ : state) {
    for (int p = 0; p < 4; ++p) pool.submit([] {});
    pool.wait();
  }
}
BENCHMARK(BM_ThreadPoolRound)->UseRealTime();

// --------------------------------------------- hand-timed kernel speedups

/// ns/op of `fn`, measured over enough iterations to fill `min_seconds`.
template <typename F>
double time_ns_per_op(F&& fn, std::size_t min_iters, double min_seconds) {
  fn();  // warm-up (also sizes any scratch buffers)
  std::size_t iters = 0;
  double elapsed = 0.0;
  const auto start = std::chrono::steady_clock::now();
  do {
    fn();
    ++iters;
    elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  } while (iters < min_iters || elapsed < min_seconds);
  return elapsed * 1e9 / static_cast<double>(iters);
}

/// Times blocked vs reference INT8 kernels and writes the "kernels" section
/// of BENCH_PR1.json. Speedup = reference_ns / blocked_ns.
void report_kernel_speedups(bool smoke) {
  const std::size_t min_iters = smoke ? 10 : 200;
  const double min_seconds = smoke ? 0.005 : 0.15;
  bench::JsonSection section;

  {
    constexpr std::size_t kN = 128;
    const auto layer = make_qdense(kN, kN, 0x6e3);
    std::vector<std::int8_t> x(kN), y(kN);
    sim::RandomStream rng(0x6e4);
    fill_i8(x, rng);
    const double blocked = time_ns_per_op(
        [&] {
          layer.forward(x.data(), y.data(), true);
          benchmark::DoNotOptimize(y.data());
        },
        min_iters, min_seconds);
    const double reference = time_ns_per_op(
        [&] {
          layer.forward_reference(x.data(), y.data(), true);
          benchmark::DoNotOptimize(y.data());
        },
        min_iters, min_seconds);
    section.put("gemv128_blocked_ns", blocked);
    section.put("gemv128_reference_ns", reference);
    section.put("gemv128_speedup", blocked > 0 ? reference / blocked : 0.0);
    std::printf("gemv 128x128:   blocked %8.1f ns  reference %8.1f ns  (%.2fx)\n",
                blocked, reference, blocked > 0 ? reference / blocked : 0.0);
  }

  {
    constexpr std::size_t kT = 9;
    const auto layer = make_qconv(32, 64, 3, 0xc0b);
    std::vector<std::int8_t> x(kT * 32), y(kT * 64);
    sim::RandomStream rng(0xc0c);
    fill_i8(x, rng);
    const double blocked = time_ns_per_op(
        [&] {
          layer.forward(x.data(), kT, y.data(), true);
          benchmark::DoNotOptimize(y.data());
        },
        min_iters, min_seconds);
    const double reference = time_ns_per_op(
        [&] {
          layer.forward_reference(x.data(), kT, y.data(), true);
          benchmark::DoNotOptimize(y.data());
        },
        min_iters, min_seconds);
    section.put("conv1d_blocked_ns", blocked);
    section.put("conv1d_reference_ns", reference);
    section.put("conv1d_speedup", blocked > 0 ? reference / blocked : 0.0);
    std::printf("conv1d 32->64:  blocked %8.1f ns  reference %8.1f ns  (%.2fx)\n",
                blocked, reference, blocked > 0 ? reference / blocked : 0.0);
  }

  // Sub-INT8 tiers: the vectorized biased-plane path vs the packed-reading
  // sequential reference, same 128x128 shape as the INT8 row above.
  for (const nn::Precision p : {nn::Precision::kTernary, nn::Precision::kInt4}) {
    constexpr std::size_t kN = 128;
    sim::RandomStream rng(0x51b + static_cast<std::uint64_t>(p));
    nn::Dense d(kN, kN, rng);
    for (std::size_t r = 0; r < kN; ++r) {
      for (std::size_t c = 0; c < kN; ++c) {
        d.weights()(r, c) = static_cast<float>(rng.uniform(-0.5, 0.5));
      }
    }
    const auto layer = nn::QPackedDense::from(d, p, -6, -4);
    std::vector<std::int8_t> x(kN), y(kN);
    fill_i8(x, rng);
    const double blocked = time_ns_per_op(
        [&] {
          layer.forward_simd(x.data(), y.data(), true);
          benchmark::DoNotOptimize(y.data());
        },
        min_iters, min_seconds);
    const double reference = time_ns_per_op(
        [&] {
          layer.forward_reference(x.data(), y.data(), true);
          benchmark::DoNotOptimize(y.data());
        },
        min_iters, min_seconds);
    const std::string name = nn::precision_name(p);
    section.put("gemv128_" + name + "_blocked_ns", blocked);
    section.put("gemv128_" + name + "_reference_ns", reference);
    section.put("gemv128_" + name + "_speedup",
                blocked > 0 ? reference / blocked : 0.0);
    std::printf("gemv %s:  blocked %8.1f ns  reference %8.1f ns  (%.2fx)\n",
                name.c_str(), blocked, reference,
                blocked > 0 ? reference / blocked : 0.0);
  }

  {
    const auto model = make_quantized_cnn();
    std::vector<nn::Token> tokens(9, nn::Token{10, 3});
    nn::Scratch scratch;
    const double blocked = time_ns_per_op(
        [&] { benchmark::DoNotOptimize(model.predict(tokens, scratch)); },
        min_iters, min_seconds);
    const double reference = time_ns_per_op(
        [&] { benchmark::DoNotOptimize(model.logits_q_reference(tokens)); },
        min_iters, min_seconds);
    section.put("cnn_infer_scratch_ns", blocked);
    section.put("cnn_infer_reference_ns", reference);
    section.put("cnn_infer_speedup", blocked > 0 ? reference / blocked : 0.0);
    std::printf("cnn inference:  blocked %8.1f ns  reference %8.1f ns  (%.2fx)\n",
                blocked, reference, blocked > 0 ? reference / blocked : 0.0);
  }

  bench::write_bench_json("kernels", section);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  using nn::kernels::Isa;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kAmx}) {
    if (isa > nn::kernels::host_isa()) break;
    const std::string name =
        std::string("BM_CnnPredictBatch16/") + nn::kernels::isa_name(isa);
    benchmark::RegisterBenchmark(name.c_str(), BM_CnnPredictBatch16, isa);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\nBlocked-vs-reference INT8 kernel speedups:\n");
  report_kernel_speedups(bench::BenchScale::from_env().smoke);
  return 0;
}

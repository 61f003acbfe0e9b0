// Replay benchmark entry point: replays one pre-generated workload through the
// public FenixSystem entry points and prints host-time metrics.
//
// Usage:
//   fenix_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off: replay_pps_p4
// and replay_pps_p1 (packets per wall-second of run_pipelined at pipes 4 and
// 1), replay_rss_mb (peak RSS the first replay of a fresh process adds above
// its input, median over forked processes) and setup_s (median of several
// set-ups). One serial run replay is checked but not timed.
// --trace 1 measures the per-layer metrics: a traced pipes-4 replay (wrapped
// PacketSource + a RunHooks that stamps host time at each epoch barrier),
// serial run replays (replay.serial_pps), the RunReport counts, and direct
// drives of each layer.
//
// Every replay's RunReport must be bit-identical to the first one and pass
// the standard invariant registry; a replay that throws or fails a check
// counts in "failed". The last stdout line is the result JSON; earlier lines
// carry host/build facts and the sim-time model results, which are
// deterministic outputs of the simulated system, not performance.
#include <malloc.h>
#include <sched.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "core/invariants.hpp"
#include "net/packet_source.hpp"

namespace perfbench {
namespace {

/// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 5;
/// Fresh-process replays per end-to-end run; replay_rss_mb is their median.
constexpr int kRssSamples = 7;
/// Pipelined replays use batch 16 (the PipelineOptions default).
constexpr std::size_t kBatch = 16;
/// Hard stop for a mode whose replays keep throwing.
constexpr double kMaxMeasureSeconds = 120.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have[2] = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (key == "--trace") {
      args.trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !(have[0] && have[1] && have[2] && have[3])) {
    return std::nullopt;
  }
  return args;
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t host_nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// A /proc/self/status field (reported in kB) in MB; 0 if unreadable.
double proc_status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Resets VmHWM to the current RSS.
bool reset_peak_rss() {
  std::ofstream refs("/proc/self/clear_refs");
  refs << "5";
  refs.flush();
  return static_cast<bool>(refs);
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Forwards to the replayed trace and accumulates host time spent pulling.
class TimedSource final : public net::PacketSource {
 public:
  explicit TimedSource(net::PacketSource& inner) : inner_(inner) {}

  std::size_t next_chunk(std::span<net::PacketRecord> out) override {
    const auto start = Clock::now();
    const std::size_t n = inner_.next_chunk(out);
    seconds_ += seconds_since(start);
    return n;
  }
  void rewind() override { inner_.rewind(); }
  std::uint64_t packet_hint() const override { return inner_.packet_hint(); }
  std::uint32_t flow_count() const override { return inner_.flow_count(); }
  net::ClassLabel flow_label(std::uint32_t flow_id) const override {
    return inner_.flow_label(flow_id);
  }
  sim::SimDuration duration_hint() const override {
    return inner_.duration_hint();
  }

  double seconds() const { return seconds_; }

 private:
  net::PacketSource& inner_;
  double seconds_ = 0.0;
};

/// Stamps host time at every epoch barrier (the replay fires hooks there).
class BarrierClock final : public core::RunHooks {
 public:
  explicit BarrierClock(std::size_t expected) { stamps_.reserve(expected); }
  void at_time(sim::SimTime) override { stamps_.push_back(Clock::now()); }
  const std::vector<Clock::time_point>& stamps() const { return stamps_; }

 private:
  std::vector<Clock::time_point> stamps_;
};

enum class Mode { kSerial, kPipes1, kPipes4 };

/// Host-time observations of one traced replay.
struct TraceRecord {
  double source_s = 0.0;
  double cpu_s = 0.0;
  double tail_s = 0.0;
  std::vector<double> epoch_us;  ///< Host time between consecutive barriers.
};

struct Replay {
  double wall_s = 0.0;
  std::optional<core::RunReport> report;
  core::PipelineTelemetry telemetry;
  std::optional<TraceRecord> trace;
  std::string error;  ///< Empty when the replay ran and passed every check.
};

/// Replays the workload once on a fresh system and checks the report.
Replay replay(const Workload& w, Mode mode, std::size_t threads,
              const core::RunReport* reference, bool traced) {
  Replay out;
  try {
    core::FenixSystem system(w.config, w.qcnn.get(), nullptr);
    net::TraceSource base(w.trace);
    TimedSource timed(base);
    const sim::SimDuration quantum =
        std::max<sim::SimDuration>(1, w.config.reconcile_quantum);
    BarrierClock barriers(
        traced ? static_cast<std::size_t>(w.trace.duration() / quantum) + 4 : 0);
    net::PacketSource& source =
        traced ? static_cast<net::PacketSource&>(timed) : base;
    core::RunHooks* hooks = traced ? &barriers : nullptr;

    core::PipelineOptions opts;
    opts.pipes = mode == Mode::kPipes4 ? 4 : 1;
    opts.batch = kBatch;
    opts.threads = threads;

    const double cpu_start = process_cpu_seconds();
    const auto start = Clock::now();
    out.report = mode == Mode::kSerial
                     ? system.run(source, w.classes, hooks)
                     : system.run_pipelined(source, w.classes, hooks, {}, opts);
    const auto end = Clock::now();
    out.wall_s = std::chrono::duration<double>(end - start).count();
    out.telemetry = system.pipeline_telemetry();

    if (traced) {
      TraceRecord rec;
      rec.source_s = timed.seconds();
      rec.cpu_s = process_cpu_seconds() - cpu_start;
      const auto& stamps = barriers.stamps();
      if (!stamps.empty()) {
        rec.tail_s = std::chrono::duration<double>(end - stamps.back()).count();
      }
      for (std::size_t i = 1; i < stamps.size(); ++i) {
        rec.epoch_us.push_back(
            std::chrono::duration<double, std::micro>(stamps[i] - stamps[i - 1])
                .count());
      }
      out.trace = std::move(rec);
    }

    const net::ReliableLinkStats to_stats = system.link_stats_to_fpga();
    const net::ReliableLinkStats from_stats = system.link_stats_from_fpga();
    core::InvariantContext ctx{*out.report};
    ctx.trace_packets = w.trace.packets.size();
    ctx.trace_flows = w.labeled_flows;
    ctx.to_link = &to_stats;
    ctx.from_link = &from_stats;
    ctx.reorder_window = w.config.link.reorder_window;
    ctx.link_max_retransmits = w.config.link.max_retransmits;
    ctx.replay_max_retransmits = w.config.recovery.max_retransmits;
    ctx.admission_tracking = true;
    const auto violations = core::InvariantRegistry::standard().check(ctx);
    if (!violations.empty()) {
      out.error = "invariant '" + violations.front().name +
                  "': " + violations.front().detail;
    } else if (reference != nullptr) {
      if (const auto diff = core::first_divergence(*reference, *out.report)) {
        out.error = "report diverged from the first replay: " + *diff;
      }
    }
  } catch (const std::exception& e) {
    out.error = std::string("exception: ") + e.what();
  }
  return out;
}

/// Peak RSS the first replay of a fresh process adds above its input, in MB.
/// A forked child, holding the set-up workload and nothing else, resets
/// VmHWM, replays at pipes 4, and writes VmHWM minus its VmRSS before the
/// replay back through a pipe. nullopt when the child's replay failed.
std::optional<double> first_replay_rss_mb(const Workload& w,
                                          std::size_t threads) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::cout.flush();  // the child must not inherit unwritten output
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    malloc_trim(0);
    double mb = -1.0;
    if (reset_peak_rss()) {
      const double before = proc_status_mb("VmRSS");
      const Replay r = replay(w, Mode::kPipes4, threads, nullptr, false);
      if (r.error.empty()) {
        mb = proc_status_mb("VmHWM") - before;
      } else {
        std::cerr << "perfbench: RSS replay failed: " << r.error << "\n";
      }
    } else {
      std::cerr << "perfbench: cannot reset VmHWM\n";
    }
    const bool sent = write(fds[1], &mb, sizeof(mb)) == sizeof(mb);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double mb = -1.0;
  const ssize_t got = read(fds[0], &mb, sizeof(mb));
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != static_cast<ssize_t>(sizeof(mb)) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || !(mb > 0.0)) {
    return std::nullopt;
  }
  return mb;
}

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kSerial: return "serial";
    case Mode::kPipes1: return "pipes1";
    case Mode::kPipes4: return "pipes4";
  }
  return "?";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_number(values[i]);
  }
  return out + "]";
}

/// {"key": value, ...} from pre-rendered values.
std::string json_object(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(fields[i].first) + ": " + fields[i].second;
  }
  return out + "}";
}

/// Counts replays and remembers the first failure for stderr.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void note(const Replay& r, Mode mode) {
    ++attempted;
    if (r.error.empty()) return;
    ++failed;
    correct = false;
    std::cerr << "perfbench: " << mode_name(mode) << " replay failed: "
              << r.error << "\n";
  }
};

void print_host(const Workload& w, std::size_t nproc, std::size_t threads) {
  std::vector<std::string> warnings;
#if !defined(__OPTIMIZE__)
  warnings.push_back("non-optimized build");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  warnings.push_back("sanitized build");
#endif
  std::string warn = "[";
  for (std::size_t i = 0; i < warnings.size(); ++i) {
    warn += (i > 0 ? ", " : "") + json_string(warnings[i]);
    std::cerr << "perfbench: WARNING: " << warnings[i]
              << " -- timings are not representative\n";
  }
  warn += "]";
  const double input_mb =
      static_cast<double>(w.trace.packets.size() * sizeof(net::PacketRecord) +
                          w.trace.flows.size() * sizeof(net::FlowRecord)) /
      (1024.0 * 1024.0);
  std::cout << json_object(
                   {{"host",
                     json_object({{"nproc", std::to_string(nproc)},
                                  {"threads", std::to_string(threads)},
                                  {"build_type", json_string(PERFBENCH_BUILD_TYPE)},
                                  {"cxx_flags", json_string(PERFBENCH_CXX_FLAGS)},
                                  {"compiler", json_string(PERFBENCH_COMPILER)},
                                  {"input_trace_mb", json_number(input_mb)},
                                  {"warnings", warn}})}})
            << "\n";
}

/// Sim-time outputs of the replay: deterministic model results, printed for
/// reference and never compared as performance.
void print_model_results(const Workload& w, const Replay& first) {
  const core::RunReport& r = *first.report;
  const double epochs = static_cast<double>(first.telemetry.epochs);
  std::cout << json_object(
                   {{"model_results",
                     json_object(
                         {{"workload", json_string(w.name)},
                          {"packets", std::to_string(r.packets)},
                          {"flows", std::to_string(w.trace.flows.size())},
                          {"trace_ms", json_number(sim::to_milliseconds(
                                           r.trace_duration))},
                          {"epochs", std::to_string(first.telemetry.epochs)},
                          {"pkts_per_epoch",
                           json_number(epochs > 0 ? r.packets / epochs : 0.0)},
                          {"mirrors", std::to_string(r.mirrors)},
                          {"mirror_ratio",
                           json_number(static_cast<double>(r.mirrors) /
                                       static_cast<double>(r.packets))},
                          {"fifo_drops", std::to_string(r.fifo_drops)},
                          {"deadline_misses", std::to_string(r.deadline_misses)},
                          {"admission_offered",
                           std::to_string(r.admission_offered)},
                          {"admission_shed",
                           std::to_string(r.shed_thinned + r.shed_frozen +
                                          r.shed_isolated)},
                          {"admission_peak_tier",
                           std::to_string(r.admission_peak_tier)},
                          {"e2e_p50_us", json_number(r.end_to_end.p50_us())},
                          {"e2e_p99_us", json_number(r.end_to_end.p99_us())},
                          {"e2e_p999_us", json_number(r.end_to_end.p999_us())},
                          {"flow_macro_f1",
                           json_number(r.flow_confusion.macro_f1())}})}})
            << "\n";
}

void print_result(const Tally& tally, const Metrics& metrics) {
  std::vector<std::pair<std::string, std::string>> fields;
  bool finite = true;
  for (const Metric& m : metrics) {
    finite = finite && std::isfinite(m.value);
    fields.push_back({m.name, json_object({{"value", json_number(m.value)},
                                           {"unit", json_string(m.unit)}})});
  }
  std::cout << json_object({{"correct", tally.correct && finite ? "true" : "false"},
                            {"attempted", std::to_string(tally.attempted)},
                            {"failed", std::to_string(tally.failed)},
                            {"metrics", json_object(fields)}})
            << std::endl;
}

double pps(const Workload& w, const std::vector<double>& walls) {
  return static_cast<double>(w.trace.packets.size()) / median(walls);
}

/// --trace 0: set-up timing, the RSS replay, then serial / pipes1 / pipes4
/// replays interleaved for `seconds`, each mode given an equal share of time.
int run_end_to_end(const Args& args, std::size_t nproc) {
  const std::size_t threads = nproc;
  Tally tally;
  std::vector<double> setup_s;

  auto start = Clock::now();
  Workload w = make_workload(args.workload, args.seed);
  setup_s.push_back(seconds_since(start));
  print_host(w, nproc, threads);

  // Set-up is single-threaded, so the process can fork fresh replayers here.
  std::vector<double> rss_mb;
  for (int i = 0; i < kRssSamples; ++i) {
    const std::optional<double> mb = first_replay_rss_mb(w, threads);
    ++tally.attempted;
    if (mb) {
      rss_mb.push_back(*mb);
    } else {
      ++tally.failed;
      tally.correct = false;
    }
  }

  Replay first = replay(w, Mode::kPipes4, threads, nullptr, false);
  tally.note(first, Mode::kPipes4);
  if (!first.report || rss_mb.empty()) {
    tally.correct = false;
    print_result(tally, {});
    return 0;
  }
  print_model_results(w, first);

  // Further set-ups, timed and checked to regenerate the identical input.
  const std::uint64_t digest = trace_digest(w.trace);
  for (int i = 1; i < kSetups; ++i) {
    start = Clock::now();
    const Workload again = make_workload(args.workload, args.seed);
    setup_s.push_back(seconds_since(start));
    if (trace_digest(again.trace) != digest) {
      std::cerr << "perfbench: set-up is not deterministic\n";
      tally.correct = false;
    }
  }

  // The serial replay is checked here but not timed: on the mirror-heavy
  // workloads its wall time is mostly scalar predict, which drifts too far on
  // a shared host to gate on. The traced run reports it as replay.serial_pps.
  const Replay serial = replay(w, Mode::kSerial, threads, &*first.report, false);
  tally.note(serial, Mode::kSerial);

  const Mode modes[] = {Mode::kPipes1, Mode::kPipes4};
  std::vector<double> walls[2];
  double spent[2] = {0.0, 0.0};
  const auto measure_start = Clock::now();
  do {
    // Pipes 4 gets two thirds of the time: its replays are shorter and
    // spread more, because one slow core holds up every barrier.
    const std::size_t m = 2 * spent[0] <= spent[1] ? 0 : 1;
    const auto replay_start = Clock::now();
    const Replay r = replay(w, modes[m], threads, &*first.report, false);
    spent[m] += seconds_since(replay_start);
    tally.note(r, modes[m]);
    if (r.report) walls[m].push_back(r.wall_s);
  } while (seconds_since(measure_start) < args.seconds ||
           ((walls[0].empty() || walls[1].empty()) &&
            seconds_since(measure_start) < kMaxMeasureSeconds));
  if (walls[0].empty() || walls[1].empty()) {
    tally.correct = false;
    print_result(tally, {});
    return 0;
  }

  const double p4 = pps(w, walls[1]);
  const double p1 = pps(w, walls[0]);
  // Every sample behind the medians, and the pipes-4 over pipes-1 scaling
  // ratio, which is printed but not a metric: a pure per-packet speed-up
  // lowers it.
  std::cout << json_object(
                   {{"samples",
                     json_object({{"serial_check_wall_s",
                                   json_number(serial.wall_s)},
                                  {"pipes1_wall_s", json_list(walls[0])},
                                  {"pipes4_wall_s", json_list(walls[1])},
                                  {"rss_mb", json_list(rss_mb)},
                                  {"setup_s", json_list(setup_s)}})},
                    {"pipes4_over_pipes1", json_number(p4 / p1)}})
            << "\n";
  print_result(tally, {{"replay_pps_p4", p4, "pkt/s"},
                       {"replay_pps_p1", p1, "pkt/s"},
                       {"replay_rss_mb", median(rss_mb), "MB"},
                       {"setup_s", median(setup_s), "s"}});
  return 0;
}

/// --trace 1: traced and untraced pipes-4 replays alternated for half the
/// run, serial replays for a quarter of it (at least one), then the direct
/// layer drives.
int run_traced(const Args& args, std::size_t nproc) {
  const std::size_t threads = nproc;
  Tally tally;
  Workload w = make_workload(args.workload, args.seed);
  print_host(w, nproc, threads);

  Replay first = replay(w, Mode::kPipes4, threads, nullptr, false);
  tally.note(first, Mode::kPipes4);
  if (!first.report) {
    print_result(tally, {});
    return 0;
  }
  print_model_results(w, first);
  const core::RunReport& ref = *first.report;

  std::vector<double> overhead;  ///< Traced wall / untraced wall, per pair.
  std::vector<double> source_s, tail_s, cpu_util, epoch_p50, epoch_p99;
  std::vector<double> cas_retries, full_stalls, peak_skew;
  core::PipelineTelemetry tel;
  const auto measure_start = Clock::now();
  bool plain_first = true;
  do {
    // Pairs alternate which replay runs first, so drift cancels in the ratio.
    // The traced report must equal the untraced one: tracing only observes.
    std::optional<Replay> plain;
    if (plain_first) plain = replay(w, Mode::kPipes4, threads, &ref, false);
    const Replay traced = replay(w, Mode::kPipes4, threads, &ref, true);
    if (!plain_first) plain = replay(w, Mode::kPipes4, threads, &ref, false);
    plain_first = !plain_first;
    tally.note(*plain, Mode::kPipes4);
    tally.note(traced, Mode::kPipes4);
    if (!plain->report || !traced.trace) continue;  // threw; counted as failed
    overhead.push_back(traced.wall_s / plain->wall_s);
    const TraceRecord& rec = *traced.trace;
    source_s.push_back(rec.source_s);
    tail_s.push_back(rec.tail_s);
    cpu_util.push_back(rec.cpu_s /
                       (traced.wall_s * static_cast<double>(threads)));
    std::vector<double> epochs = rec.epoch_us;
    if (!epochs.empty()) {
      std::sort(epochs.begin(), epochs.end());
      epoch_p50.push_back(epochs[epochs.size() / 2]);
      epoch_p99.push_back(epochs[epochs.size() * 99 / 100]);
    }
    // Fan-in contention: fanin.peak_size is left out, its snapshot can wrap.
    tel = traced.telemetry;
    cas_retries.push_back(static_cast<double>(tel.fanin.cas_retries));
    full_stalls.push_back(static_cast<double>(tel.fanin.full_stalls));
    double peak_max = 0.0;
    double peak_sum = 0.0;
    for (const std::uint64_t p : tel.pipe_queue_peaks) {
      peak_max = std::max(peak_max, static_cast<double>(p));
      peak_sum += static_cast<double>(p);
    }
    peak_skew.push_back(peak_sum > 0 ? peak_max * tel.pipe_queue_peaks.size() /
                                           peak_sum
                                     : 0.0);
  } while (seconds_since(measure_start) < args.seconds / 2);

  std::vector<double> serial_walls;
  const auto serial_start = Clock::now();
  do {
    const Replay r = replay(w, Mode::kSerial, threads, &ref, false);
    tally.note(r, Mode::kSerial);
    if (r.report) serial_walls.push_back(r.wall_s);
  } while (seconds_since(serial_start) < args.seconds / 4);
  if (overhead.empty() || epoch_p50.empty() || serial_walls.empty()) {
    tally.correct = false;
    print_result(tally, {});
    return 0;
  }

  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };

  Metrics metrics = {
      {"pipeline.source_s", median(source_s), "s"},
      {"pipeline.epochs", static_cast<double>(tel.epochs), "count"},
      {"pipeline.pkts_per_epoch", ratio(ref.packets, tel.epochs), "pkt"},
      {"pipeline.epoch_us_p50", median(epoch_p50), "us"},
      {"pipeline.epoch_us_p99", median(epoch_p99), "us"},
      {"pipeline.tail_s", median(tail_s), "s"},
      {"pipeline.cpu_util", median(cpu_util), "ratio"},
      {"pipeline.fanin_enqueues", static_cast<double>(tel.fanin.enqueues), "count"},
      {"pipeline.fanin_cas_retries", median(cas_retries), "count"},
      {"pipeline.fanin_full_stalls", median(full_stalls), "count"},
      {"pipeline.pipe_peak_skew", median(peak_skew), "ratio"},
      {"pipeline.trace_overhead", median(overhead), "ratio"},
      {"replay.serial_pps", pps(w, serial_walls), "pkt/s"},
      {"replay.mirror_ratio", ratio(ref.mirrors, ref.packets), "ratio"},
      {"replay.fifo_drop_ratio", ratio(ref.fifo_drops, ref.mirrors), "ratio"},
      {"replay.miss_ratio", ratio(ref.deadline_misses, ref.mirrors), "ratio"},
      {"replay.retransmits", static_cast<double>(ref.retransmits), "count"},
      {"admission.served_ratio",
       ratio(ref.admission_admitted, ref.admission_offered), "ratio"},
      {"admission.transitions", static_cast<double>(ref.admission_transitions),
       "count"},
      {"trafficgen.gen_pps",
       static_cast<double>(w.trace.packets.size()) / w.gen_s, "pkt/s"},
  };
  const std::size_t layer_failures = drive_layers(w, threads, metrics);
  if (layer_failures > 0) {
    std::cerr << "perfbench: " << layer_failures
              << " layer drive output check(s) failed\n";
    tally.correct = false;
  }
  print_result(tally, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: fenix_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n";
    return 2;
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args->workload) == names.end()) {
    std::cerr << "fenix_perfbench: unknown workload '" << args->workload
              << "'\n";
    return 2;
  }
  try {
    const std::size_t nproc = host_nproc();
    return args->trace ? run_traced(*args, nproc)
                       : run_end_to_end(*args, nproc);
  } catch (const std::exception& e) {
    std::cerr << "fenix_perfbench: " << e.what() << "\n";
    return 1;
  }
}

// Multi-model deployment (§8 "Automation and Future Directions").
//
// The ZU19EG has headroom beyond one Model Engine (Table 4 leaves >50% of
// every resource free), so several task-specific engines can be resident at
// once — e.g. a VPN classifier and a malware classifier sharing the FPGA,
// with the switch steering each mirrored vector to the engine its mirror
// session selects. The pool validates that the combined synthesis fits the
// device before admitting an engine, maps each task id to its engine
// (engine(task)), and supports per-engine hot-swap.
//
// The file also holds the functional side of one engine in a replay: the
// InferenceBatcher that computes forward passes in batches, and the
// InferenceStage that feeds it the rows the replay's lanes tokenize, lane by
// lane, at every barrier.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/flow_tracker.hpp"
#include "core/model_engine.hpp"
#include "nn/featurizer.hpp"
#include "runtime/mpsc_queue.hpp"
#include "runtime/worker_fleet.hpp"

namespace fenix::core {

/// Thrown when an engine would not fit the remaining FPGA resources.
class DeviceOvercommit : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a routed task id names no resident engine. A typed error (not
/// the container's bare std::out_of_range) so callers can distinguish a
/// misrouted mirror session from a genuine bug in the pool itself.
class UnknownTask : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class ModelPool {
 public:
  /// All engines share one device envelope.
  explicit ModelPool(fpgasim::DeviceProfile device) : device_(std::move(device)) {}

  /// Adds an engine for `task`. Throws DeviceOvercommit when the pooled
  /// resource estimate would exceed the device (with a routing/arbiter
  /// overhead margin). Returns the task id.
  std::size_t add_engine(ModelEngineConfig config, const nn::QuantizedCnn* cnn,
                         const nn::QuantizedRnn* rnn);

  std::size_t size() const { return engines_.size(); }
  /// The engine serving `task`. Throws UnknownTask when `task` names no
  /// resident engine.
  ModelEngine& engine(std::size_t task) { return *checked(task); }
  const ModelEngine& engine(std::size_t task) const { return *checked(task); }

  /// Precision tier of the model bound to `task` — part of the task's
  /// configuration, echoed by task listings and the replay health table.
  nn::Precision task_precision(std::size_t task) const {
    return checked(task)->precision();
  }

  /// Per-engine hot swap: partial-reconfigure the engine serving `task` onto
  /// a new model (exactly one of `cnn` / `rnn` non-null). The engine drops
  /// submissions for `blackout`, then serves the new model; the switch keeps
  /// forwarding from cached verdicts / the fallback tree meanwhile.
  void swap_model(std::size_t task, const nn::QuantizedCnn* cnn,
                  const nn::QuantizedRnn* rnn, sim::SimTime now,
                  sim::SimDuration blackout = sim::milliseconds(20)) {
    checked(task)->begin_reconfiguration(now, cnn, rnn, blackout);
  }

  /// Pooled resource utilization across all resident engines.
  fpgasim::Utilization utilization() const {
    return fpgasim::utilization(pooled_, device_);
  }

  const fpgasim::DeviceProfile& device() const { return device_; }

 private:
  static fpgasim::ResourceEstimate total_of(const ModelEngine& engine);

  ModelEngine* checked(std::size_t task) {
    if (task >= engines_.size()) {
      throw UnknownTask("ModelPool: unknown task id " + std::to_string(task) +
                        " (" + std::to_string(engines_.size()) +
                        " engines resident)");
    }
    return engines_[task].get();
  }
  const ModelEngine* checked(std::size_t task) const {
    return const_cast<ModelPool*>(this)->checked(task);
  }

  fpgasim::DeviceProfile device_;
  fpgasim::ResourceEstimate pooled_;
  std::vector<std::unique_ptr<ModelEngine>> engines_;
};

/// One resident model: exactly one of `cnn` / `rnn` non-null, or neither
/// for "no model".
struct ModelRef {
  const nn::QuantizedCnn* cnn = nullptr;
  const nn::QuantizedRnn* rnn = nullptr;
};

/// Batched Model Engine submission front end.
///
/// The replay admits mirrors through ModelEngine::submit_timed_lane (pure
/// timing/FIFO effects) and routes the functional forward passes here: each
/// enqueue() copies one tokenized row into the open batch; full batches go
/// into a fixed claim ring that any idle thread of the batcher's WorkerFleet
/// computes them from (the owner, when the ring is full); the predicted class
/// is read back by ticket once the batch completes. This is the software
/// analogue of the FPGA's async input FIFO feeding the systolic array
/// back-to-back frames: per-frame dispatch overhead amortizes across the
/// batch while the arithmetic — nn::predict_batch is bit-identical to
/// per-window predict() — is unchanged. With a shadow model bound, every
/// batch is computed by both models, each over its own seq_len tokenization
/// of the same sequences: a row holds model 0's tokens, then model 1's.
///
/// Threading contract: only the owner (the constructing thread) calls the
/// members; other fleet threads touch only the claim ring and the batches in
/// it, each with its own nn::Scratch. result() is valid for a ticket below
/// the last seal() (or flush(), or finish()) until retire() drops its batch.
/// retire() drops only batches a seal() has seen done, which no other thread
/// touches again, and later batches reuse their buffers.
class InferenceBatcher {
 public:
  using Ticket = std::uint64_t;

  /// Exactly one of `cnn` / `rnn` non-null (the model the bound engine
  /// executes, model 0); `shadow` (model 1) is optional. `batch_size`
  /// inferences per dispatched frame; `workers` fleet threads besides the
  /// owner (0 = compute on the owner).
  InferenceBatcher(const nn::QuantizedCnn* cnn, const nn::QuantizedRnn* rnn,
                   std::size_t batch_size, std::size_t workers,
                   ModelRef shadow = {});

  InferenceBatcher(const InferenceBatcher&) = delete;
  InferenceBatcher& operator=(const InferenceBatcher&) = delete;

  /// Tokens in one row: every bound model's seq_len.
  std::size_t row_tokens() const { return seq_len_[0] + seq_len_[1]; }

  /// Writes the row of `sequence` to `row` (row_tokens() entries): its
  /// tokenization at model 0's seq_len, then at model 1's. Reads only the
  /// models' shapes, so any thread may call it.
  void tokenize_row(std::span<const net::PacketFeature> sequence,
                    nn::Token* row) const;

  /// Copies `row` (a tokenize_row() output) into the open batch and returns
  /// the ticket its predicted class will be readable under. Dispatches the
  /// batch when full.
  Ticket enqueue(const nn::Token* row);

  /// enqueue() of the row of `sequence`.
  Ticket enqueue(const std::vector<net::PacketFeature>& sequence);

  /// Makes every ticket below `ticket` (at most next_ticket()) readable. The
  /// open partial batch is dispatched only if it holds such a ticket; the
  /// ticket counter then moves up to the next batch boundary, so no later
  /// enqueue lands in a dispatched batch. Computes batches until every batch
  /// holding such a ticket is done. Returns next_ticket().
  Ticket seal(Ticket ticket);

  /// seal() of every ticket handed out so far.
  Ticket flush() { return seal(next_ticket_); }

  /// Completes everything outstanding, including a partial final batch.
  void finish() { flush(); }

  /// Drops the batches that hold only tickets below `ticket` and that a
  /// seal() has seen done.
  void retire(Ticket ticket);

  /// Class `model` (0 = primary, 1 = shadow) predicted for `ticket`.
  std::int16_t result(Ticket ticket, std::size_t model = 0) const {
    const Batch& b = *live_[ticket / batch_size_ - first_batch_];
    return b.out[model * batch_size_ + ticket % batch_size_];
  }

  /// The tokens `model` reads for `ticket`, until retire() drops its batch.
  std::span<const nn::Token> tokens(Ticket ticket, std::size_t model = 0) const {
    const Batch& b = *live_[ticket / batch_size_ - first_batch_];
    return {b.tokens.data() + token_base(model) +
                ticket % batch_size_ * seq_len_[model],
            seq_len_[model]};
  }

  /// The ticket the next enqueue() hands out.
  Ticket next_ticket() const { return next_ticket_; }

  /// Batches created and not yet retired.
  std::size_t live_batches() const { return live_.size(); }

  const ModelRef& model(std::size_t i) const { return models_[i]; }

  runtime::WorkerFleet& fleet() { return fleet_; }

  /// Host seconds the fleet threads spent inside compute(), summed over
  /// threads (one clock pair per batch), and the owner's seconds inside
  /// seal(). Host time: they vary run to run and are no result.
  double compute_seconds() const;
  double seal_seconds() const { return static_cast<double>(seal_ns_) * 1e-9; }

 private:
  struct Batch {
    /// Per model, model 0 first: batch_size * that model's seq_len tokens,
    /// row-major.
    std::vector<nn::Token> tokens;
    /// Per model, model 0 first: one predicted class per inference.
    std::vector<std::int16_t> out;
    std::size_t count = 0;
    std::atomic<bool> done{false};  ///< Released once `out` is written.
  };

  /// Computes `batch` on fleet thread `t` (0 = the owner).
  void compute(Batch& batch, std::size_t t);
  void dispatch(Batch& batch);
  /// Claims and computes one dispatched batch on thread `t`; false if none.
  bool compute_next(std::size_t t);
  Batch& open_batch();
  /// Offset of model `m`'s tokens in Batch::tokens.
  std::size_t token_base(std::size_t m) const {
    return m * batch_size_ * seq_len_[0];
  }

  std::array<ModelRef, 2> models_;
  std::array<std::size_t, 2> seq_len_{};
  std::size_t model_count_;  ///< 1, or 2 with a shadow bound.
  std::size_t batch_size_;

  /// Batch first_batch_ + i, holding tickets from (first_batch_ + i) *
  /// batch_size_; unique_ptr keeps addresses stable. Owner only.
  std::deque<std::unique_ptr<Batch>> live_;
  std::vector<std::unique_ptr<Batch>> spare_;  ///< Retired, buffers kept.
  std::uint64_t first_batch_ = 0;
  std::uint64_t observed_ = 0;  ///< Batches below this were seen done.
  Ticket next_ticket_ = 0;

  /// Dispatched batches: the owner publishes at head, threads claim by CAS.
  std::array<std::atomic<Batch*>, 256> ring_{};
  alignas(64) std::atomic<std::size_t> ring_head_{0};
  alignas(64) std::atomic<std::size_t> ring_tail_{0};
  std::vector<nn::Scratch> scratch_;   ///< One per fleet thread.
  /// Per fleet thread: nanoseconds inside compute(), written by that thread.
  struct alignas(64) ComputeClock {
    std::atomic<std::uint64_t> ns{0};
  };
  std::vector<ComputeClock> compute_ns_;
  std::uint64_t seal_ns_ = 0;  ///< Owner only.
  std::vector<nn::Token> tmp_row_;  ///< enqueue(sequence) staging.
  runtime::WorkerFleet fleet_;  ///< Last: joins before the state it reads goes.
};

/// VerdictSymbol layout of the InferenceStage:
/// (generation << 44) | (lane << 40) | per-lane sequence.
inline constexpr unsigned kSymbolSeqBits = 40;
inline constexpr unsigned kSymbolGenerationShift = 44;
static_assert(kCoordinationLanes <= (1u << (kSymbolGenerationShift - kSymbolSeqBits)),
              "the lane field of a VerdictSymbol must hold every lane");

/// Shadow evaluations of one lifecycle window, and how many of them the
/// primary and the shadow classified differently.
struct ShadowTally {
  std::uint64_t evals = 0;
  std::uint64_t disagreements = 0;
};

/// The replay's inference stage (DESIGN.md §4.8): one mirror in, one timed
/// result out. A pipe thread admits the mirror on its lane port
/// (ModelEngine::submit_timed_lane) and tokenizes the feature window into a
/// row buffer its lane owns, with no lock, CAS or allocation once the buffer
/// has grown. At every hand-off point the coordinator hands the rows to the
/// InferenceBatcher lane by lane, each lane's in sequence order — the
/// software mirror of the Model Engine's input arbiter feeding the systolic
/// array — so tickets and batch composition are a pure function of the
/// trace. Symbols carry (generation, lane, sequence). At every epoch barrier
/// close_epoch() settles the symbols issued up to the barrier two back: it
/// reads the class of each symbol's serving model (model `generation & 1`)
/// into a per-lane class table, which resolve() reads, and retires their
/// tickets and batches. In lifecycle runs the batcher also computes the
/// shadow, and close_window() counts the window's disagreements at each
/// barrier.
///
/// Its batcher's fleet is the replay's one pool: the coordinator runs the
/// pipe rounds on it. submit() may run concurrently on distinct lanes,
/// never on the same lane; every other member runs on the coordinator (the
/// constructing thread) between rounds. The generation flips only between
/// rounds.
class InferenceStage {
 public:
  /// Binds the engine's current model as model 0 and `shadow` (none in plain
  /// runs) as model 1; the fleet adds `workers` threads to the coordinator.
  InferenceStage(ModelEngine& engine, ModelRef shadow, std::size_t batch_size,
                 std::size_t workers);

  /// Admits one feature vector arriving at the Model Engine at `arrival` on
  /// `lane`. On admission, returns the timed result (predicted class is a
  /// placeholder), sets `symbol` to the verdict symbol accounting should
  /// carry and appends the window's row to the lane. nullopt = input FIFO
  /// drop.
  std::optional<net::InferenceResult> submit(const net::FeatureVector& vec,
                                             sim::SimTime arrival,
                                             std::size_t lane,
                                             VerdictSymbol& symbol);

  /// Hands every lane's rows to the batcher, lane 0 first, each lane's in
  /// sequence order. The replay calls it after each round.
  void hand_off();

  /// Barrier-only (lifecycle runs): hands off the rows, flushes the batcher
  /// and waits for it, then tallies the window's mirrors since the previous
  /// call and their primary-vs-shadow disagreements. It runs before the
  /// barrier's close_epoch(), whose seal therefore never splits a window.
  ShadowTally close_window();

  /// Barrier-only, after the barrier's last submit: makes every symbol
  /// handed off up to the mark of two barriers back resolvable, retires its
  /// ticket and batch, then hands off the rows (the barrier's retransmits)
  /// and marks what it handed off.
  void close_epoch();

  /// Completes every batch and makes every symbol resolvable.
  void finish() {
    hand_off();
    settle(handed_off());
  }

  runtime::WorkerFleet& fleet() { return batcher_.fleet(); }
  const InferenceBatcher& batcher() const { return batcher_; }

  /// The class a settled symbol's serving model predicted.
  std::int16_t resolve(VerdictSymbol symbol) const {
    const auto [lane, seq] = lane_and_seq(static_cast<std::uint64_t>(symbol));
    return lanes_[lane].classes.at(seq);
  }

  /// The ticket of a symbol handed off and not settled yet.
  InferenceBatcher::Ticket ticket(VerdictSymbol symbol) const {
    const auto [lane, seq] = lane_and_seq(static_cast<std::uint64_t>(symbol));
    const Lane& L = lanes_[lane];
    return L.issued.at(seq - L.classes.size()).ticket;
  }

  /// Serving generation: even generations serve model(0) (the original
  /// primary), odd ones model(1) (the shadow candidate).
  std::uint64_t generation() const { return generation_; }

  /// Barrier-only: flip the serving and shadow roles.
  void swap_models() { ++generation_; }

  const ModelRef& model(std::size_t i) const { return batcher_.model(i); }

  /// The hand-off in the fan-in's terms: enqueues (and dequeues) count the
  /// rows handed off, peak_size is the most one hand_off() carried, and
  /// nothing retries a CAS or stalls on a full ring.
  const runtime::MpscQueueStats& fanin_stats() const { return fanin_; }

  /// Most batches alive at any close_epoch(), before it retires.
  std::size_t peak_live_batches() const { return peak_live_batches_; }

  /// The batcher's host-time clocks (InferenceBatcher::compute_seconds(),
  /// seal_seconds()); read them after finish().
  double batch_compute_s() const { return batcher_.compute_seconds(); }
  double seal_wait_s() const { return batcher_.seal_seconds(); }

 private:
  /// A handed-off symbol awaiting its class: its ticket and serving model.
  struct Issued { InferenceBatcher::Ticket ticket; std::size_t model; };

  /// One coordination lane's symbols. Between barriers only the pipe thread
  /// driving the lane touches it; the coordinator hands off and settles.
  struct alignas(64) Lane {
    std::uint64_t next_seq = 0;  ///< Sequence of the lane's next symbol.
    /// Admitted rows not handed off yet, row_tokens() tokens each, and per
    /// row its serving model.
    std::vector<nn::Token> rows;
    std::vector<std::uint8_t> serving;
    /// By sequence: each settled symbol's class, kept for the run (a flow
    /// may forward on a cached verdict for as long as it lives).
    std::vector<std::int16_t> classes;
    /// The handed-off symbols from sequence classes.size() on.
    std::vector<Issued> issued;
  };

  /// Per-lane sequences handed off up to one barrier, and the batcher's
  /// next ticket then: every lower ticket is a marked one.
  struct Mark {
    std::array<std::uint64_t, kCoordinationLanes> seq{};
    InferenceBatcher::Ticket ticket = 0;
  };

  /// A symbol's (lane, per-lane sequence) fields.
  static std::pair<std::size_t, std::size_t> lane_and_seq(std::uint64_t bits) {
    const std::uint64_t lane_mask =
        (std::uint64_t{1} << (kSymbolGenerationShift - kSymbolSeqBits)) - 1;
    return {(bits >> kSymbolSeqBits) & lane_mask,
            bits & ((std::uint64_t{1} << kSymbolSeqBits) - 1)};
  }

  /// The mark of everything hand_off() has fed the batcher so far.
  Mark handed_off() const;
  /// Seals the batcher to `mark`, moves the classes of every sequence below
  /// it into the lanes' class tables, drops their tickets and retires their
  /// batches.
  void settle(const Mark& mark);

  ModelEngine& engine_;
  InferenceBatcher batcher_;
  std::uint64_t generation_ = 0;  ///< Written at barriers only.
  std::array<Lane, kCoordinationLanes> lanes_;
  /// marks_[0] is the last barrier's mark, marks_[1] the one before.
  std::array<Mark, 2> marks_{};
  runtime::MpscQueueStats fanin_;
  std::size_t peak_live_batches_ = 0;
  /// Tickets of the open lifecycle window: [window_begin_, window_end_).
  InferenceBatcher::Ticket window_begin_ = 0;
  InferenceBatcher::Ticket window_end_ = 0;
};

}  // namespace fenix::core

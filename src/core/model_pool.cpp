#include "core/model_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace fenix::core {

fpgasim::ResourceEstimate ModelPool::total_of(const ModelEngine& engine) {
  fpgasim::ResourceEstimate total;
  total.module = "engine";
  for (const auto& est : engine.resource_report()) total += est;
  return total;
}

std::size_t ModelPool::add_engine(ModelEngineConfig config,
                                  const nn::QuantizedCnn* cnn,
                                  const nn::QuantizedRnn* rnn) {
  auto engine = std::make_unique<ModelEngine>(config, cnn, rnn);
  fpgasim::ResourceEstimate candidate = pooled_;
  candidate += total_of(*engine);
  // Routing crossbar + arbiter margin: 3% LUT/FF per resident engine.
  const double margin = 0.03 * static_cast<double>(engines_.size() + 1);
  const auto util = fpgasim::utilization(candidate, device_);
  if (util.lut + margin > 1.0 || util.ff + margin > 1.0 || util.bram > 1.0 ||
      util.uram > 1.0 || util.dsp > 1.0) {
    throw DeviceOvercommit("model pool would exceed the " + device_.name +
                           " envelope with engine #" +
                           std::to_string(engines_.size() + 1));
  }
  pooled_ = candidate;
  engines_.push_back(std::move(engine));
  return engines_.size() - 1;
}

// ---------------------------------------------------------- InferenceBatcher

namespace {

std::size_t seq_len_of(const ModelRef& model) {
  return model.cnn ? model.cnn->config().seq_len
                   : model.rnn ? model.rnn->config().seq_len : 0;
}

}  // namespace

InferenceBatcher::InferenceBatcher(const nn::QuantizedCnn* cnn,
                                   const nn::QuantizedRnn* rnn,
                                   std::size_t batch_size, std::size_t workers,
                                   ModelRef shadow)
    : models_{ModelRef{cnn, rnn}, shadow},
      seq_len_{seq_len_of(models_[0]), seq_len_of(shadow)},
      model_count_(shadow.cnn || shadow.rnn ? 2 : 1),
      batch_size_(std::max<std::size_t>(1, batch_size)),
      scratch_(workers + 1),
      fleet_(workers + 1, [this](std::size_t t) { return compute_next(t); }) {
  if ((cnn == nullptr) == (rnn == nullptr)) {
    throw std::invalid_argument("InferenceBatcher: exactly one model must be bound");
  }
  if (shadow.cnn && shadow.rnn) {
    throw std::invalid_argument(
        "InferenceBatcher: exactly one shadow model required");
  }
}

void InferenceBatcher::compute(Batch& batch, nn::Scratch& scratch) {
  for (std::size_t m = 0; m < model_count_; ++m) {
    const nn::Token* tokens = batch.tokens.data() + token_base(m);
    std::int16_t* out = batch.out.data() + m * batch_size_;
    if (models_[m].cnn) {
      models_[m].cnn->predict_batch(tokens, batch.count, scratch, out);
    } else {
      models_[m].rnn->predict_batch(tokens, batch.count, scratch, out);
    }
  }
  batch.done.store(true, std::memory_order_release);  // last touch of `batch`
  fleet_.notify();  // the owner may be parked in seal()
}

void InferenceBatcher::dispatch(Batch& batch) {
  const std::size_t head = ring_head_.load(std::memory_order_relaxed);
  if (head - ring_tail_.load(std::memory_order_acquire) == ring_.size()) {
    compute(batch, scratch_[0]);  // the ring is full
    return;
  }
  ring_[head % ring_.size()].store(&batch, std::memory_order_relaxed);
  ring_head_.store(head + 1, std::memory_order_release);
  fleet_.notify();
}

bool InferenceBatcher::compute_next(std::size_t t) {
  // A slot read under a stale tail fails the CAS; the release orders the
  // read before dispatch() may reuse the slot.
  std::size_t tail = ring_tail_.load(std::memory_order_relaxed);
  Batch* batch = nullptr;
  do {
    if (tail == ring_head_.load(std::memory_order_acquire)) return false;
    batch = ring_[tail % ring_.size()].load(std::memory_order_relaxed);
  } while (!ring_tail_.compare_exchange_weak(tail, tail + 1,
                                             std::memory_order_release,
                                             std::memory_order_relaxed));
  compute(*batch, scratch_[t]);
  return true;
}

InferenceBatcher::Batch& InferenceBatcher::open_batch() {
  if (next_ticket_ % batch_size_ != 0) return *live_.back();
  if (spare_.empty()) {
    auto fresh = std::make_unique<Batch>();
    fresh->tokens.resize(batch_size_ * (seq_len_[0] + seq_len_[1]));
    fresh->out.resize(batch_size_ * model_count_);
    spare_.push_back(std::move(fresh));
  }
  live_.push_back(std::move(spare_.back()));
  spare_.pop_back();
  Batch& b = *live_.back();
  b.done.store(false, std::memory_order_relaxed);
  return b;
}

InferenceBatcher::Ticket InferenceBatcher::enqueue(
    const std::vector<net::PacketFeature>& sequence) {
  Batch& batch = open_batch();
  const std::size_t offset = static_cast<std::size_t>(next_ticket_ % batch_size_);
  for (std::size_t m = 0; m < model_count_; ++m) {
    nn::tokenize_into(sequence, seq_len_[m], tmp_tokens_);
    std::copy(tmp_tokens_.begin(), tmp_tokens_.end(),
              batch.tokens.begin() + token_base(m) + offset * seq_len_[m]);
  }
  batch.count = offset + 1;
  const Ticket ticket = next_ticket_++;
  if (batch.count == batch_size_) dispatch(batch);
  return ticket;
}

InferenceBatcher::Ticket InferenceBatcher::seal(Ticket ticket) {
  const std::size_t offset = static_cast<std::size_t>(next_ticket_ % batch_size_);
  if (offset != 0 && next_ticket_ - offset < ticket) {
    dispatch(*live_.back());
    next_ticket_ += batch_size_ - offset;
  }
  // Every batch below `need` is dispatched now; compute them while the
  // fleet finishes, observing completions in batch order.
  const std::uint64_t need = (ticket + batch_size_ - 1) / batch_size_;
  fleet_.wait_until(
      [&] {
        while (observed_ < need &&
               live_[observed_ - first_batch_]->done.load(
                   std::memory_order_acquire)) {
          ++observed_;
        }
        return observed_ >= need;
      },
      [this] { return compute_next(0); });
  return next_ticket_;
}

void InferenceBatcher::retire(Ticket ticket) {
  const std::uint64_t end = std::min<std::uint64_t>(ticket / batch_size_, observed_);
  for (; first_batch_ < end; ++first_batch_) {
    spare_.push_back(std::move(live_.front()));
    live_.pop_front();
  }
}

// ------------------------------------------------------------ InferenceStage

namespace {

/// Fan-in ring depth (admitted mirrors in flight between barriers).
constexpr std::size_t kFanInDepth = 1 << 14;

}  // namespace

InferenceStage::InferenceStage(ModelEngine& engine, ModelRef shadow,
                               std::size_t batch_size, std::size_t workers)
    : engine_(engine),
      batcher_(engine.cnn(), engine.rnn(), batch_size, workers, shadow),
      queue_(kFanInDepth),
      consumer_(std::this_thread::get_id()) {}

std::optional<net::InferenceResult> InferenceStage::submit(
    const net::FeatureVector& vec, sim::SimTime arrival, std::size_t lane,
    VerdictSymbol& symbol) {
  auto result = engine_.submit_timed_lane(lane, vec, arrival);
  if (!result) return std::nullopt;
  symbol = static_cast<VerdictSymbol>(
      (generation_ << kSymbolGenerationShift) |
      (static_cast<std::uint64_t>(lane) << kSymbolSeqBits) | lane_seq_[lane]++);
  FanInItem item;
  item.symbol = symbol;
  item.sequence = vec.sequence;
  // Full ring: the coordinator (it runs pipes and barrier-time retransmit
  // pumps) drains it; a worker wakes it and parks until a drain makes room.
  if (!queue_.try_push(item)) {
    const bool coordinator = std::this_thread::get_id() == consumer_;
    fleet().notify();
    fleet().wait_until([&] { return queue_.try_push(item); },
                       [&] { return coordinator && drain(); });
  }
  return result;
}

bool InferenceStage::drain() {
  bool drained = false;
  while (auto item = queue_.try_pop()) {
    drained = true;
    const auto bits = static_cast<std::uint64_t>(item->symbol);
    const auto [lane, seq] = lane_and_seq(bits);
    auto& issued = issued_[lane];
    const std::size_t i = seq - classes_[lane].size();
    if (i >= issued.size()) issued.resize(i + 1);
    issued[i] = {batcher_.enqueue(item->sequence),
                 static_cast<std::size_t>((bits >> kSymbolGenerationShift) & 1)};
    window_end_ = issued[i].ticket + 1;
  }
  if (drained) fleet().notify();  // a worker may be parked on a full ring
  return drained;
}

ShadowTally InferenceStage::close_window() {
  drain();
  const InferenceBatcher::Ticket next = batcher_.flush();
  ShadowTally tally;
  tally.evals = window_end_ - window_begin_;
  for (InferenceBatcher::Ticket t = window_begin_; t < window_end_; ++t) {
    if (batcher_.result(t, 0) != batcher_.result(t, 1)) ++tally.disagreements;
  }
  window_begin_ = window_end_ = next;
  return tally;
}

InferenceStage::Mark InferenceStage::drained() const {
  Mark mark{{}, batcher_.next_ticket()};
  for (std::size_t lane = 0; lane < kCoordinationLanes; ++lane) {
    mark.seq[lane] = classes_[lane].size() + issued_[lane].size();
  }
  return mark;
}

void InferenceStage::settle(const Mark& mark) {
  batcher_.seal(mark.ticket);
  for (std::size_t lane = 0; lane < kCoordinationLanes; ++lane) {
    auto& classes = classes_[lane];
    auto& issued = issued_[lane];
    const std::size_t n = mark.seq[lane] - classes.size();
    for (std::size_t i = 0; i < n; ++i) {
      classes.push_back(batcher_.result(issued[i].ticket, issued[i].model));
    }
    issued.erase(issued.begin(), issued.begin() + static_cast<std::ptrdiff_t>(n));
  }
  batcher_.retire(mark.ticket);
}

void InferenceStage::close_epoch() {
  peak_live_batches_ = std::max(peak_live_batches_, batcher_.live_batches());
  settle(marks_[1]);
  drain();  // the barrier's retransmits
  marks_[1] = marks_[0];
  marks_[0] = drained();
}

}  // namespace fenix::core

#include "telemetry/metrics.hpp"

#include <stdexcept>

#include "telemetry/table.hpp"

namespace fenix::telemetry {

Metric* MetricRegistry::find(const std::string& name) {
  for (Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

const Metric* MetricRegistry::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void MetricRegistry::set_counter(const std::string& name, std::uint64_t value) {
  if (Metric* m = find(name)) {
    m->is_counter = true;
    m->count = value;
    m->label.clear();
    return;
  }
  metrics_.push_back(Metric{name, /*is_counter=*/true, value, 0.0, {}});
}

void MetricRegistry::set_gauge(const std::string& name, double value) {
  if (Metric* m = find(name)) {
    m->is_counter = false;
    m->gauge = value;
    m->label.clear();
    return;
  }
  metrics_.push_back(Metric{name, /*is_counter=*/false, 0, value, {}});
}

void MetricRegistry::set_label(const std::string& name, const std::string& text) {
  set_gauge(name, 0.0);
  find(name)->label = text;
}

void MetricRegistry::add_counter(const std::string& name, std::uint64_t delta) {
  if (Metric* m = find(name)) {
    m->count += delta;
    return;
  }
  set_counter(name, delta);
}

std::uint64_t MetricRegistry::counter(const std::string& name) const {
  const Metric* m = find(name);
  return m ? m->count : 0;
}

double MetricRegistry::gauge(const std::string& name) const {
  const Metric* m = find(name);
  return m ? m->gauge : 0.0;
}

std::string MetricRegistry::label(const std::string& name) const {
  const Metric* m = find(name);
  return m ? m->label : std::string();
}

bool MetricRegistry::contains(const std::string& name) const {
  return find(name) != nullptr;
}

std::string MetricRegistry::render() const {
  TextTable table({"Metric", "Value"});
  for (const Metric& m : metrics_) {
    table.add_row({m.name, m.is_counter       ? std::to_string(m.count)
                           : !m.label.empty() ? m.label
                                              : TextTable::num(m.gauge)});
  }
  return table.render();
}

void MetricRegistry::merge(const MetricRegistry& other) {
  for (const Metric& m : other.metrics_) {
    if (m.is_counter) {
      add_counter(m.name, m.count);
    } else if (!m.label.empty()) {
      set_label(m.name, m.label);
    } else {
      set_gauge(m.name, m.gauge);
    }
  }
}

ConfusionMatrix::ConfusionMatrix(std::size_t num_classes)
    : num_classes_(num_classes), cells_(num_classes * num_classes, 0),
      unpredicted_by_class_(num_classes, 0) {
  if (num_classes == 0) throw std::invalid_argument("ConfusionMatrix: zero classes");
}

void ConfusionMatrix::add(std::int64_t truth, std::int64_t predicted) {
  if (truth < 0 || static_cast<std::size_t>(truth) >= num_classes_) return;
  ++total_;
  if (predicted < 0 || static_cast<std::size_t>(predicted) >= num_classes_) {
    ++unpredicted_;
    // Counts as a false negative of the truth class (a packet the system
    // failed to classify is a miss, not a free pass).
    ++unpredicted_by_class_[static_cast<std::size_t>(truth)];
    return;
  }
  ++cells_[static_cast<std::size_t>(truth) * num_classes_ +
           static_cast<std::size_t>(predicted)];
}

std::uint64_t ConfusionMatrix::count(std::size_t truth, std::size_t predicted) const {
  return cells_.at(truth * num_classes_ + predicted);
}

double ConfusionMatrix::accuracy() const {
  if (total_ == 0) return 0.0;
  std::uint64_t correct = 0;
  for (std::size_t c = 0; c < num_classes_; ++c) correct += count(c, c);
  return static_cast<double>(correct) / static_cast<double>(total_);
}

std::vector<ClassMetrics> ConfusionMatrix::per_class() const {
  std::vector<ClassMetrics> out(num_classes_);
  // Row sums (support) per truth class include unpredicted observations, so
  // they count as false negatives below.
  std::vector<std::uint64_t> row(num_classes_, 0), col(num_classes_, 0);
  for (std::size_t t = 0; t < num_classes_; ++t) {
    row[t] += unpredicted_by_class_[t];
    for (std::size_t p = 0; p < num_classes_; ++p) {
      row[t] += count(t, p);
      col[p] += count(t, p);
    }
  }
  for (std::size_t c = 0; c < num_classes_; ++c) {
    ClassMetrics& m = out[c];
    m.cls = c;
    m.true_positives = count(c, c);
    m.false_positives = col[c] - m.true_positives;
    m.false_negatives = row[c] - m.true_positives;
    const double tp = static_cast<double>(m.true_positives);
    m.precision = (m.true_positives + m.false_positives) > 0
                      ? tp / static_cast<double>(m.true_positives + m.false_positives)
                      : 0.0;
    m.recall = (m.true_positives + m.false_negatives) > 0
                   ? tp / static_cast<double>(m.true_positives + m.false_negatives)
                   : 0.0;
    m.f1 = (m.precision + m.recall) > 0.0
               ? 2.0 * m.precision * m.recall / (m.precision + m.recall)
               : 0.0;
  }
  return out;
}

double ConfusionMatrix::macro_f1() const {
  const auto metrics = per_class();
  if (metrics.empty()) return 0.0;
  double sum = 0.0;
  for (const ClassMetrics& m : metrics) sum += m.f1;
  return sum / static_cast<double>(metrics.size());
}

void ConfusionMatrix::merge(const ConfusionMatrix& other) {
  if (other.num_classes_ != num_classes_) {
    throw std::invalid_argument("ConfusionMatrix::merge: dimension mismatch");
  }
  for (std::size_t i = 0; i < cells_.size(); ++i) cells_[i] += other.cells_[i];
  for (std::size_t c = 0; c < num_classes_; ++c) {
    unpredicted_by_class_[c] += other.unpredicted_by_class_[c];
  }
  total_ += other.total_;
  unpredicted_ += other.unpredicted_;
}

}  // namespace fenix::telemetry

// Classification metrics: confusion matrices, precision/recall, macro-F1.
//
// Table 2 of the paper reports per-class precision/recall and macro-F1 at
// both packet and flow level; this module computes them from predicted vs
// ground-truth label streams.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fenix::telemetry {

/// Per-class precision/recall/F1 breakdown.
struct ClassMetrics {
  std::size_t cls = 0;
  std::uint64_t true_positives = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t false_negatives = 0;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};

/// One named health/failure metric. Counters are exact integers (drops,
/// retransmits); gauges carry ratios and rates; a label row (non-empty
/// `label`, a gauge of 0) names a setting the run used.
struct Metric {
  std::string name;
  bool is_counter = true;
  std::uint64_t count = 0;
  double gauge = 0.0;
  std::string label;

  /// Value rendered for tables / JSON.
  double as_double() const {
    return is_counter ? static_cast<double>(count) : gauge;
  }
};

/// An ordered registry of named metrics: the one place the system's failure
/// and recovery counters (FIFO drops, channel losses, stale results,
/// retransmits, fallback verdicts, watchdog transitions, ...) are collected,
/// so every reporting surface — fenix_replay, bench_json, tests — prints the
/// same health table instead of reaching into per-module struct fields.
/// Insertion order is preserved; setting an existing name overwrites.
class MetricRegistry {
 public:
  void set_counter(const std::string& name, std::uint64_t value);
  void set_gauge(const std::string& name, double value);
  void set_label(const std::string& name, const std::string& text);
  void add_counter(const std::string& name, std::uint64_t delta);

  /// 0 when absent.
  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  std::string label(const std::string& name) const;  ///< "" when absent.
  bool contains(const std::string& name) const;

  const std::vector<Metric>& metrics() const { return metrics_; }

  /// Two-column "Metric | Value" text table of every metric in order.
  std::string render() const;

  /// Merges `other` into this registry: counters add, gauges and labels
  /// overwrite.
  void merge(const MetricRegistry& other);

 private:
  Metric* find(const std::string& name);
  const Metric* find(const std::string& name) const;

  std::vector<Metric> metrics_;
};

/// Square confusion matrix over a fixed number of classes.
class ConfusionMatrix {
 public:
  explicit ConfusionMatrix(std::size_t num_classes);

  std::size_t num_classes() const { return num_classes_; }

  /// Records one observation. Out-of-range labels (e.g. "no prediction",
  /// encoded as -1) count as misclassifications of the true class but do not
  /// credit any predicted class.
  void add(std::int64_t truth, std::int64_t predicted);

  std::uint64_t count(std::size_t truth, std::size_t predicted) const;
  std::uint64_t total() const { return total_; }
  std::uint64_t unpredicted() const { return unpredicted_; }

  /// Fraction of observations with predicted == truth.
  double accuracy() const;

  /// Per-class precision/recall/F1. Classes with no support have recall 0;
  /// classes never predicted have precision 0.
  std::vector<ClassMetrics> per_class() const;

  /// Unweighted mean of per-class F1 scores (the paper's accuracy metric).
  double macro_f1() const;

  /// Merges another matrix of the same dimension into this one.
  void merge(const ConfusionMatrix& other);

 private:
  std::size_t num_classes_;
  std::vector<std::uint64_t> cells_;  // row = truth, col = predicted
  std::vector<std::uint64_t> unpredicted_by_class_;
  std::uint64_t total_ = 0;
  std::uint64_t unpredicted_ = 0;
};

}  // namespace fenix::telemetry

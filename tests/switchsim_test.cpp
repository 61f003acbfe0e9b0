// Tests for the PISA switch model: resource ledger, stateful ALUs, match
// tables, range-to-prefix expansion, and pipeline timing.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "switchsim/chip.hpp"
#include "switchsim/match_table.hpp"
#include "switchsim/pipeline.hpp"
#include "switchsim/register_array.hpp"
#include "switchsim/resources.hpp"
#include "telemetry/metrics.hpp"

namespace fenix::switchsim {
namespace {

TEST(ChipProfile, PaperParameters) {
  const ChipProfile t1 = ChipProfile::tofino1();
  EXPECT_EQ(t1.mau_stages, 12u);
  EXPECT_EQ(t1.sram_bits, 120'000'000u);
  EXPECT_EQ(t1.tcam_bits, 6'200'000u);
  const ChipProfile t2 = ChipProfile::tofino2();
  EXPECT_EQ(t2.mau_stages, 20u);
  EXPECT_EQ(t2.sram_bits, 200'000'000u);
  EXPECT_EQ(t2.tcam_bits, 10'300'000u);
}

TEST(ResourceLedger, TracksAllocationsAndStages) {
  ResourceLedger ledger(ChipProfile::tofino2());
  ledger.allocate({"a", 0, 1000, 0, 8});
  ledger.allocate({"b", 8, 2000, 500, 16});
  EXPECT_EQ(ledger.sram_bits_used(), 3000u);
  EXPECT_EQ(ledger.tcam_bits_used(), 500u);
  EXPECT_EQ(ledger.bus_bits_used(), 24u);
  EXPECT_EQ(ledger.stages_used(), 9u);
  EXPECT_GT(ledger.sram_fraction(), 0.0);
}

TEST(ResourceLedger, RejectsOverBudget) {
  ResourceLedger ledger(ChipProfile::tofino1());
  EXPECT_THROW(ledger.allocate({"huge", 0, 200'000'000, 0, 0}), ResourceExhausted);
  EXPECT_THROW(ledger.allocate({"tcam", 0, 0, 7'000'000, 0}), ResourceExhausted);
  EXPECT_THROW(ledger.allocate({"late", 12, 8, 0, 0}), ResourceExhausted);
  // Failed allocations must not count.
  EXPECT_EQ(ledger.sram_bits_used(), 0u);
}

TEST(ResourceLedger, SummaryRenders) {
  ResourceLedger ledger(ChipProfile::tofino2());
  ledger.allocate({"x", 3, 20'000'000, 0, 0});
  const std::string s = ledger.summary();
  EXPECT_NE(s.find("SRAM 10.0%"), std::string::npos) << s;
  EXPECT_NE(s.find("Stages 4"), std::string::npos) << s;
}

class RegisterArrayTest : public ::testing::Test {
 protected:
  RegisterArrayTest() : ledger_(ChipProfile::tofino2()) {}
  ResourceLedger ledger_;
};

TEST_F(RegisterArrayTest, ChargesSram) {
  RegisterArray reg(ledger_, "r", 0, 1024, 32);
  // 1024 * 32 bits + 12.5% overhead.
  EXPECT_EQ(ledger_.sram_bits_used(), 32768u + 4096u);
}

TEST_F(RegisterArrayTest, RejectsBadWidth) {
  EXPECT_THROW(RegisterArray(ledger_, "bad", 0, 16, 24), std::invalid_argument);
  EXPECT_THROW(RegisterArray(ledger_, "bad", 0, 0, 32), std::invalid_argument);
}

TEST_F(RegisterArrayTest, WidthMasksWraparound) {
  RegisterArray reg(ledger_, "r", 0, 2, 8);
  reg.write(0, 256);
  EXPECT_EQ(reg.read(0), 0u);  // 8-bit wrap
  reg.write(1, 0x1FE);
  EXPECT_EQ(reg.read(1), 0xFEu);
}

TEST(RegisterBilling, SharedRuleForPlainArrays) {
  ResourceLedger ledger(ChipProfile::tofino2());
  allocate_register(ledger, "plain", 3, 1024, 8);
  ASSERT_EQ(ledger.allocations().size(), 1u);
  const Allocation& a = ledger.allocations()[0];
  EXPECT_EQ(a.owner, "register:plain");
  EXPECT_EQ(a.stage, 3u);
  EXPECT_EQ(a.sram_bits, 8192u + 1024u);  // 1024 * 8 bits + 12.5%
  EXPECT_EQ(a.bus_bits, 8u);
  EXPECT_THROW(allocate_register(ledger, "bad", 0, 16, 24),
               std::invalid_argument);
}

TEST_F(RegisterArrayTest, ClearResets) {
  RegisterArray reg(ledger_, "r", 0, 4, 32);
  reg.write(2, 7);
  reg.clear();
  EXPECT_EQ(reg.read(2), 0u);
}

TEST(ExactMatchTable, InsertLookupCapacity) {
  ResourceLedger ledger(ChipProfile::tofino2());
  ExactMatchTable table(ledger, "t", 0, 2, 32, 16);
  EXPECT_TRUE(table.insert(1, {10, 100}));
  EXPECT_TRUE(table.insert(2, {20, 200}));
  EXPECT_FALSE(table.insert(3, {30, 300}));  // at capacity
  EXPECT_TRUE(table.insert(1, {11, 111}));   // overwrite allowed
  EXPECT_EQ(table.lookup(1)->action_id, 11u);
  EXPECT_FALSE(table.lookup(99).has_value());
  table.erase(2);
  EXPECT_FALSE(table.lookup(2).has_value());
}

TEST(ExactMatchTable, SurvivesInsertEraseChurn) {
  // Open-addressing stress: repeated insert/erase cycles leave tombstones on
  // the probe paths; entries must stay findable, capacity must stay a hard
  // budget, and absent-key lookups must terminate.
  ResourceLedger ledger(ChipProfile::tofino2());
  ExactMatchTable table(ledger, "t", 0, 64, 32, 16);
  for (std::uint64_t round = 0; round < 40; ++round) {
    for (std::uint64_t k = 0; k < 64; ++k) {
      ASSERT_TRUE(table.insert(round * 1000 + k, {static_cast<std::uint32_t>(k), k}));
    }
    EXPECT_EQ(table.size(), 64u);
    EXPECT_FALSE(table.insert(round * 1000 + 999, {9, 9}));  // at capacity
    for (std::uint64_t k = 0; k < 64; ++k) {
      const auto hit = table.lookup(round * 1000 + k);
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(hit->action_data, k);
    }
    EXPECT_FALSE(table.lookup(round * 1000 + 998).has_value());
    for (std::uint64_t k = 0; k < 64; ++k) table.erase(round * 1000 + k);
    EXPECT_EQ(table.size(), 0u);
  }
  table.insert(5, {1, 1});
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.lookup(5).has_value());
}

TEST(ExactMatchTable, ChaosChurnWithReorderDelayedErases) {
  // Chaos-style churn: a control plane whose erase messages arrive late and
  // out of order relative to the inserts that replace them (the same
  // reordering the reliable link's chaos mutators model). Erases for round R
  // are applied interleaved with round R+1's inserts, in a scrambled order.
  // Entries must stay findable, tombstones must be reused rather than
  // accumulate, and probe chains must stay bounded by the slot count.
  ResourceLedger ledger(ChipProfile::tofino2());
  ExactMatchTable table(ledger, "t", 0, 64, 32, 16);
  const std::size_t slot_bound = 128;  // pow2_at_least(2 * capacity)

  std::uint64_t rng = 0x2545F4914F6CDD1DULL;  // deterministic xorshift64
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  std::vector<std::uint64_t> pending_erases;  // delayed from the prior round
  for (std::uint64_t round = 0; round < 60; ++round) {
    // Interleave this round's 32 inserts with the delayed erases from the
    // previous round, consuming the erase backlog in scrambled order.
    for (std::uint64_t k = 0; k < 32; ++k) {
      ASSERT_TRUE(table.insert(round * 1000 + k, {0, round * 1000 + k}));
      if (!pending_erases.empty()) {
        const std::size_t pick = next() % pending_erases.size();
        table.erase(pending_erases[pick]);
        pending_erases[pick] = pending_erases.back();
        pending_erases.pop_back();
      }
    }
    for (const std::uint64_t stale : pending_erases) table.erase(stale);
    pending_erases.clear();
    // Everything inserted this round is findable with the right value even
    // though erases landed mid-insert.
    for (std::uint64_t k = 0; k < 32; ++k) {
      const auto hit = table.lookup(round * 1000 + k);
      ASSERT_TRUE(hit.has_value()) << "round " << round << " key " << k;
      EXPECT_EQ(hit->action_data, round * 1000 + k);
    }
    EXPECT_EQ(table.size(), 32u);
    EXPECT_FALSE(table.lookup(round * 1000 + 999).has_value());
    for (std::uint64_t k = 0; k < 32; ++k) {
      pending_erases.push_back(round * 1000 + k);
    }
    // Probe chains stay bounded no matter how much tombstone debris the
    // churn leaves behind (find_slot terminates after one sweep).
    EXPECT_LE(table.max_probe_length(), slot_bound);
  }
}

TEST(ExactMatchTable, TombstoneReuseKeepsProbesShort) {
  // Re-inserting a key after erasing it must land in the first tombstone on
  // its probe path (its old slot), so single-key churn cannot grow the probe
  // chain: the high-water probe length after thousands of cycles must match
  // the length after one cycle.
  ResourceLedger ledger(ChipProfile::tofino2());
  ExactMatchTable table(ledger, "t", 0, 64, 32, 16);
  const std::uint64_t key = 0xfeedULL;
  table.insert(key, {1, 1});
  table.erase(key);
  table.insert(key, {1, 2});
  const std::size_t after_one_cycle = table.max_probe_length();
  for (int i = 0; i < 5000; ++i) {
    table.erase(key);
    ASSERT_TRUE(table.insert(key, {1, static_cast<std::uint64_t>(i)}));
  }
  EXPECT_EQ(table.max_probe_length(), after_one_cycle);
  EXPECT_EQ(table.lookup(key)->action_data, 4999u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(ExactMatchTable, GrowthSustainsTenMillionEntriesWithHealthyProbes) {
  // Scenario-scale churn (ROADMAP item 3): a host-side flow table that
  // starts at 64k entries must grow to hold 10M+ flows while linear probing
  // stays cache-friendly — the log2 probe histogram keeps ~all its mass in
  // chains of <= 7 slots, because growth rehashes keep the load factor at
  // <= 50% and drop tombstone debris.
  ResourceLedger ledger(ChipProfile::tofino2());
  ExactMatchTable table(ledger, "flows", 0, std::size_t{1} << 16, 64, 32);
  table.set_growth(true);

  constexpr std::uint64_t kEntries = 10'000'000;
  // i * odd-constant is a bijection on uint64: 10M distinct well-mixed keys
  // without materializing them.
  const auto key_of = [](std::uint64_t i) { return i * 0x9e3779b97f4a7c15ULL + 1; };

  std::uint64_t insert_failures = 0;
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    if (!table.insert(key_of(i), {static_cast<std::uint32_t>(i), i})) {
      ++insert_failures;
    }
  }
  EXPECT_EQ(insert_failures, 0u);
  EXPECT_EQ(table.size(), kEntries);
  // 64k doubles 8 times before capacity covers 10M.
  EXPECT_EQ(table.grows(), 8u);
  EXPECT_EQ(table.capacity(), std::size_t{1} << 24);
  EXPECT_EQ(table.evictions(), 0u);

  // Spot-check membership, then churn: erase a 10% slice and re-insert it
  // with new values (tombstone reuse at scale).
  for (std::uint64_t i = 0; i < kEntries; i += 997) {
    const auto hit = table.lookup(key_of(i));
    ASSERT_TRUE(hit.has_value()) << "key index " << i;
    EXPECT_EQ(hit->action_data, i);
  }
  for (std::uint64_t i = 0; i < kEntries; i += 10) table.erase(key_of(i));
  EXPECT_EQ(table.size(), kEntries - kEntries / 10);
  for (std::uint64_t i = 0; i < kEntries; i += 10) {
    ASSERT_TRUE(table.insert(key_of(i), {0, i + 1}));
  }
  EXPECT_EQ(table.size(), kEntries);
  EXPECT_EQ(table.lookup(key_of(20))->action_data, 21u);

  // Probe-histogram shape: every operation recorded one chain, and the mass
  // concentrates in buckets 0-2 (chains of 1-7 slots).
  const auto& hist = table.probe_histogram();
  std::uint64_t total = 0;
  for (const std::uint64_t count : hist) total += count;
  EXPECT_GE(total, kEntries);  // at minimum, the initial inserts
  const std::uint64_t short_chains = hist[0] + hist[1] + hist[2];
  EXPECT_GT(static_cast<double>(short_chains), 0.9 * static_cast<double>(total))
      << "short " << short_chains << " of " << total;
  EXPECT_LT(table.max_probe_length(), std::size_t{4096});
  // Nothing ever walked a chain long enough for the overflow bucket.
  EXPECT_EQ(hist[ExactMatchTable::kProbeHistBuckets - 1], 0u);
}

TEST(ExactMatchTable, EvictCollisionReplacesAProbePathVictim) {
  ResourceLedger ledger(ChipProfile::tofino2());
  ExactMatchTable table(ledger, "t", 0, 64, 32, 16);
  for (std::uint64_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(table.insert(k, {static_cast<std::uint32_t>(k), k}));
  }
  // Hardware default: a full table rejects.
  EXPECT_FALSE(table.insert(1000, {9, 9}));
  EXPECT_EQ(table.evictions(), 0u);

  // Eviction mode: the insert lands by displacing one occupied slot on the
  // new key's probe path; occupancy and capacity are unchanged.
  table.set_eviction(EvictionPolicy::kEvictCollision);
  ASSERT_TRUE(table.insert(1000, {9, 1000}));
  EXPECT_EQ(table.size(), 64u);
  EXPECT_EQ(table.evictions(), 1u);
  EXPECT_EQ(table.lookup(1000)->action_data, 1000u);
  std::size_t survivors = 0;
  for (std::uint64_t k = 0; k < 64; ++k) {
    if (table.lookup(k).has_value()) ++survivors;
  }
  EXPECT_EQ(survivors, 63u);  // exactly one victim

  // Growth, when enabled, takes precedence over eviction.
  table.set_growth(true);
  ASSERT_TRUE(table.insert(1001, {9, 1001}));
  EXPECT_EQ(table.grows(), 1u);
  EXPECT_EQ(table.size(), 65u);
  EXPECT_EQ(table.evictions(), 1u);
}

TEST(ExactMatchTable, ExportMetricsPublishesProbeHistogram) {
  ResourceLedger ledger(ChipProfile::tofino2());
  ExactMatchTable table(ledger, "t", 0, 64, 32, 16);
  for (std::uint64_t k = 0; k < 32; ++k) {
    ASSERT_TRUE(table.insert(k, {static_cast<std::uint32_t>(k), k}));
  }
  for (std::uint64_t k = 0; k < 48; ++k) table.lookup(k);

  telemetry::MetricRegistry reg;
  table.export_metrics(reg, "switch.flow_table.");
  EXPECT_DOUBLE_EQ(reg.gauge("switch.flow_table.size"), 32.0);
  EXPECT_DOUBLE_EQ(reg.gauge("switch.flow_table.capacity"), 64.0);
  EXPECT_DOUBLE_EQ(reg.gauge("switch.flow_table.occupancy"), 0.5);
  EXPECT_EQ(reg.counter("switch.flow_table.lookups"), 48u);
  EXPECT_EQ(reg.counter("switch.flow_table.evictions"), 0u);
  EXPECT_EQ(reg.counter("switch.flow_table.grows"), 0u);
  // Bucket 0 always anchors the histogram, and the published mass matches
  // the recorder exactly.
  ASSERT_TRUE(reg.contains("switch.flow_table.probe_hist_0"));
  const auto& hist = table.probe_histogram();
  for (std::size_t b = 0; b < ExactMatchTable::kProbeHistBuckets; ++b) {
    const std::string key = "switch.flow_table.probe_hist_" + std::to_string(b);
    if (reg.contains(key)) {
      EXPECT_EQ(reg.counter(key), hist[b]) << key;
    } else {
      EXPECT_EQ(hist[b], 0u) << key;
    }
  }
}

TEST(TernaryMatchTable, PriorityOrdering) {
  ResourceLedger ledger(ChipProfile::tofino2());
  TernaryMatchTable table(ledger, "t", 0, 8, 16, 16);
  // Broad low-priority rule vs specific high-priority rule.
  table.insert({0x0000, 0x0000, 10, {1, 1}});      // match-all
  table.insert({0x00f0, 0x00f0, 1, {2, 2}});       // specific
  EXPECT_EQ(table.lookup(0x00f3)->action_id, 2u);
  EXPECT_EQ(table.lookup(0x0003)->action_id, 1u);
}

TEST(TernaryMatchTable, ChargesTcam) {
  ResourceLedger ledger(ChipProfile::tofino2());
  TernaryMatchTable table(ledger, "t", 0, 100, 32, 8);
  EXPECT_EQ(ledger.tcam_bits_used(), 100u * 32 * 2);
}

class RangeExpansion : public ::testing::TestWithParam<std::pair<std::uint64_t, std::uint64_t>> {};

TEST_P(RangeExpansion, CoversExactlyTheRange) {
  const auto [lo, hi] = GetParam();
  constexpr unsigned kWidth = 8;
  const auto prefixes = expand_range_to_prefixes(lo, hi, kWidth);
  ASSERT_FALSE(prefixes.empty());
  EXPECT_LE(prefixes.size(), 2u * kWidth - 2);
  for (std::uint64_t v = 0; v < 256; ++v) {
    int hits = 0;
    for (const PrefixMask& pm : prefixes) {
      if ((v & pm.mask) == pm.value) ++hits;
    }
    const bool inside = v >= lo && v <= hi;
    EXPECT_EQ(hits, inside ? 1 : 0) << "v=" << v << " lo=" << lo << " hi=" << hi;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, RangeExpansion,
    ::testing::Values(std::pair<std::uint64_t, std::uint64_t>{0, 255},
                      std::pair<std::uint64_t, std::uint64_t>{0, 0},
                      std::pair<std::uint64_t, std::uint64_t>{255, 255},
                      std::pair<std::uint64_t, std::uint64_t>{1, 254},
                      std::pair<std::uint64_t, std::uint64_t>{13, 200},
                      std::pair<std::uint64_t, std::uint64_t>{128, 128},
                      std::pair<std::uint64_t, std::uint64_t>{0, 127},
                      std::pair<std::uint64_t, std::uint64_t>{64, 191},
                      std::pair<std::uint64_t, std::uint64_t>{100, 101}));

TEST(RangeExpansionEdge, InvalidInputsEmpty) {
  EXPECT_TRUE(expand_range_to_prefixes(5, 4, 8).empty());
  EXPECT_TRUE(expand_range_to_prefixes(0, 1, 0).empty());
}

TEST(RangeExpansionEdge, ClampsHighBound) {
  const auto prefixes = expand_range_to_prefixes(250, 1000, 8);
  int covered = 0;
  for (std::uint64_t v = 0; v < 256; ++v) {
    for (const PrefixMask& pm : prefixes) {
      if ((v & pm.mask) == pm.value) {
        ++covered;
        break;
      }
    }
  }
  EXPECT_EQ(covered, 6);  // 250..255
}

TEST(PipelineTiming, DeterministicLatency) {
  PipelineTiming timing(ChipProfile::tofino2());
  EXPECT_GT(timing.pass_latency(), 0u);
  EXPECT_EQ(timing.transit_latency(),
            2 * timing.pass_latency() + timing.clock().cycles(100));
  // Tofino-class transit should land in the hundreds of nanoseconds.
  EXPECT_GT(sim::to_nanoseconds(timing.transit_latency()), 100.0);
  EXPECT_LT(sim::to_nanoseconds(timing.transit_latency()), 2000.0);
}

TEST(MirrorSession, Counts) {
  MirrorSession m;
  m.record(100);
  m.record(50);
  EXPECT_EQ(m.mirrored_packets, 2u);
  EXPECT_EQ(m.mirrored_bytes, 150u);
}

}  // namespace
}  // namespace fenix::switchsim

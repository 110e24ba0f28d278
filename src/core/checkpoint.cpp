#include "core/checkpoint.hpp"

#include <cstdlib>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace dlb {

namespace {
constexpr const char* kMagic = "dlb-checkpoint";
// Version 2: sparse ledgers.  Each processor stores its active-entry
// count followed by ascending (class, d, b) triples — O(active) bytes
// per processor instead of the version-1 dense 2n-cell rows, which at
// n = 65536 would be ~2.5 GB of text per checkpoint.  Version 1 files
// are still readable (restore only; saving always writes version 2).
constexpr int kVersion = 2;
}  // namespace

void save_checkpoint(const System& system, std::ostream& os) {
  os << kMagic << ' ' << kVersion << '\n';
  const BalancerConfig& cfg = system.config_;
  os << system.processors() << ' ' << cfg.delta << ' ' << cfg.borrow_cap
     << ' ' << (cfg.analysis_mode ? 1 : 0) << '\n';
  // Hex-encode the double so the round trip is exact.
  os.precision(17);
  os << std::hexfloat << cfg.f << std::defaultfloat << '\n';

  const auto rng_state = system.rng_.state();
  os << rng_state[0] << ' ' << rng_state[1] << ' ' << rng_state[2] << ' '
     << rng_state[3] << '\n';

  os << system.generated_.get() << ' ' << system.consumed_.get() << ' '
     << system.balance_ops_.get() << '\n';
  const CostTotals& totals = system.costs_.totals();
  os << totals.balance_ops << ' ' << totals.messages << ' '
     << totals.packets_moved << ' ' << totals.packets_moved_net << ' '
     << totals.packet_hops << ' ' << totals.partner_links << '\n';
  os << (system.partner_radius_.has_value()
             ? static_cast<long long>(*system.partner_radius_)
             : -1LL)
     << '\n';

  for (std::uint32_t p = 0; p < system.processors(); ++p) {
    const ProcessorState& st = system.procs_[p];
    const auto records = st.ledger.records();
    os << st.l_old << ' ' << st.local_time << ' ' << records.size() << '\n';
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (i) os << ' ';
      os << records[i].cls << ' ' << records[i].d << ' ' << records[i].b;
    }
    os << '\n';
  }
}

System load_checkpoint(std::istream& is, const Topology* topology) {
  std::string magic;
  int version = 0;
  is >> magic >> version;
  DLB_REQUIRE(is.good() && magic == kMagic, "not a dlb checkpoint");
  DLB_REQUIRE(version == 1 || version == kVersion,
              "unsupported checkpoint version");

  std::uint32_t processors = 0;
  BalancerConfig cfg;
  int analysis = 0;
  is >> processors >> cfg.delta >> cfg.borrow_cap >> analysis;
  cfg.analysis_mode = analysis != 0;
  // operator>> cannot parse hexfloat portably; go through strtod.
  std::string f_text;
  is >> f_text;
  char* end = nullptr;
  cfg.f = std::strtod(f_text.c_str(), &end);
  DLB_REQUIRE(end != f_text.c_str() && *end == '\0',
              "checkpoint f value malformed");
  DLB_REQUIRE(is.good(), "checkpoint header malformed");

  System system(processors, cfg, /*seed=*/0, topology);

  std::array<std::uint64_t, 4> rng_state{};
  is >> rng_state[0] >> rng_state[1] >> rng_state[2] >> rng_state[3];
  system.rng_ = Rng::from_state(rng_state);

  std::uint64_t generated = 0;
  std::uint64_t consumed = 0;
  std::uint64_t balance_ops = 0;
  is >> generated >> consumed >> balance_ops;
  system.generated_.set(generated);
  system.consumed_.set(consumed);
  system.balance_ops_.set(balance_ops);
  CostTotals totals;
  is >> totals.balance_ops >> totals.messages >> totals.packets_moved >>
      totals.packets_moved_net >> totals.packet_hops >>
      totals.partner_links;
  system.costs_.restore(totals);
  long long radius = -1;
  is >> radius;
  DLB_REQUIRE(is.good(), "checkpoint counters malformed");
  if (radius >= 0) {
    DLB_REQUIRE(topology != nullptr,
                "checkpoint uses neighborhood partners; topology required");
    system.partner_radius_ = static_cast<unsigned>(radius);
  }

  // Each processor's entries become ascending (class, d, b) columns that
  // rebuild its fresh ledger in one pass; rebuild_dealt validates the
  // order, the class range and the cell values, and check_invariants
  // below the marker cap.
  std::vector<std::uint32_t> cls;
  std::vector<std::int64_t> d_vals;
  std::vector<std::int64_t> b_vals;
  for (std::uint32_t p = 0; p < processors; ++p) {
    ProcessorState& st = system.procs_[p];
    is >> st.l_old >> st.local_time;
    if (version == 1) {
      // Dense rows: all n d cells, then all n b cells; only the nonzero
      // classes become columns.
      d_vals.assign(processors, 0);
      b_vals.assign(processors, 0);
      for (std::int64_t& v : d_vals) is >> v;
      for (std::int64_t& v : b_vals) is >> v;
      cls.clear();
      std::size_t entries = 0;
      for (std::uint32_t j = 0; j < processors; ++j) {
        if (d_vals[j] == 0 && b_vals[j] == 0) continue;
        cls.push_back(j);
        d_vals[entries] = d_vals[j];
        b_vals[entries] = b_vals[j];
        ++entries;
      }
    } else {
      std::size_t entries = 0;
      is >> entries;
      DLB_REQUIRE(is.good() && entries <= processors,
                  "checkpoint ledger malformed");
      cls.resize(entries);
      d_vals.resize(entries);
      b_vals.resize(entries);
      for (std::size_t i = 0; i < entries; ++i)
        is >> cls[i] >> d_vals[i] >> b_vals[i];
    }
    DLB_REQUIRE(is.good(), "checkpoint ledger malformed");
    st.ledger.rebuild_dealt(cls.data(), cls.size(), d_vals.data(),
                            b_vals.data(), 1);
  }
  system.check_invariants();
  return system;
}

LoadJournal::LoadJournal(std::uint32_t ranks, std::uint32_t interval)
    : interval_(interval), slots_(ranks) {
  DLB_REQUIRE(interval >= 1, "journal interval must be >= 1");
}

void LoadJournal::reset() {
  for (Slot& slot : slots_) slot = Slot{};
}

void LoadJournal::observe(std::uint32_t rank, std::uint32_t step,
                          std::int64_t load, std::int64_t generated,
                          std::int64_t consumed) {
  DLB_REQUIRE(rank < slots_.size(), "journal rank out of range");
  Slot& slot = slots_[rank];
  if (slot.crashed) return;  // a dead rank's slot is frozen
  slot.shadow_load = load;
  slot.generated = generated;
  slot.consumed = consumed;
  if (step % interval_ == 0) {
    slot.committed_load = load;
    slot.committed_once = true;
  }
}

std::int64_t LoadJournal::on_crash(std::uint32_t rank) {
  DLB_REQUIRE(rank < slots_.size(), "journal rank out of range");
  Slot& slot = slots_[rank];
  if (slot.crashed) return 0;
  slot.crashed = true;
  // A rank that never reached a boundary recovers as empty; everything
  // it held is drift.
  if (!slot.committed_once) slot.committed_load = 0;
  slot.crash_loss = slot.shadow_load - slot.committed_load;
  return slot.crash_loss;
}

std::int64_t LoadJournal::recovered_load(std::uint32_t rank) const {
  DLB_REQUIRE(rank < slots_.size(), "journal rank out of range");
  const Slot& slot = slots_[rank];
  return slot.crashed ? slot.committed_load : slot.shadow_load;
}

std::int64_t LoadJournal::generated(std::uint32_t rank) const {
  DLB_REQUIRE(rank < slots_.size(), "journal rank out of range");
  return slots_[rank].generated;
}

std::int64_t LoadJournal::consumed(std::uint32_t rank) const {
  DLB_REQUIRE(rank < slots_.size(), "journal rank out of range");
  return slots_[rank].consumed;
}

bool LoadJournal::crashed(std::uint32_t rank) const {
  DLB_REQUIRE(rank < slots_.size(), "journal rank out of range");
  return slots_[rank].crashed;
}

std::int64_t LoadJournal::total_crash_loss() const {
  std::int64_t loss = 0;
  for (const Slot& slot : slots_)
    if (slot.crashed) loss += slot.crash_loss;
  return loss;
}

}  // namespace dlb
